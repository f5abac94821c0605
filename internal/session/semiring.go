package session

// Carrier runtimes: the same session answers what-ifs in every
// wire-selectable carrier (semiring.Kind), each through one semState — a
// kernel, its baseline, its own BatchCounters (so a boolean stream's
// timings never steer the float cost model, and vice versa) and its own
// scenario count. The float runtime is a field of the Engine whose kernel
// is the active set's own storage: Open, Restore and Compress set it, Add
// extends it through the set, and its accounting fills Stats' top-level
// fields. The other carriers' runtimes live in a small map behind semMu,
// surfaced in Stats.Semirings; each compiles its kernel from the active
// set on first use. Add mirrors its incremental Append into every live
// kernel, and Compress drops them all (the active set changed wholesale),
// as does a mirror the carrier declines; a dropped kernel is compiled again
// on next use, and its runtime's accounting carries on.
//
// Lock order: e.mu before e.semMu, everywhere.

import (
	"context"
	"fmt"
	"sync/atomic"

	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/scenql"
	"provabs/internal/semiring"
)

// SemiringStats is the per-carrier slice of a session's evaluation
// accounting (see Stats.Semirings; the float default stays in the
// top-level fields).
type SemiringStats struct {
	Scenarios    int64 `json:"scenarios"`
	DeltaEvals   int64 `json:"delta_evals"`
	ChainedEvals int64 `json:"chained_evals"`
	FullEvals    int64 `json:"full_evals"`
	ShardedEvals int64 `json:"sharded_evals"`
	RankedEvals  int64 `json:"ranked_evals"`

	DeltaNsPerTerm float64 `json:"delta_ns_per_term,omitempty"`
	FullNsPerTerm  float64 `json:"full_ns_per_term,omitempty"`
	AdaptiveCutoff float64 `json:"adaptive_cutoff,omitempty"`
}

// accumulate merges another session's per-carrier slice (counters sum, the
// cost-model estimates take the maximum, as in Stats.Accumulate).
func (s *SemiringStats) accumulate(o SemiringStats) {
	s.Scenarios += o.Scenarios
	s.DeltaEvals += o.DeltaEvals
	s.ChainedEvals += o.ChainedEvals
	s.FullEvals += o.FullEvals
	s.ShardedEvals += o.ShardedEvals
	s.RankedEvals += o.RankedEvals
	if o.DeltaNsPerTerm > s.DeltaNsPerTerm {
		s.DeltaNsPerTerm = o.DeltaNsPerTerm
	}
	if o.FullNsPerTerm > s.FullNsPerTerm {
		s.FullNsPerTerm = o.FullNsPerTerm
	}
	if o.AdaptiveCutoff > s.AdaptiveCutoff {
		s.AdaptiveCutoff = o.AdaptiveCutoff
	}
}

// semRuntime is the carrier-erased face of one carrier's runtime;
// semState[T, C] implements it for each concrete carrier.
type semRuntime interface {
	// rows evaluates a batch; any unresolvable scenario fails the call.
	rows(e *Engine, scs []*hypo.Scenario) ([]hypo.Row, error)
	// evalStreamBatch is the error-isolating chained micro-batch used by
	// StreamIn; cs carries the chain across micro-batches.
	evalStreamBatch(e *Engine, base int, scs []*hypo.Scenario, cs *hypo.ChainState) []ValueStreamResult
	// query runs a ScenQL plan compiled against set on this carrier (see
	// Engine.runPlan).
	query(ctx context.Context, e *Engine, p *scenql.Plan, set *provenance.Set, emit func(QueryRow) bool) ([]QueryRow, error)
	// mirror appends one tagged one-polynomial kernel incrementally,
	// reporting false when the kernel must be rebuilt (the caller then
	// drops it and the next use recompiles). The float runtime is never
	// mirrored: its kernel is the active set's, which Add extends.
	mirror(tag string, k *provenance.Compiled) bool
	// compile builds the kernel from the active set when the runtime has
	// none.
	compile(s *provenance.Set) error
	// drop discards the kernel and its baseline; the accounting stays.
	drop()
	// stats snapshots the runtime's accounting.
	stats() SemiringStats
	// describe summarizes the kernel for ScenQL EXPLAIN.
	describe() kernelDesc
}

// semState is one carrier's compiled kernel plus its private accounting.
// The kernel is nil while dropped; it is written under e.mu held
// exclusively (drop, mirror) or, while nil, under semMu (compile), and
// read after runtimeLocked returned the runtime.
type semState[T any, C provenance.Carrier[T]] struct {
	kernel    *provenance.Kernel[T, C]
	base      baseSlot[T, C]
	counters  hypo.BatchCounters
	scenarios atomic.Int64 // evaluations run under e.mu.RLock, concurrently
}

// newSemRuntime returns the named non-float carrier's runtime, with no
// kernel yet.
func newSemRuntime(kind semiring.Kind) (semRuntime, error) {
	switch kind {
	case semiring.KindBool:
		return &semState[bool, semiring.Boolean]{}, nil
	case semiring.KindCount:
		return &semState[int64, semiring.Counting]{}, nil
	case semiring.KindTropical:
		return &semState[float64, semiring.Tropical]{}, nil
	case semiring.KindMinMax:
		return &semState[float64, semiring.MinMax]{}, nil
	}
	return nil, fmt.Errorf("session: no evaluation runtime for semiring %q", kind)
}

// compile compiles the set into the carrier unless the runtime holds a
// kernel. It fails when the provenance has coefficients the carrier
// rejects (e.g. a fractional multiplicity under counting).
func (st *semState[T, C]) compile(s *provenance.Set) error {
	if st.kernel != nil {
		return nil
	}
	var cr C // every carrier is a stateless value
	k, err := provenance.CompileSet[T, C](cr, s)
	if err != nil {
		return err
	}
	st.kernel = k
	return nil
}

func (st *semState[T, C]) drop() {
	st.kernel = nil
	st.base.p.Store(nil)
}

func (st *semState[T, C]) batchOptions(e *Engine) hypo.BatchOptions {
	return hypo.BatchOptions{Workers: e.workers, DeltaCutoff: e.deltaCutoff, Counters: &st.counters}
}

func (st *semState[T, C]) rows(e *Engine, scs []*hypo.Scenario) ([]hypo.Row, error) {
	rows, err := hypo.EvalBatch(st.kernel, scs, st.batchOptions(e))
	if err != nil {
		return nil, err
	}
	st.scenarios.Add(int64(len(scs)))
	return rowsOf(st.kernel.Tags, st.base.of(st.kernel), rows), nil
}

// target is this carrier's evalTarget. Callers hold e.mu.
func (st *semState[T, C]) target(e *Engine) evalTarget[T, C] {
	opts := st.batchOptions(e)
	opts.Chain = true
	return evalTarget[T, C]{e: e, kernel: st.kernel, base: &st.base, opts: opts, scenarios: &st.scenarios}
}

func (st *semState[T, C]) evalStreamBatch(e *Engine, base int, scs []*hypo.Scenario, cs *hypo.ChainState) []ValueStreamResult {
	return st.target(e).raw(base, scs, cs).results(base)
}

// query sweeps the plan on this carrier's kernel. The receiver only fixes
// the carrier: each micro-batch looks the runtime up again, since an Add
// may drop it between batches.
func (st *semState[T, C]) query(ctx context.Context, e *Engine, p *scenql.Plan, set *provenance.Set, emit func(QueryRow) bool) ([]QueryRow, error) {
	return sweep(ctx, e, p, set, func() (evalTarget[T, C], error) {
		rt, err := e.runtimeLocked(p.Kind)
		if err != nil {
			return evalTarget[T, C]{}, err
		}
		return rt.(*semState[T, C]).target(e), nil
	}, emit)
}

func (st *semState[T, C]) mirror(tag string, k *provenance.Compiled) bool {
	return st.kernel == nil || st.kernel.Append(k, []string{tag})
}

func (st *semState[T, C]) describe() kernelDesc {
	return kernelDesc{
		polys: st.kernel.Len(), terms: st.kernel.Size(),
		counters:      &st.counters,
		vocab:         st.kernel.Vocab,
		termsTouching: st.kernel.TermsTouching,
	}
}

func (st *semState[T, C]) stats() SemiringStats {
	return SemiringStats{
		Scenarios:      st.scenarios.Load(),
		DeltaEvals:     st.counters.DeltaEvals.Load(),
		ChainedEvals:   st.counters.ChainedEvals.Load(),
		FullEvals:      st.counters.FullEvals.Load(),
		ShardedEvals:   st.counters.ShardedEvals.Load(),
		RankedEvals:    st.counters.RankedEvals.Load(),
		DeltaNsPerTerm: st.counters.DeltaNsPerTerm(),
		FullNsPerTerm:  st.counters.FullNsPerTerm(),
		AdaptiveCutoff: st.counters.AdaptiveCutoff(),
	}
}

// runtimeLocked returns the evaluation runtime for kind against the
// current active set: the float runtime (counting its kernel's first
// evaluation in Stats' Compiles), or another carrier's, whose kernel is
// compiled on first use and again after a drop. A carrier's runtime joins
// the session's accounting with its first compiled kernel. Callers hold
// e.mu (read or write).
func (e *Engine) runtimeLocked(kind semiring.Kind) (semRuntime, error) {
	if kind == semiring.KindFloat || kind == "" {
		e.compiledLocked()
		return &e.float, nil
	}
	e.semMu.Lock()
	defer e.semMu.Unlock()
	rt, ok := e.sems[kind]
	if !ok {
		var err error
		if rt, err = newSemRuntime(kind); err != nil {
			return nil, err
		}
	}
	if err := rt.compile(e.active); err != nil {
		return nil, err
	}
	if !ok {
		if e.sems == nil {
			e.sems = map[semiring.Kind]semRuntime{}
		}
		e.sems[kind] = rt
	}
	return rt, nil
}

// mirrorAddLocked incrementally appends the one-polynomial kernel just
// added to the active set into every live semiring kernel, dropping any
// whose in-place Append declined (the next use recompiles, surfacing
// conversion errors there). Callers hold e.mu exclusively.
func (e *Engine) mirrorAddLocked(tag string, k *provenance.Compiled) {
	e.semMu.Lock()
	defer e.semMu.Unlock()
	for _, rt := range e.sems {
		if !rt.mirror(tag, k) {
			rt.drop()
		}
	}
}

// dropRuntimesLocked discards every semiring kernel and keeps their
// accounting; used when the active set is replaced wholesale (Compress).
// Callers hold e.mu exclusively.
func (e *Engine) dropRuntimesLocked() {
	e.semMu.Lock()
	defer e.semMu.Unlock()
	for _, rt := range e.sems {
		rt.drop()
	}
}

// semStatsLocked snapshots the per-carrier accounting (nil when no
// non-float carrier was used). Callers hold e.mu.
func (e *Engine) semStatsLocked() map[string]SemiringStats {
	e.semMu.Lock()
	defer e.semMu.Unlock()
	if len(e.sems) == 0 {
		return nil
	}
	out := make(map[string]SemiringStats, len(e.sems))
	for k, rt := range e.sems {
		out[k.String()] = rt.stats()
	}
	return out
}

// WhatIfIn answers a single scenario in the named semiring, carrier-erased,
// on that carrier's runtime.
func (e *Engine) WhatIfIn(kind semiring.Kind, sc *hypo.Scenario) ([]hypo.ValueAnswer, error) {
	row, err := e.WhatIfRow(kind, sc)
	if err != nil {
		return nil, err
	}
	return row.Erase(), nil
}

// WhatIfRow is WhatIfIn with the answers left unboxed, in the carrier's own
// slice: the form the HTTP server encodes from.
func (e *Engine) WhatIfRow(kind semiring.Kind, sc *hypo.Scenario) (hypo.Row, error) {
	rows, err := e.whatIfRows(kind, []*hypo.Scenario{sc})
	if err != nil {
		return hypo.Row{}, err
	}
	return rows[0], nil
}

// WhatIfBatchIn answers many scenarios in parallel in the named semiring,
// carrier-erased.
func (e *Engine) WhatIfBatchIn(kind semiring.Kind, scs []*hypo.Scenario) ([][]hypo.ValueAnswer, error) {
	rows, err := e.whatIfRows(kind, scs)
	if err != nil {
		return nil, err
	}
	e.batches.Add(1)
	out := make([][]hypo.ValueAnswer, len(rows))
	for i, row := range rows {
		out[i] = row.Erase()
	}
	return out, nil
}

// whatIfRows evaluates a batch on kind's runtime. Batch accounting stays
// with the batch entry points, so single evaluations do not inflate the
// batch counter.
func (e *Engine) whatIfRows(kind semiring.Kind, scs []*hypo.Scenario) ([]hypo.Row, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rt, err := e.runtimeLocked(kind)
	if err != nil {
		return nil, err
	}
	return rt.rows(e, scs)
}
