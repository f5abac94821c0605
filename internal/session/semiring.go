package session

// Semiring-aware evaluation: the same session can answer what-ifs in any
// wire-selectable carrier (semiring.Kind), not just the float64 default.
// Each non-float carrier used gets its own lazily compiled kernel over the
// session's active set, its own BatchCounters (so a boolean stream's
// timings never steer the float cost model, and vice versa) and its own
// scenario accounting, surfaced in Stats.Semirings. The kernels live in a
// small map behind semMu; Add mirrors its incremental Append into every
// live kernel and Compress drops them all (the active set changed
// wholesale).
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

// semRuntime is the carrier-erased face of one non-float evaluation kernel;
// semState[T, C] implements it for each concrete carrier.
type semRuntime interface {
	// answers evaluates a batch; any unresolvable scenario fails the call.
	answers(e *Engine, scs []*hypo.Scenario) ([][]hypo.ValueAnswer, error)
	// evalStreamBatch is the error-isolating chained micro-batch used by
	// StreamIn; cs carries the chain across micro-batches.
	evalStreamBatch(e *Engine, base int, scs []*hypo.Scenario, cs *hypo.ChainState) []ValueStreamResult
	// query runs a ScenQL plan on this carrier (see Engine.runPlan).
	query(ctx context.Context, e *Engine, p *scenql.Plan, emit func(QueryRow) bool) ([]QueryRow, error)
	// mirror appends one tagged polynomial incrementally, reporting false
	// when the kernel must be rebuilt (the caller then drops the runtime
	// and the next use recompiles).
	mirror(tag string, p *provenance.Polynomial) bool
	// stats snapshots the runtime's accounting.
	stats() SemiringStats
	// describe summarizes the kernel for ScenQL EXPLAIN.
	describe() kernelDesc
}

// semState is one carrier's compiled kernel plus its private accounting.
type semState[T any, C provenance.Carrier[T]] struct {
	kernel    *provenance.Kernel[T, C]
	counters  hypo.BatchCounters
	scenarios atomic.Int64 // evaluations run under e.mu.RLock, concurrently
}

func newSemState[T any, C provenance.Carrier[T]](cr C, s *provenance.Set) (*semState[T, C], error) {
	k, err := provenance.CompileSet[T, C](cr, s)
	if err != nil {
		return nil, err
	}
	return &semState[T, C]{kernel: k}, nil
}

// newSemRuntime compiles the active set into the named carrier. Compilation
// fails when the provenance has coefficients the carrier rejects (e.g. a
// fractional multiplicity under counting).
func newSemRuntime(kind semiring.Kind, s *provenance.Set) (semRuntime, error) {
	switch kind {
	case semiring.KindBool:
		return newSemState[bool](semiring.Boolean{}, s)
	case semiring.KindCount:
		return newSemState[int64](semiring.Counting{}, s)
	case semiring.KindTropical:
		return newSemState[float64](semiring.Tropical{}, s)
	case semiring.KindMinMax:
		return newSemState[float64](semiring.MinMax{}, s)
	}
	return nil, fmt.Errorf("session: no evaluation runtime for semiring %q", kind)
}

func (st *semState[T, C]) batchOptions(e *Engine) hypo.BatchOptions {
	return hypo.BatchOptions{Workers: e.workers, DeltaCutoff: e.deltaCutoff, Counters: &st.counters}
}

func (st *semState[T, C]) answers(e *Engine, scs []*hypo.Scenario) ([][]hypo.ValueAnswer, error) {
	rows, err := hypo.AnswersBatch(st.kernel, scs, st.batchOptions(e))
	if err != nil {
		return nil, err
	}
	out := make([][]hypo.ValueAnswer, len(rows))
	for i, row := range rows {
		out[i] = hypo.Erase(row)
	}
	st.scenarios.Add(int64(len(scs)))
	return out, nil
}

// raw evaluates one error-isolating chained micro-batch on this carrier's
// kernel; cs carries the chain across micro-batches. Callers hold e.mu.
func (st *semState[T, C]) raw(e *Engine, base int, scs []*hypo.Scenario, cs *hypo.ChainState) rawBatch[T] {
	opts := st.batchOptions(e)
	opts.Chain = true
	opts.ChainState = cs
	b, evaluated := evalRawBatch(st.kernel, opts, base, scs)
	st.scenarios.Add(evaluated)
	e.observeStreamBatch(len(scs))
	return b
}

func (st *semState[T, C]) evalStreamBatch(e *Engine, base int, scs []*hypo.Scenario, cs *hypo.ChainState) []ValueStreamResult {
	return st.raw(e, base, scs, cs).erase(base)
}

// query sweeps the plan on this carrier's kernel. The receiver only fixes
// the carrier: each micro-batch looks the runtime up again, since an Add
// may drop it and a Compress replace it between batches.
func (st *semState[T, C]) query(ctx context.Context, e *Engine, p *scenql.Plan, emit func(QueryRow) bool) ([]QueryRow, error) {
	return sweep(ctx, e, p, func(base int, scs []*hypo.Scenario, cs *hypo.ChainState) rawBatch[T] {
		e.mu.RLock()
		defer e.mu.RUnlock()
		rt, err := e.runtimeLocked(p.Kind)
		if err != nil {
			return failedBatch[T](err, len(scs))
		}
		return rt.(*semState[T, C]).raw(e, base, scs, cs)
	}, emit)
}

func (st *semState[T, C]) mirror(tag string, p *provenance.Polynomial) bool {
	return st.kernel.Append([]*provenance.Polynomial{p}, []string{tag})
}

func (st *semState[T, C]) describe() kernelDesc {
	return kernelDesc{
		polys: st.kernel.Len(), terms: st.kernel.Size(),
		chainable:     st.kernel.Carrier().Chainable(),
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
		DeltaNsPerTerm: st.counters.DeltaNsPerTerm(),
		FullNsPerTerm:  st.counters.FullNsPerTerm(),
		AdaptiveCutoff: st.counters.AdaptiveCutoff(),
	}
}

// runtimeLocked returns (building if needed) the evaluation runtime for a
// non-float kind against the current active set. Callers hold e.mu (read or
// write).
func (e *Engine) runtimeLocked(kind semiring.Kind) (semRuntime, error) {
	e.semMu.Lock()
	defer e.semMu.Unlock()
	if rt, ok := e.sems[kind]; ok {
		return rt, nil
	}
	rt, err := newSemRuntime(kind, e.active)
	if err != nil {
		return nil, err
	}
	if e.sems == nil {
		e.sems = map[semiring.Kind]semRuntime{}
	}
	e.sems[kind] = rt
	return rt, nil
}

// mirrorAddLocked incrementally appends the polynomial just added to the
// active set into every live semiring kernel, dropping any whose in-place
// Append declined (the next use recompiles, surfacing conversion errors
// there). Callers hold e.mu exclusively.
func (e *Engine) mirrorAddLocked(tag string, p *provenance.Polynomial) {
	e.semMu.Lock()
	defer e.semMu.Unlock()
	for k, rt := range e.sems {
		if !rt.mirror(tag, p) {
			delete(e.sems, k)
		}
	}
}

// dropRuntimesLocked discards every semiring kernel; used when the active
// set is replaced wholesale (Compress). Callers hold e.mu exclusively.
func (e *Engine) dropRuntimesLocked() {
	e.semMu.Lock()
	defer e.semMu.Unlock()
	e.sems = nil
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

// WhatIfIn answers a single scenario in the named semiring. KindFloat is
// the plain WhatIf path with the answers carrier-erased; other kinds
// evaluate on that carrier's own kernel, compiled from the active set on
// first use and extended in place by Add like the float one.
func (e *Engine) WhatIfIn(kind semiring.Kind, sc *hypo.Scenario) ([]hypo.ValueAnswer, error) {
	rows, err := e.whatIfBatchIn(kind, []*hypo.Scenario{sc})
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// WhatIfBatchIn answers many scenarios in parallel in the named semiring.
func (e *Engine) WhatIfBatchIn(kind semiring.Kind, scs []*hypo.Scenario) ([][]hypo.ValueAnswer, error) {
	rows, err := e.whatIfBatchIn(kind, scs)
	if err != nil {
		return nil, err
	}
	e.batches.Add(1)
	return rows, nil
}

func (e *Engine) whatIfBatchIn(kind semiring.Kind, scs []*hypo.Scenario) ([][]hypo.ValueAnswer, error) {
	if kind == semiring.KindFloat || kind == "" {
		rows, err := e.answers(scs)
		if err != nil {
			return nil, err
		}
		out := make([][]hypo.ValueAnswer, len(rows))
		for i, row := range rows {
			out[i] = hypo.Erase(row)
		}
		return out, nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	rt, err := e.runtimeLocked(kind)
	if err != nil {
		return nil, err
	}
	return rt.answers(e, scs)
}
