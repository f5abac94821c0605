// Package session implements the library's session-oriented Engine: one
// long-lived object owning a provenance set, an abstraction forest, the
// chosen compression, and the compiled kernel scenarios evaluate (the
// active set's own storage). The paper's workload is exactly this shape —
// compress once, then answer a stream of hypothetical scenarios — and the
// Engine makes the compile-once/evaluate-many lifecycle a property of the
// API instead of a discipline every caller re-implements.
//
// Lifecycle:
//
//	e, _ := session.Open(set, forest)
//	comp, _ := e.Compress(B, session.WithStrategy(session.StrategyGreedy))
//	answers, _ := e.WhatIf(scenario)        // evaluates the abstracted set
//	rows, _ := e.WhatIfBatch(scenarios)     // one cached compile, parallel eval
//	for r := range e.Stream(ctx, in) { … }  // streaming ingestion
//
// All methods are safe for concurrent use: evaluation paths share a read
// lock, Compress and Add take it exclusively. Adding provenance after
// compression re-abstracts the new polynomial under the selected
// substitution and appends it to the cached compiled form in place, so the
// next evaluation sees it without re-running selection or recompiling.
// One caveat follows from that: the *provenance.Compiled returned by
// Engine.Compiled is the live cache, extended in place by Add under the
// engine's lock — callers that evaluate it directly (outside the Engine's
// methods) must not do so concurrently with Add; use Active().Compile()
// for a frozen snapshot.
package session

import (
	"fmt"
	"sync"
	"sync/atomic"

	"provabs/internal/abstree"
	"provabs/internal/core"
	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/semiring"
)

// Engine is a hypothetical-reasoning session over one provenance set.
type Engine struct {
	mu          sync.RWMutex
	set         *provenance.Set   // source provenance (grows via Add)
	forest      *abstree.Forest   // may be nil: evaluation-only session
	comp        *core.Compression // last Compress outcome; nil before Compress
	active      *provenance.Set   // what scenarios evaluate: comp.Abstracted or set
	workers     int
	deltaCutoff float64 // delta-vs-full density cutoff (0 = hypo default)
	streamBuf   int     // Stream output-channel capacity (0 = batch size, <0 = unbuffered)
	streamBatch int     // micro-batch cap for Stream (0 = defaultStreamBatch)

	semMu sync.Mutex                   // guards sems; taken after e.mu
	sems  map[semiring.Kind]semRuntime // non-float kernels, lazily built

	floatBase baseSlot[float64, provenance.Float] // the float kernel's baseline

	lastCompiled   atomic.Pointer[provenance.Compiled]
	compiles       atomic.Int64
	scenarios      atomic.Int64
	batches        atomic.Int64
	queries        atomic.Int64
	added          atomic.Int64
	counters       hypo.BatchCounters // delta/full/sharded evaluation accounting
	streamBatches  atomic.Int64
	streamMaxBatch atomic.Int64
}

// Open starts a session over the set. forest may be nil for an
// evaluation-only session (Compress then errors). A non-nil forest is
// validated against the set up front, so scenario streams never trip over
// an incompatible abstraction mid-session. The check reads the set's
// kernel, the set's own storage.
func Open(set *provenance.Set, forest *abstree.Forest, opts ...Option) (*Engine, error) {
	if set == nil {
		return nil, fmt.Errorf("session: Open needs a provenance set")
	}
	if forest != nil {
		if err := forest.CompatibleWith(set); err != nil {
			return nil, err
		}
	}
	e := &Engine{set: set, forest: forest, active: set}
	for _, o := range opts {
		o(e)
	}
	return e, nil
}

// Compress selects an abstraction for bound B with the configured strategy
// (StrategyAuto by default: optimal for a single tree, greedy for a forest)
// and switches the session's evaluation target to the abstracted set,
// whose kernel the next evaluation reads. The source set's inverted index
// and baseline, if an evaluation built them, are dropped: the session
// never evaluates the source again, and its Adds patch nothing there.
func (e *Engine) Compress(B int, opts ...CompressOption) (*core.Compression, error) {
	cfg := defaultCompressConfig()
	for _, o := range opts {
		o(&cfg)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.forest == nil {
		return nil, fmt.Errorf("session: engine was opened without an abstraction forest; Compress needs one")
	}
	c, err := cfg.compressor(e.forest.Len())
	if err != nil {
		return nil, err
	}
	comp, err := c.Compress(e.set, e.forest, B)
	if err != nil {
		return nil, err
	}
	e.comp = comp
	e.active = comp.Abstracted
	e.set.Compiled().DropIndex() // only the active set is evaluated from here on
	e.floatBase.p.Store(nil)     // the old kernel's baseline dies with it
	e.dropRuntimesLocked()       // semiring kernels compiled the old active set
	return comp, nil
}

// Add appends a polynomial to the session's provenance. When a compression
// is active the polynomial is abstracted under the selected substitution
// and appended to the abstracted set too, so evaluation stays consistent
// with selection without re-running it. The active set's kernel is
// extended in place (Compiled.Append patches the flat arrays, the inverted
// index and the baseline), so an Add-heavy session never recompiles —
// Stats().Compiles stays constant across Add+WhatIf loops.
func (e *Engine) Add(tag string, p *provenance.Polynomial) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.set.Add(tag, p)
	active := p
	if e.comp != nil {
		ap := p
		if len(e.comp.Subst) > 0 {
			ap = p.Substitute(e.comp.Subst)
		}
		e.active.Add(tag, ap)
		active = ap
	}
	e.mirrorAddLocked(tag, active)
	e.added.Add(1)
}

// compiledLocked returns the active set's kernel, counting the kernels
// the session has evaluated for Stats. Callers hold e.mu (read or write).
func (e *Engine) compiledLocked() *provenance.Compiled {
	c := e.active.Compiled()
	if e.lastCompiled.Swap(c) != c {
		e.compiles.Add(1)
	}
	return c
}

// Compiled exposes the session's cached compiled provenance — the
// abstracted set after Compress, the source set before. The returned value
// is the live cache: a later Add extends it in place (under the engine's
// exclusive lock), so callers evaluating it directly must not race with
// Add — take Active().Compile() when a frozen snapshot is needed.
func (e *Engine) Compiled() *provenance.Compiled {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.compiledLocked()
}

// batchOptions assembles the evaluation tuning every path shares: the worker
// pool, the delta cutoff (the adaptive cost model by default — the engine's
// counters carry its state across calls), and the engine-owned counters.
func (e *Engine) batchOptions() hypo.BatchOptions {
	return hypo.BatchOptions{Workers: e.workers, DeltaCutoff: e.deltaCutoff, Counters: &e.counters}
}

// streamBatchOptions is batchOptions for Stream's micro-batches, which are
// additionally chained: consecutive scenarios of a stream tend to be
// correlated, so each is delta-evaluated against its overlap-ordered
// predecessor's answers whenever that diff is sparser than the scenario.
func (e *Engine) streamBatchOptions() hypo.BatchOptions {
	opts := e.batchOptions()
	opts.Chain = true
	return opts
}

// answers is the shared float evaluation path: cached compile, parallel
// eval, scenario accounting. It returns the raw answer vectors with the
// kernel's tags and baseline (captured under the lock, like the answers);
// WhatIf tags the vectors, WhatIfRow pairs them into rows. Batch
// accounting stays with the batch entry points so streamed and single
// evaluations do not inflate the batch counter.
func answers(e *Engine, scs []*hypo.Scenario) (rows [][]float64, tags []string, base *hypo.Baseline, err error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	c := e.compiledLocked()
	rows, err = hypo.EvalBatch(c, scs, e.batchOptions())
	if err != nil {
		return nil, nil, nil, err
	}
	e.scenarios.Add(int64(len(scs)))
	return rows, c.Tags, e.floatBase.of(c), nil
}

// WhatIf answers a single hypothetical scenario against the session's
// current provenance.
func (e *Engine) WhatIf(sc *hypo.Scenario) ([]hypo.Answer, error) {
	rows, tags, _, err := answers(e, []*hypo.Scenario{sc})
	if err != nil {
		return nil, err
	}
	return hypo.TagAnswers(tags, rows[0]), nil
}

// WhatIfBatch answers many scenarios in parallel on the session's worker
// pool, reusing the cached compiled provenance — no per-call compile.
func (e *Engine) WhatIfBatch(scs []*hypo.Scenario) ([][]hypo.Answer, error) {
	rows, tags, _, err := answers(e, scs)
	if err != nil {
		return nil, err
	}
	e.batches.Add(1)
	out := make([][]hypo.Answer, len(rows))
	for i, vals := range rows {
		out[i] = hypo.TagAnswers(tags, vals)
	}
	return out, nil
}

// Source returns the session's original provenance set.
func (e *Engine) Source() *provenance.Set {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.set
}

// Active returns the set scenarios currently evaluate against: the
// abstracted set after Compress, the source set before.
func (e *Engine) Active() *provenance.Set {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.active
}

// Forest returns the abstraction forest the session was opened with (nil
// for evaluation-only sessions).
func (e *Engine) Forest() *abstree.Forest { return e.forest }

// Compression returns the outcome of the last Compress, or nil before any.
func (e *Engine) Compression() *core.Compression {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.comp
}

// Stats is a point-in-time snapshot of a session, shaped for the /stats
// endpoint of the what-if server.
type Stats struct {
	Polynomials     int    `json:"polynomials"`
	Monomials       int    `json:"monomials"`
	Variables       int    `json:"variables"`
	SourceMonomials int    `json:"source_monomials"`
	Compressed      bool   `json:"compressed"`
	Strategy        string `json:"strategy,omitempty"`
	MonomialLoss    int    `json:"monomial_loss"`
	VariableLoss    int    `json:"variable_loss"`
	Adequate        bool   `json:"adequate"`
	Scenarios       int64  `json:"scenarios_evaluated"`
	Batches         int64  `json:"batches"` // WhatIfBatch calls; singles/streams count in Scenarios only
	Queries         int64  `json:"queries"` // ScenQL statements run (Query/QueryStream, EXPLAIN included)
	Compiles        int64  `json:"compiles"`
	Added           int64  `json:"added_polynomials"`
	DeltaEvals      int64  `json:"delta_evals"`      // scenarios answered via the identity-baseline delta path
	ChainedEvals    int64  `json:"chained_evals"`    // scenarios answered via a delta against the previous scenario
	FullEvals       int64  `json:"full_evals"`       // scenarios answered by full re-evaluation
	ShardedEvals    int64  `json:"sharded_evals"`    // scenarios split across goroutines
	RankedEvals     int64  `json:"ranked_evals"`     // scenarios answered on their ScenQL ORDER BY polynomial alone
	StreamBatches   int64  `json:"stream_batches"`   // micro-batches evaluated by Stream
	StreamMaxBatch  int64  `json:"stream_max_batch"` // largest Stream micro-batch so far

	// Adaptive routing model (the learned replacement for a static delta
	// cutoff): observed ns per term on each path and the affected-term
	// fraction where they currently cross. Zero until both paths have been
	// observed; see hypo.BatchCounters.
	DeltaNsPerTerm float64 `json:"delta_ns_per_term,omitempty"`
	FullNsPerTerm  float64 `json:"full_ns_per_term,omitempty"`
	AdaptiveCutoff float64 `json:"adaptive_cutoff,omitempty"`

	// Semirings breaks the evaluation accounting down per non-float carrier
	// (keyed by semiring.Kind wire name). Absent until a non-float what-if
	// runs — the float default stays in the top-level fields, so float-only
	// sessions serialize exactly as before.
	Semirings map[string]SemiringStats `json:"semirings,omitempty"`
}

// Accumulate adds o's sizes and counters into s, so a multi-session
// registry can report one aggregate across engines. Numeric fields sum;
// StreamMaxBatch and the cost-model estimates take the maximum (per-term
// costs are per-session estimates — summing them would be meaningless, the
// maximum is the conservative aggregate); the qualitative per-session
// fields (Compressed, Strategy, Adequate, the loss figures) describe one
// compression outcome and are deliberately left alone — they do not
// aggregate meaningfully.
func (s *Stats) Accumulate(o Stats) {
	s.Polynomials += o.Polynomials
	s.Monomials += o.Monomials
	s.Variables += o.Variables
	s.SourceMonomials += o.SourceMonomials
	s.Scenarios += o.Scenarios
	s.Batches += o.Batches
	s.Queries += o.Queries
	s.Compiles += o.Compiles
	s.Added += o.Added
	s.DeltaEvals += o.DeltaEvals
	s.ChainedEvals += o.ChainedEvals
	s.FullEvals += o.FullEvals
	s.ShardedEvals += o.ShardedEvals
	s.RankedEvals += o.RankedEvals
	s.StreamBatches += o.StreamBatches
	if o.StreamMaxBatch > s.StreamMaxBatch {
		s.StreamMaxBatch = o.StreamMaxBatch
	}
	if o.DeltaNsPerTerm > s.DeltaNsPerTerm {
		s.DeltaNsPerTerm = o.DeltaNsPerTerm
	}
	if o.FullNsPerTerm > s.FullNsPerTerm {
		s.FullNsPerTerm = o.FullNsPerTerm
	}
	if o.AdaptiveCutoff > s.AdaptiveCutoff {
		s.AdaptiveCutoff = o.AdaptiveCutoff
	}
	if len(o.Semirings) > 0 {
		if s.Semirings == nil {
			s.Semirings = make(map[string]SemiringStats, len(o.Semirings))
		}
		for k, ss := range o.Semirings {
			cur := s.Semirings[k]
			cur.accumulate(ss)
			s.Semirings[k] = cur
		}
	}
}

// Stats reports the session's current shape and counters. Compiles counts
// actual compilations observed — a healthy steady state holds it constant
// across evaluations. Variables comes from the active set's memoized count
// (provenance.Set.VarCount), which Add extends and Compress replaces with
// the abstracted set's, so Stats walks no keys once it is built.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := Stats{
		Polynomials:     e.active.Len(),
		Monomials:       e.active.Size(),
		Variables:       e.active.VarCount(),
		SourceMonomials: e.set.Size(),
		Compressed:      e.comp != nil,
		Scenarios:       e.scenarios.Load(),
		Batches:         e.batches.Load(),
		Queries:         e.queries.Load(),
		Compiles:        e.compiles.Load(),
		Added:           e.added.Load(),
		DeltaEvals:      e.counters.DeltaEvals.Load(),
		ChainedEvals:    e.counters.ChainedEvals.Load(),
		FullEvals:       e.counters.FullEvals.Load(),
		ShardedEvals:    e.counters.ShardedEvals.Load(),
		RankedEvals:     e.counters.RankedEvals.Load(),
		StreamBatches:   e.streamBatches.Load(),
		StreamMaxBatch:  e.streamMaxBatch.Load(),
		DeltaNsPerTerm:  e.counters.DeltaNsPerTerm(),
		FullNsPerTerm:   e.counters.FullNsPerTerm(),
		AdaptiveCutoff:  e.counters.AdaptiveCutoff(),
		Semirings:       e.semStatsLocked(),
	}
	if e.comp != nil {
		st.Strategy = e.comp.Strategy
		st.MonomialLoss = e.comp.ML
		st.VariableLoss = e.comp.VL
		st.Adequate = e.comp.Adequate
	}
	return st
}
