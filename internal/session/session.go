// Package session implements the library's session-oriented Engine: one
// long-lived object owning a provenance set, an abstraction forest, the
// chosen compression, and one evaluation runtime per semiring carrier. The
// paper's workload is exactly this shape — compress once, then answer a
// stream of hypothetical scenarios — and the Engine makes the
// compile-once/evaluate-many lifecycle a property of the API instead of a
// discipline every caller re-implements.
//
// Lifecycle:
//
//	e, _ := session.Open(set, forest)
//	comp, _ := e.Compress(B, session.WithStrategy(session.StrategyGreedy))
//	answers, _ := e.WhatIf(scenario)        // evaluates the abstracted set
//	rows, _ := e.WhatIfBatch(scenarios)     // one cached compile, parallel eval
//	for r := range e.StreamIn(ctx, kind, in) { … } // streaming, any carrier
//
// Every carrier (semiring.Kind) evaluates through the same runtime: a
// kernel, its baseline, its routing counters and its scenario count. The
// float runtime's kernel is the active set's own storage; the others are
// compiled from the active set on first use (see semiring.go). Streams and
// ScenQL statements chain their micro-batches in every carrier.
//
// All methods are safe for concurrent use: evaluation paths share a read
// lock, Compress and Add take it exclusively. An add goes to the kernels'
// arrays without a map: its text is parsed into a one-polynomial kernel
// (AddText, ParseKernel), which after compression is re-abstracted under
// the selected substitution with the same array image/sort/merge the
// compression ran, and appended to the cached compiled form in place, so
// the next evaluation sees it without re-running selection or
// recompiling.
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
	streamBuf   int     // StreamIn output-channel capacity (0 = batch size, <0 = unbuffered)
	streamBatch int     // micro-batch cap for StreamIn (0 = defaultStreamBatch)

	float semState[float64, provenance.Float] // kernel: the active set's storage

	semMu sync.Mutex                   // guards sems; taken after e.mu
	sems  map[semiring.Kind]semRuntime // non-float runtimes; kernels built lazily

	subst provenance.Substitution // comp.Subst in dense form, for Adds
	parse provenance.PolyBuilder  // AddText's one-polynomial kernel; guarded by mu
	image provenance.PolyBuilder  // an add's image under subst; guarded by mu

	lastCompiled   atomic.Pointer[provenance.Compiled]
	compiles       atomic.Int64
	batches        atomic.Int64
	queries        atomic.Int64
	added          atomic.Int64
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
	e.float.kernel = set.Compiled()
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
	e.comp, e.subst = comp, provenance.DenseSubstitution(comp.Subst)
	e.active = comp.Abstracted
	e.set.Compiled().DropIndex() // only the active set is evaluated from here on
	e.float.drop()               // the old kernel's baseline dies with it
	e.float.kernel = e.active.Compiled()
	e.dropRuntimesLocked() // the other carriers compiled the old active set
	return comp, nil
}

// Add appends a polynomial to the session's provenance: AddKernel of its
// compiled form.
func (e *Engine) Add(tag string, p *provenance.Polynomial) { e.AddKernel(tag, p.Compile()) }

// AddKernel appends the polynomial of k, a one-polynomial kernel over the
// session's vocabulary (from ParseKernel or Polynomial.Compile), to the
// session's provenance. When a compression is active the polynomial is
// abstracted under the selected substitution and appended to the
// abstracted set too, so evaluation stays consistent with selection
// without re-running it. The active set's kernel is extended in place
// (Kernel.Append patches the flat arrays, the inverted index and the
// baseline), and so is every other carrier's live kernel, so an Add-heavy
// session never recompiles — Stats().Compiles stays constant across
// Add+WhatIf loops.
func (e *Engine) AddKernel(tag string, k *provenance.Compiled) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.addLocked(tag, k)
}

// AddText parses src, a polynomial in the set's text format, and appends
// it as AddKernel does, under one exclusive lock, through kernels the
// Engine reuses: an add line's whole engine cost, with no map and, once
// the Engine's scratch has grown, no allocation but what the set's arrays
// and new names need. A bad polynomial changes nothing but the
// vocabulary, which keeps the names interned before the error.
func (e *Engine) AddText(tag, src string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	k, err := e.parse.Parse(e.set.Vocab, src)
	if err != nil {
		return err
	}
	e.addLocked(tag, k)
	return nil
}

// addLocked appends k's polynomial to the source set, its image under the
// compression's substitution to the active set, and that image to every
// other carrier's live kernel. Callers hold e.mu exclusively.
func (e *Engine) addLocked(tag string, k *provenance.Compiled) {
	e.set.AddKernel(tag, k)
	active := k
	if e.comp != nil {
		if len(e.subst) > 0 {
			active = e.image.Substitute(k, e.subst)
		}
		e.active.AddKernel(tag, active)
	}
	e.mirrorAddLocked(tag, active)
	e.added.Add(1)
}

// compiledLocked returns the float runtime's kernel, the active set's own
// storage, counting the kernels the session has evaluated for Stats.
// Callers hold e.mu (read or write).
func (e *Engine) compiledLocked() *provenance.Compiled {
	c := e.float.kernel
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

// WhatIf answers a single hypothetical scenario against the session's
// current provenance: WhatIfRow in the float carrier, tagged.
func (e *Engine) WhatIf(sc *hypo.Scenario) ([]hypo.Answer, error) {
	row, err := e.WhatIfRow(semiring.KindFloat, sc)
	if err != nil {
		return nil, err
	}
	return hypo.TagAnswers(row.Tags, row.Values.([]float64)), nil
}

// WhatIfBatch answers many scenarios in parallel on the session's worker
// pool, reusing the cached compiled provenance — no per-call compile. It
// is WhatIfBatchIn in the float carrier, tagged.
func (e *Engine) WhatIfBatch(scs []*hypo.Scenario) ([][]hypo.Answer, error) {
	rows, err := e.whatIfRows(semiring.KindFloat, scs)
	if err != nil {
		return nil, err
	}
	e.batches.Add(1)
	out := make([][]hypo.Answer, len(rows))
	for i, row := range rows {
		out[i] = hypo.TagAnswers(row.Tags, row.Values.([]float64))
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
	StreamBatches   int64  `json:"stream_batches"`   // micro-batches evaluated by StreamIn and ScenQL
	StreamMaxBatch  int64  `json:"stream_max_batch"` // largest such micro-batch so far

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
	fs := e.float.stats()
	st := Stats{
		Polynomials:     e.active.Len(),
		Monomials:       e.active.Size(),
		Variables:       e.active.VarCount(),
		SourceMonomials: e.set.Size(),
		Compressed:      e.comp != nil,
		Scenarios:       fs.Scenarios,
		Batches:         e.batches.Load(),
		Queries:         e.queries.Load(),
		Compiles:        e.compiles.Load(),
		Added:           e.added.Load(),
		DeltaEvals:      fs.DeltaEvals,
		ChainedEvals:    fs.ChainedEvals,
		FullEvals:       fs.FullEvals,
		ShardedEvals:    fs.ShardedEvals,
		RankedEvals:     fs.RankedEvals,
		StreamBatches:   e.streamBatches.Load(),
		StreamMaxBatch:  e.streamMaxBatch.Load(),
		DeltaNsPerTerm:  fs.DeltaNsPerTerm,
		FullNsPerTerm:   fs.FullNsPerTerm,
		AdaptiveCutoff:  fs.AdaptiveCutoff,
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
