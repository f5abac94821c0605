package hypo

// This file implements batch scenario evaluation: many hypothetical
// scenarios against one compiled provenance set, spread over a worker pool.
// This is the interactive many-scenario workload the paper (and its COBRA
// companion) optimizes for — compress once, then answer a stream of
// what-ifs.
//
// The machinery is generic over the evaluation carrier (provenance.Carrier):
// the same routing, chaining and sharding answer float, boolean, counting,
// tropical and max-min scenarios. Scenario assignments stay float64 at the
// API surface and are parsed into the carrier by its Value hook during name
// resolution, so a fractional count or a NaN cost is reported before any
// evaluation starts.
//
// Three routing decisions happen per batch. Per scenario, the evaluator
// picks between the delta path (recompute only the polynomials the
// scenario's assignments can affect, copy cached answers for the rest — see
// provenance.EvalDelta) and full evaluation; the cutoff is either a static
// affected-term fraction (BatchOptions.DeltaCutoff > 0) or, by default, a
// tiny online cost model — EWMAs of the observed ns/term on each path,
// kept in BatchCounters — that learns where the crossover actually is on
// this machine and workload. Per scenario on a chained batch
// (BatchOptions.Chain), the delta base is chosen too: against the identity
// baseline, or against the previous scenario's answers when the symmetric
// difference of consecutive valuations is sparser than the scenario itself
// (correlated streams differ by a variable or two). Per batch, when there
// are fewer scenarios than workers, the spare cores move *inside* each
// scenario: the polynomial range (or the affected set) is sharded across
// the pool, so a single huge scenario no longer runs on one core.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"provabs/internal/provenance"
)

// DefaultDeltaCutoff is the affected-term density above which a scenario is
// evaluated in full rather than via the delta path while the adaptive cost
// model has no observations yet (and the static fraction used when
// adaptivity is unavailable): at half the terms, the saved multiplies still
// comfortably dominate the baseline copy.
const DefaultDeltaCutoff = 0.5

// shardMinTerms is the smallest amount of recomputation worth splitting
// across goroutines; below it, spawn-and-join overhead dominates.
const shardMinTerms = 2048

// ShardMinTerms exports the sharding floor so planners (ScenQL EXPLAIN)
// can predict whether a full evaluation would shard.
const ShardMinTerms = shardMinTerms

// probeInterval is the adaptive cost model's exploration cadence once the
// model is complete (both per-term estimates observed): every
// probeInterval-th routed scenario runs the path the model did *not* pick,
// so neither EWMA goes stale. While the model is still incomplete it
// probes faster, at warmupProbeInterval, but only for the first
// warmupProbeCap routing decisions: a workload that has produced no
// observable sample for one path by then (a uniformly sparse stream never
// yields a delta timing worth folding in, see observeDivisor) will not
// start doing so, and probing it forever would force a pointless full
// evaluation of the whole set every 37th scenario — the model instead
// settles on the bootstrap static cutoff at zero ongoing cost, completing
// later only if the workload shifts. Both intervals are prime so the
// cadence cannot alias with a periodically structured batch (with an even
// interval, an alternating sparse/dense workload would have every probe
// land on the same kind of scenario).
const probeInterval = 257
const warmupProbeInterval = 37
const warmupProbeCap = 8 * warmupProbeInterval

// timeSample thins the model's clock reads: one in timeSample evaluations
// is timed (probes always are), so sub-microsecond evaluations do not pay
// two time.Now calls each.
const timeSample = 8

// observeDivisor sets the floor below which a delta evaluation is too small
// to inform the per-term estimate: only evals recomputing at least
// Size/observeDivisor terms are observed. Tiny affected sets are dominated
// by the fixed baseline copy and index walk, and folding their inflated
// ns/term into the EWMA would talk the model out of the delta path exactly
// where it matters — on mid-density scenarios.
const observeDivisor = 16

// ewmaAlpha weights a new ns/term observation into the running estimate.
const ewmaAlpha = 0.25

// maxChainOrder bounds the greedy overlap ordering, which is quadratic in
// the batch size; larger chained batches keep arrival order.
const maxChainOrder = 128

// BatchOptions tunes EvalBatch. The zero value is ready to use.
type BatchOptions struct {
	// Workers is the size of the worker pool; 0 or negative means
	// GOMAXPROCS. A single worker evaluates sequentially (useful for
	// deterministic profiling). With fewer scenarios than workers, the pool
	// turns inward and shards each scenario's polynomial range instead.
	Workers int

	// DeltaCutoff routes scenarios between delta and full evaluation. A
	// positive value is a static fraction: a scenario takes the delta path
	// when the polynomials its assignments affect own at most this fraction
	// of the set's terms. 0 selects the adaptive cost model (per-scenario
	// routing from the observed ns/term of each path, bootstrapped at
	// DefaultDeltaCutoff; requires Counters, which hold the model's state —
	// without them 0 behaves like the static default). Negative disables
	// the delta path entirely.
	DeltaCutoff float64

	// Chain evaluates the batch as a correlated stream: scenarios are
	// greedily reordered by assignment overlap (answers still come back in
	// input order) and each one may be delta-evaluated against the previous
	// scenario's answers instead of the identity baseline, whenever the
	// valuation diff is sparser than the scenario itself. Chaining is exact
	// in every carrier: a chained delta recomputes each affected polynomial
	// whole. The session Engine sets this for every stream and statement
	// micro-batch.
	Chain bool

	// ChainState, when non-nil on a chained batch, carries the chain across
	// calls: the last evaluated scenario of this batch seeds the first
	// scenario of the next batch handed the same ChainState, so a scenario
	// stream's micro-batch boundaries stop costing an identity-baseline
	// delta each. The state is owned by one serial caller (Engine.StreamIn
	// keeps one per stream); it must not be shared across concurrent
	// batches, and Release must be called when the stream ends.
	ChainState *ChainState

	// Counters, when non-nil, accumulates per-evaluation accounting across
	// calls (the session Engine surfaces them via Stats) and carries the
	// adaptive cost model's state.
	Counters *BatchCounters
}

// ChainState is the persistent chain seed of one scenario stream: the
// evaluator state (valuation, previous assignments and answers, pooled
// delta scratch) that survives from one chained batch to the next. The zero
// value is ready; see BatchOptions.ChainState for the ownership contract.
type ChainState struct {
	state any // the previous batch's *evalState[T, C], adopted if compatible
}

// Release returns the pooled scratch held by the state. The ChainState is
// reusable afterwards (the next batch reseeds it from scratch).
func (cs *ChainState) Release() {
	if st, ok := cs.state.(interface{ release() }); ok {
		st.release()
	}
	cs.state = nil
}

// ewma is an atomic exponentially weighted moving average; the zero value
// is "no observations yet" (Load returns 0).
type ewma struct{ bits atomic.Uint64 }

func (e *ewma) Load() float64 {
	return math.Float64frombits(e.bits.Load())
}

// Observe folds one sample into the average (the first sample seeds it).
func (e *ewma) Observe(x float64) {
	for {
		old := e.bits.Load()
		next := x
		if old != 0 {
			cur := math.Float64frombits(old)
			next = cur + ewmaAlpha*(x-cur)
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// BatchCounters counts how scenarios were evaluated and carries the
// adaptive routing model. All fields are safe for concurrent use and
// accumulate across batches; a session Engine owns one per carrier for its
// lifetime, so float timings never poison the routing of a boolean or
// tropical stream.
type BatchCounters struct {
	DeltaEvals   atomic.Int64 // scenarios answered via the identity-baseline delta path
	ChainedEvals atomic.Int64 // scenarios answered via a delta against the previous scenario's answers
	FullEvals    atomic.Int64 // scenarios answered by full re-evaluation
	ShardedEvals atomic.Int64 // scenarios whose evaluation was split across goroutines
	RankedEvals  atomic.Int64 // scenarios answered on one polynomial only, by EvalPolyEach

	deltaNsPerTerm ewma         // observed cost of recomputing one affected term
	fullNsPerTerm  ewma         // observed cost of one term on the full path
	routed         atomic.Int64 // adaptive routing decisions, drives probing
}

// DeltaNsPerTerm reports the adaptive model's current estimate of the cost
// of one recomputed term on the delta path (0 before any observation).
func (bc *BatchCounters) DeltaNsPerTerm() float64 { return bc.deltaNsPerTerm.Load() }

// FullNsPerTerm reports the estimated cost of one term on the full path
// (0 before any observation).
func (bc *BatchCounters) FullNsPerTerm() float64 { return bc.fullNsPerTerm.Load() }

// AdaptiveCutoff reports the affected-term fraction at which the model
// currently estimates delta and full evaluation to cost the same — the
// learned replacement for the static DeltaCutoff. 0 means the model has
// not yet observed both paths.
func (bc *BatchCounters) AdaptiveCutoff() float64 {
	d, f := bc.deltaNsPerTerm.Load(), bc.fullNsPerTerm.Load()
	if d <= 0 || f <= 0 {
		return 0
	}
	return f / d
}

// resolvedScenario is a scenario with names resolved to Vars and values
// parsed into the carrier: the dense valuation writes a worker performs
// before evaluating.
type resolvedScenario[T any] struct {
	vars []provenance.Var
	vals []T
}

// resolver maps scenario names through the vocabulary and assignments
// through the carrier, flattening every scenario's pairs into two shared
// backing arrays so a large batch costs two allocations instead of two per
// scenario.
type resolver[T any, C provenance.Carrier[T]] struct {
	cr   C
	vb   *provenance.Vocab
	vars []provenance.Var
	vals []T
}

func newResolver[T any, C provenance.Carrier[T]](cr C, vb *provenance.Vocab, scenarios []*Scenario) resolver[T, C] {
	total := 0
	for _, sc := range scenarios {
		total += len(sc.Assign)
	}
	return resolver[T, C]{
		cr:   cr,
		vb:   vb,
		vars: make([]provenance.Var, 0, total),
		vals: make([]T, 0, total),
	}
}

// one resolves a single scenario into the shared backing, returning the
// dense-writable form plus the sorted list of names that did not resolve
// and any assignment the carrier rejected (partial entries are rolled back
// on either failure; unknown names win when both occur). The backing never
// reallocates — capacity was reserved for every assignment up front — so
// earlier scenarios' slices stay valid.
func (r *resolver[T, C]) one(sc *Scenario) (resolvedScenario[T], []string, *BadAssignmentError) {
	v0 := len(r.vars)
	var unknown []string
	var bad *BadAssignmentError
	for name, x := range sc.Assign {
		v, ok := r.vb.Lookup(name)
		if !ok {
			unknown = append(unknown, name)
			continue
		}
		xt, err := r.cr.Value(x)
		if err != nil {
			if bad == nil {
				bad = &BadAssignmentError{Name: name, Err: err}
			}
			continue
		}
		r.vars = append(r.vars, v)
		r.vals = append(r.vals, xt)
	}
	if len(unknown) != 0 || bad != nil {
		r.vars, r.vals = r.vars[:v0], r.vals[:v0]
		sort.Strings(unknown)
		return resolvedScenario[T]{}, unknown, bad
	}
	n := len(r.vars)
	return resolvedScenario[T]{vars: r.vars[v0:n:n], vals: r.vals[v0:n:n]}, nil, nil
}

// resolve maps every scenario's names through the vocabulary up front, so
// workers never touch the Vocab (it is not synchronized) and name typos or
// carrier-rejected values are reported — with the scenario's index — before
// any evaluation starts.
func resolve[T any, C provenance.Carrier[T]](cr C, vb *provenance.Vocab, scenarios []*Scenario) ([]resolvedScenario[T], error) {
	r := newResolver[T, C](cr, vb, scenarios)
	out := make([]resolvedScenario[T], len(scenarios))
	for i, sc := range scenarios {
		rs, unknown, bad := r.one(sc)
		if len(unknown) != 0 {
			return nil, ErrUnknownVars(i, unknown)
		}
		if bad != nil {
			bad.Scenario = i
			return nil, bad
		}
		out[i] = rs
	}
	return out, nil
}

// UnknownVarsError reports the names a scenario assigned that are missing
// from the vocabulary.
type UnknownVarsError struct {
	Scenario int      // batch position, or arrival index on a stream
	Names    []string // sorted unresolved names
}

func (e *UnknownVarsError) Error() string {
	quoted := make([]string, len(e.Names))
	for j, name := range e.Names {
		quoted[j] = fmt.Sprintf("%q", name)
	}
	noun := "variable"
	if len(e.Names) > 1 {
		noun = "variables"
	}
	return fmt.Sprintf("hypo: scenario %d assigns unknown %s %s", e.Scenario, noun, strings.Join(quoted, ", "))
}

// ErrUnknownVars builds the *UnknownVarsError for scenario i.
func ErrUnknownVars(i int, unknown []string) error {
	return &UnknownVarsError{Scenario: i, Names: unknown}
}

// BadAssignmentError reports a scenario assignment the evaluation carrier
// rejected — a fractional or negative count, a NaN cost, a probability
// outside [0,1].
type BadAssignmentError struct {
	Scenario int    // batch position, or arrival index on a stream
	Name     string // the offending variable
	Err      error  // the carrier's reason
}

func (e *BadAssignmentError) Error() string {
	return fmt.Sprintf("hypo: scenario %d assigns %q: %v", e.Scenario, e.Name, e.Err)
}

func (e *BadAssignmentError) Unwrap() error { return e.Err }

// UnknownVars returns the names the scenario assigns that are missing from
// the vocabulary, sorted. An empty result means the scenario resolves.
func (sc *Scenario) UnknownVars(vb *provenance.Vocab) []string {
	r := newResolver[float64, provenance.Float](provenance.Float{}, vb, []*Scenario{sc})
	_, unknown, _ := r.one(sc)
	return unknown
}

// pairSorter orders a resolved scenario's parallel var/val slices by Var,
// the precondition of the merge-based diff below. One instance is reused
// across a batch so sort.Sort sees the same pointer every call.
type pairSorter[T any] struct {
	vars []provenance.Var
	vals []T
}

func (p *pairSorter[T]) Len() int           { return len(p.vars) }
func (p *pairSorter[T]) Less(i, j int) bool { return p.vars[i] < p.vars[j] }
func (p *pairSorter[T]) Swap(i, j int) {
	p.vars[i], p.vars[j] = p.vars[j], p.vars[i]
	p.vals[i], p.vals[j] = p.vals[j], p.vals[i]
}

// sortPairs sorts one scenario's assignment pairs by Var: inline insertion
// sort for the typical sparse scenario (no interface-call overhead on the
// stream hot path), sort.Sort for wide ones.
func sortPairs[T any](ps *pairSorter[T], vars []provenance.Var, vals []T) {
	if len(vars) > 32 {
		ps.vars, ps.vals = vars, vals
		sort.Sort(ps)
		return
	}
	for i := 1; i < len(vars); i++ {
		v, x := vars[i], vals[i]
		j := i - 1
		for j >= 0 && vars[j] > v {
			vars[j+1], vals[j+1] = vars[j], vals[j]
			j--
		}
		vars[j+1], vals[j+1] = v, x
	}
}

// symDiff appends to out the symmetric difference of two sorted assignment
// lists: the variables whose effective value (identity One when unassigned)
// differs between them. Consecutive scenarios of a correlated stream have
// tiny diffs even when each assigns many variables.
func symDiff[T any, C provenance.Carrier[T]](cr C, aV []provenance.Var, aX []T, bV []provenance.Var, bX []T, out []provenance.Var) []provenance.Var {
	one := cr.One()
	i, j := 0, 0
	for i < len(aV) && j < len(bV) {
		switch {
		case aV[i] < bV[j]:
			if !cr.Equal(aX[i], one) {
				out = append(out, aV[i])
			}
			i++
		case aV[i] > bV[j]:
			if !cr.Equal(bX[j], one) {
				out = append(out, bV[j])
			}
			j++
		default:
			if !cr.Equal(aX[i], bX[j]) {
				out = append(out, aV[i])
			}
			i++
			j++
		}
	}
	for ; i < len(aV); i++ {
		if !cr.Equal(aX[i], one) {
			out = append(out, aV[i])
		}
	}
	for ; j < len(bV); j++ {
		if !cr.Equal(bX[j], one) {
			out = append(out, bV[j])
		}
	}
	return out
}

// chainOrder greedily orders a chained batch by assignment overlap: start
// at the first arrival, repeatedly pick the unvisited scenario with the
// smallest symmetric difference from the current one. Results are still
// emitted in input order; only evaluation follows the chain. The search is
// quadratic in the batch size, so it is skipped — arrival order chains
// as-is, which on a correlated stream is already near-optimal — past
// maxChainOrder scenarios, on sets too small for the reordering gain to
// repay the search (the caller gates on set size), and when arrival order
// is already the chain the search would find (isChain), as a ScenQL snake
// grid's is.
func chainOrder[T any, C provenance.Carrier[T]](cr C, resolved []resolvedScenario[T], search bool) []int {
	n := len(resolved)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if !search || n > maxChainOrder || isChain(cr, resolved) {
		return order
	}
	return chainSearch(cr, resolved, order)
}

// chainSearch is chainOrder's greedy search, written into order.
func chainSearch[T any, C provenance.Carrier[T]](cr C, resolved []resolvedScenario[T], order []int) []int {
	n := len(resolved)
	used := make([]bool, n)
	used[0], order[0] = true, 0
	cur := 0
	var scratch []provenance.Var // reused symDiff output: its length is the metric
	for k := 1; k < n; k++ {
		best, bestDiff := -1, math.MaxInt
		for j := range resolved {
			if used[j] {
				continue
			}
			a, b := resolved[cur], resolved[j]
			scratch = symDiff(cr, a.vars, a.vals, b.vars, b.vals, scratch[:0])
			if d := len(scratch); d < bestDiff {
				best, bestDiff = j, d
			}
		}
		used[best] = true
		order[k] = best
		cur = best
	}
	return order
}

// isChain reports whether arrival order is the order chainOrder's search
// returns, in O(n log n) instead of its O(n²): when consecutive scenarios
// differ in at most one variable and no two scenarios are equal (so every
// pair differs in at least one), the search's pick at each step is the
// next arrival, the first unvisited scenario at the least difference. A
// scenario is hashed by its assignments that differ from One; equal
// scenarios hash equal, and a collision only sends the batch to the
// search.
func isChain[T any, C provenance.Carrier[T]](cr C, resolved []resolvedScenario[T]) bool {
	var scratch []provenance.Var
	for i := 1; i < len(resolved); i++ {
		a, b := resolved[i-1], resolved[i]
		if scratch = symDiff(cr, a.vars, a.vals, b.vars, b.vals, scratch[:0]); len(scratch) > 1 {
			return false
		}
	}
	one := cr.One()
	hashes := make([]uint64, len(resolved))
	for i, rs := range resolved {
		h := uint64(14695981039346656037) // FNV-1a over (var, value bits) pairs
		for j, v := range rs.vars {
			if !cr.Equal(rs.vals[j], one) {
				h = (h ^ uint64(v)) * 1099511628211
				h = (h ^ valueBits(rs.vals[j])) * 1099511628211
			}
		}
		hashes[i] = h
	}
	slices.Sort(hashes)
	for i := 1; i < len(hashes); i++ {
		if hashes[i] == hashes[i-1] {
			return false
		}
	}
	return true
}

// valueBits returns bits that two values equal under their carrier's
// Equal share: the carriers' Equal is ==, so a float's bits (both zeros
// as one), a count, a boolean. Any other value reads as 0, so that such
// scenarios collide and go to the search.
func valueBits[T any](x T) uint64 {
	switch v := any(x).(type) {
	case float64:
		if v == 0 {
			return 0
		}
		return math.Float64bits(v)
	case int64:
		return uint64(v)
	case bool:
		if v {
			return 1
		}
	}
	return 0
}

// routingConfig resolves the delta-vs-full routing parameters from the
// options against the set's current size (recomputed when persistent chain
// state re-targets a grown set).
func routingConfig(size int, opts BatchOptions) (threshold int, adaptive bool) {
	cutoff := opts.DeltaCutoff
	if cutoff == 0 {
		cutoff = DefaultDeltaCutoff
		adaptive = opts.Counters != nil
	}
	threshold = -1
	if cutoff > 0 {
		threshold = int(cutoff * float64(size))
	}
	return threshold, adaptive
}

// evalState is one worker's reusable evaluation machinery: a dense valuation
// maintained between scenarios, delta scratch, the routing configuration,
// and — on chained batches — the previous scenario's assignments and
// answers.
type evalState[T any, C provenance.Carrier[T]] struct {
	c               *provenance.Kernel[T, C]
	one             T
	val             []T
	delta           *provenance.DeltaKernel[T, C]
	staticThreshold int // affected terms above this take the full path; -1 disables delta
	adaptive        bool
	chain           bool
	shard           int // split evaluation across this many goroutines when > 1
	counters        *BatchCounters

	evals    int // evaluations by this state, for clock-read thinning
	hasPrev  bool
	prevVars []provenance.Var
	prevVals []T
	prevOut  []T
	diff     []provenance.Var // scratch for the consecutive-valuation diff
}

func newEvalState[T any, C provenance.Carrier[T]](c *provenance.Kernel[T, C], opts BatchOptions, shard int) *evalState[T, C] {
	threshold, adaptive := routingConfig(c.Size(), opts)
	st := &evalState[T, C]{
		c:               c,
		one:             c.Carrier().One(),
		val:             c.NewValuation(),
		staticThreshold: threshold,
		adaptive:        adaptive,
		chain:           opts.Chain,
		shard:           shard,
		counters:        opts.Counters,
	}
	if threshold >= 0 {
		st.delta = c.GetDeltaEval() // pooled: released again in release()
	}
	return st
}

// adopt re-targets persistent chain state (BatchOptions.ChainState) at the
// start of a new micro-batch: the routing parameters are refreshed against
// the set's current size, the valuation grows if Append raised the
// vocabulary, and the chain seed is dropped — falling back to the identity
// baseline for the first scenario — when the set gained polynomials the
// previous answers do not cover. Reports false (releasing the scratch) when
// the state belongs to a different kernel and cannot be reused.
func (st *evalState[T, C]) adopt(c *provenance.Kernel[T, C], opts BatchOptions, shard int) bool {
	if st.c != c {
		st.release()
		return false
	}
	threshold, adaptive := routingConfig(c.Size(), opts)
	st.staticThreshold = threshold
	st.adaptive = adaptive
	st.chain = true
	st.shard = shard
	st.counters = opts.Counters
	switch {
	case threshold >= 0 && st.delta == nil:
		st.delta = c.GetDeltaEval()
	case threshold < 0 && st.delta != nil:
		c.PutDeltaEval(st.delta)
		st.delta = nil
	}
	if n := c.ValuationLen(); len(st.val) < n {
		grown := make([]T, n)
		copy(grown, st.val)
		for i := len(st.val); i < n; i++ {
			grown[i] = st.one
		}
		st.val = grown
	}
	if st.hasPrev && len(st.prevOut) != c.Len() {
		st.hasPrev = false // the set grew: previous answers no longer cover it
	}
	return true
}

// release returns the pooled delta scratch; the state must not evaluate
// afterwards.
func (st *evalState[T, C]) release() {
	if st.delta != nil {
		st.c.PutDeltaEval(st.delta)
		st.delta = nil
	}
}

// threshold resolves the affected-term budget for the delta path: the
// static fraction, or the cost model's current crossover estimate once it
// has observed both paths.
func (st *evalState[T, C]) threshold() int {
	if !st.adaptive {
		return st.staticThreshold
	}
	cut := st.counters.AdaptiveCutoff()
	if cut == 0 {
		return st.staticThreshold // bootstrap until both paths are observed
	}
	if cut > 1 {
		cut = 1 // affected terms never exceed the set: 1 already means "always delta"
	}
	return int(cut * float64(st.c.Size()))
}

// eval applies one resolved scenario to the worker's valuation, routes it,
// and — on unchained batches — restores the identity so the valuation is
// clean for the next scenario. Chained batches instead keep the valuation
// and answers around as the next scenario's delta base.
func (st *evalState[T, C]) eval(rs resolvedScenario[T], out []T) []T {
	if st.chain {
		return st.evalChained(rs, out)
	}
	for j, v := range rs.vars {
		if int(v) < len(st.val) {
			st.val[v] = rs.vals[j]
		}
	}
	out = st.run(rs.vars, false, out)
	for _, v := range rs.vars {
		if int(v) < len(st.val) {
			st.val[v] = st.one
		}
	}
	return out
}

// evalChained transitions the persistent valuation from the previous
// scenario to rs and picks the cheaper delta base: the identity baseline
// (touched = the scenario's own assignments) or the previous answers
// (touched = the consecutive-valuation diff), whichever touches fewer
// terms. The identity baseline also covers the first scenario of a chunk
// (unless ChainState carried a seed over from the previous batch) and the
// case where the diff is denser than the scenario itself — uncorrelated
// neighbors lose nothing.
func (st *evalState[T, C]) evalChained(rs resolvedScenario[T], out []T) []T {
	for _, v := range st.prevVars {
		if int(v) < len(st.val) {
			st.val[v] = st.one
		}
	}
	for j, v := range rs.vars {
		if int(v) < len(st.val) {
			st.val[v] = rs.vals[j]
		}
	}
	touched, chained := rs.vars, false
	if st.hasPrev && st.delta != nil {
		st.diff = symDiff(st.c.Carrier(), st.prevVars, st.prevVals, rs.vars, rs.vals, st.diff[:0])
		if st.c.TermsTouching(st.diff) <= st.c.TermsTouching(rs.vars) {
			touched, chained = st.diff, true
		}
	}
	out = st.run(touched, chained, out)
	st.prevVars, st.prevVals, st.prevOut, st.hasPrev = rs.vars, rs.vals, out, true
	return out
}

// run evaluates under the worker's current valuation. touched is the delta
// base's difference set — the scenario's assignments against the identity
// baseline, or (chained) the diff against the previous scenario, whose
// answers then seed the unaffected polynomials.
func (st *evalState[T, C]) run(touched []provenance.Var, chained bool, out []T) []T {
	c := st.c
	st.evals++
	var ids []int32
	terms, walked, useDelta, probed := 0, false, false, false
	if st.delta != nil {
		th := st.threshold()
		// MinAffectedTerms is an O(len(touched)) lower bound: when even it
		// exceeds the threshold, the full Affected index walk (which a dense
		// scenario would only discard) is skipped.
		if c.MinAffectedTerms(touched) <= th {
			ids, terms = st.delta.Affected(touched)
			walked = true
			useDelta = terms <= th
		}
		if st.adaptive {
			// Exploration: run the other path on a prime cadence so the
			// losing path's EWMA cannot go stale — fast but capped while
			// the model is incomplete, steady once it has both estimates,
			// and not at all when warmup ended without completing (the
			// bootstrap static cutoff then stands, overhead-free).
			n := st.counters.routed.Add(1)
			if st.counters.AdaptiveCutoff() > 0 {
				probed = n%probeInterval == 0
			} else {
				probed = n <= warmupProbeCap && n%warmupProbeInterval == 0
			}
			if probed {
				if useDelta {
					useDelta = false
				} else {
					if !walked {
						ids, terms = st.delta.Affected(touched)
					}
					useDelta = true
				}
			}
		}
	}
	// Observe thinned, and only delta evaluations big enough that their
	// ns/term is marginal cost rather than fixed overhead. Probes are
	// always observed — a deliberately spent exploration evaluation whose
	// sample is then discarded would be pure waste.
	observe := st.adaptive && (probed || st.evals%timeSample == 0)
	if observe && useDelta && !probed && terms < c.Size()/observeDivisor {
		observe = false
	}
	var start time.Time
	if observe {
		start = time.Now()
	}
	sharded := false
	switch {
	case useDelta && chained:
		out = st.delta.EvalAffectedFrom(ids, st.val, st.prevOut, out)
	case useDelta:
		// len(ids) > 1 mirrors EvalAffectedSharded's worker clamp, so the
		// counter only reports shards that actually happen.
		sharded = st.shard > 1 && terms >= shardMinTerms && len(ids) > 1
		if sharded {
			out = st.delta.EvalAffectedSharded(ids, st.val, out, st.shard)
		} else {
			out = st.delta.EvalAffected(ids, st.val, out)
		}
	default:
		sharded = st.shard > 1 && c.Size() >= shardMinTerms && c.Len() > 1
		if sharded {
			out = c.EvalSharded(st.val, out, st.shard)
		} else {
			out = c.Eval(st.val, out)
		}
	}
	if observe {
		ns := float64(time.Since(start).Nanoseconds())
		if useDelta {
			t := terms
			if t < 1 {
				t = 1
			}
			st.counters.deltaNsPerTerm.Observe(ns / float64(t))
		} else if c.Size() > 0 {
			st.counters.fullNsPerTerm.Observe(ns / float64(c.Size()))
		}
	}
	st.count(useDelta, chained, sharded)
	return out
}

func (st *evalState[T, C]) count(delta, chained, sharded bool) {
	if st.counters == nil {
		return
	}
	switch {
	case delta && chained:
		st.counters.ChainedEvals.Add(1)
	case delta:
		st.counters.DeltaEvals.Add(1)
	default:
		st.counters.FullEvals.Add(1)
	}
	if sharded {
		st.counters.ShardedEvals.Add(1)
	}
}

// EvalBatch evaluates every scenario against the compiled set, returning one
// answer vector (in set order) per scenario, in scenario order. With at
// least as many scenarios as workers, scenarios are distributed over the
// pool; with fewer (down to a single huge scenario), the spare workers
// shard inside each scenario's polynomial range instead, so either way all
// cores stay busy. Sparse scenarios ride the delta path (see
// BatchOptions.DeltaCutoff); every path returns per-polynomial
// bit-identical results. The returned rows share one backing array
// (disjoint ranges), so steady-state batches cost O(1) slice allocations.
//
// EvalBatch is generic over the kernel's carrier; with a *provenance.Compiled
// it is exactly the pre-generic float64 batch.
func EvalBatch[T any, C provenance.Carrier[T]](c *provenance.Kernel[T, C], scenarios []*Scenario, opts BatchOptions) ([][]T, error) {
	resolved, err := resolve[T, C](c.Carrier(), c.Vocab, scenarios)
	if err != nil {
		return nil, err
	}
	return evalResolvedBatch(c, resolved, opts), nil
}

// evalResolvedBatch is the evaluation core shared by EvalBatch and
// EvalBatchEach: route each already-resolved scenario through the
// delta/full/sharded machinery on the configured pool, chained in
// overlap order when the options ask for it.
func evalResolvedBatch[T any, C provenance.Carrier[T]](c *provenance.Kernel[T, C], resolved []resolvedScenario[T], opts BatchOptions) [][]T {
	out := make([][]T, len(resolved))
	if len(resolved) == 0 {
		return out
	}
	// One backing array for every answer row: scenario i owns the range
	// [i*L, (i+1)*L), capped so a row cannot grow into its neighbor.
	L := c.Len()
	flat := make([]T, len(resolved)*L)
	for i := range out {
		out[i] = flat[i*L : (i+1)*L : (i+1)*L]
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// With fewer scenarios than workers on a set big enough to split, the
	// spare cores move inside each scenario: a pool of one worker per
	// scenario, each allowed workers/len shards. (With one huge scenario
	// that is a single worker sharding the whole range; with a small set,
	// shard stays 1 and the pool simply clamps to the scenario count, so
	// across-scenario parallelism is never lost even when a scenario's
	// evaluation declines to shard.)
	shard := 1
	if workers > len(resolved) && c.Size() >= shardMinTerms {
		shard = workers / len(resolved)
	}
	if workers > len(resolved) {
		workers = len(resolved)
	}
	if opts.Chain {
		evalChainedBatch(c, resolved, opts, out, workers, shard)
		return out
	}
	if workers <= 1 {
		st := newEvalState(c, opts, shard)
		defer st.release()
		for i := range resolved {
			out[i] = st.eval(resolved[i], out[i])
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			st := newEvalState(c, opts, shard)
			defer st.release()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(resolved) {
					return
				}
				out[i] = st.eval(resolved[i], out[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// evalChainedBatch evaluates a batch as a correlated stream: assignments
// are sorted (the diff merge's precondition), the batch is greedily
// ordered by overlap, and each worker chains through one contiguous chunk
// of the order — chunks rather than work-stealing, so the previous
// scenario's answers are always local to the worker. When the options
// carry a ChainState, the first chunk resumes from the previous batch's
// final evaluator state — so the stream's first scenario of every
// micro-batch chains off the last answers instead of paying an
// identity-baseline delta — and the state is handed back for the next
// batch instead of being released.
func evalChainedBatch[T any, C provenance.Carrier[T]](c *provenance.Kernel[T, C], resolved []resolvedScenario[T], opts BatchOptions, out [][]T, workers, shard int) {
	ps := &pairSorter[T]{}
	for i := range resolved {
		sortPairs(ps, resolved[i].vars, resolved[i].vals)
	}
	order := chainOrder(c.Carrier(), resolved, c.Size() >= shardMinTerms)
	var seed *evalState[T, C]
	if opts.ChainState != nil {
		if st, ok := opts.ChainState.state.(*evalState[T, C]); ok && st.adopt(c, opts, shard) {
			seed = st
		}
		opts.ChainState.state = nil // re-stored below once the batch is done
	}
	finish := func(st *evalState[T, C]) {
		if opts.ChainState != nil {
			opts.ChainState.state = st
		} else {
			st.release()
		}
	}
	if workers <= 1 {
		st := seed
		if st == nil {
			st = newEvalState(c, opts, shard)
		}
		for _, i := range order {
			out[i] = st.eval(resolved[i], out[i])
		}
		finish(st)
		return
	}
	var wg sync.WaitGroup
	kept := false
	for w := 0; w < workers; w++ {
		lo, hi := len(order)*w/workers, len(order)*(w+1)/workers
		if lo >= hi {
			continue
		}
		st := seed // only the first scheduled chunk resumes the carried chain
		seed = nil
		if st == nil {
			st = newEvalState(c, opts, shard)
		}
		keep := !kept // persist the first chunk's state across batches
		kept = true
		wg.Add(1)
		go func(st *evalState[T, C], chunk []int, keep bool) {
			defer wg.Done()
			for _, i := range chunk {
				out[i] = st.eval(resolved[i], out[i])
			}
			if keep {
				finish(st)
			} else {
				st.release()
			}
		}(st, order[lo:hi], keep)
	}
	wg.Wait()
}

// EvalBatchEach is the per-scenario error-isolating batch used by
// streaming callers: a scenario that fails to resolve yields a nil row and
// a non-nil *UnknownVarsError or *BadAssignmentError (indexed by batch
// position) at its slot, while the rest are evaluated together in one pass
// — names are resolved exactly once. Rows are raw answer vectors, as from
// EvalBatch: callers tag only the rows they emit (TagAnswers, RowOf), so a
// ranked sweep tags k rows, not every scenario's.
func EvalBatchEach[T any, C provenance.Carrier[T]](c *provenance.Kernel[T, C], scenarios []*Scenario, opts BatchOptions) ([][]T, []error) {
	valid, pos, errs := resolveEach[T, C](c.Carrier(), c.Vocab, scenarios)
	rows := evalResolvedBatch(c, valid, opts)
	out := make([][]T, len(scenarios))
	for k, i := range pos {
		out[i] = rows[k]
	}
	return out, errs
}

// EvalPolyEach is EvalBatchEach for ranking: it answers only polynomial
// poly per scenario, through Kernel.EvalPoly, so a key costs that
// polynomial's terms instead of the whole set's. keys[i] is bit-identical
// to the poly-th answer EvalBatch gives scenario i; it is the zero value
// where errs[i] is non-nil. Evaluations are counted as RankedEvals.
func EvalPolyEach[T any, C provenance.Carrier[T]](c *provenance.Kernel[T, C], poly int, scenarios []*Scenario, counters *BatchCounters) ([]T, []error) {
	valid, pos, errs := resolveEach[T, C](c.Carrier(), c.Vocab, scenarios)
	keys := make([]T, len(scenarios))
	one := c.Carrier().One()
	val := c.NewValuation()
	for k, rs := range valid {
		for j, v := range rs.vars {
			if int(v) < len(val) {
				val[v] = rs.vals[j]
			}
		}
		keys[pos[k]] = c.EvalPoly(poly, val)
		for _, v := range rs.vars {
			if int(v) < len(val) {
				val[v] = one
			}
		}
	}
	if counters != nil {
		counters.RankedEvals.Add(int64(len(valid)))
	}
	return keys, errs
}

// resolveEach resolves every scenario once, isolating failures: the
// scenarios that resolve, their batch positions, and per scenario the
// *UnknownVarsError or *BadAssignmentError that replaced it (nil when it
// resolved).
func resolveEach[T any, C provenance.Carrier[T]](cr C, vb *provenance.Vocab, scenarios []*Scenario) ([]resolvedScenario[T], []int, []error) {
	errs := make([]error, len(scenarios))
	r := newResolver[T, C](cr, vb, scenarios)
	valid := make([]resolvedScenario[T], 0, len(scenarios))
	pos := make([]int, 0, len(scenarios))
	for i, sc := range scenarios {
		rs, unknown, bad := r.one(sc)
		if len(unknown) != 0 {
			errs[i] = ErrUnknownVars(i, unknown)
			continue
		}
		if bad != nil {
			bad.Scenario = i
			errs[i] = bad
			continue
		}
		valid = append(valid, rs)
		pos = append(pos, i)
	}
	return valid, pos, errs
}

// TagAnswers pairs one answer vector with the set's polynomial tags.
func TagAnswers[T any](tags []string, vals []T) []AnswerOf[T] {
	ans := make([]AnswerOf[T], len(vals))
	for j, v := range vals {
		ans[j] = AnswerOf[T]{Tag: tagAt(tags, j), Value: v}
	}
	return ans
}

// tagAt is polynomial j's tag, "" when the set carries none.
func tagAt(tags []string, j int) string {
	if j < len(tags) {
		return tags[j]
	}
	return ""
}

// EvalCompiled applies a single scenario to pre-compiled provenance. Callers
// evaluating more than one scenario should prefer EvalBatch, which amortizes
// the valuation and parallelizes across scenarios.
func (sc *Scenario) EvalCompiled(c *provenance.Compiled) ([]float64, error) {
	rows, err := EvalBatch(c, []*Scenario{sc}, BatchOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}
