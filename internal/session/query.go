package session

// ScenQL execution: the Engine is the executor behind internal/scenql's
// statement→plan→execute pipeline. A plan's scenarios are pulled off its
// snake-order iterator in micro-batches and pushed through the same
// chained, delta-routed stream path Engine.Stream uses — consecutive grid
// points differ in one axis, so almost every scenario is a chained delta.
// ORDER BY runs key-first instead: each scenario is evaluated on its ORDER
// BY polynomial alone and ranked in a streaming top-k that holds k
// (key, scenario) pairs, and only the k winners are then evaluated in
// full, tagged and boxed. EXPLAIN stops before evaluation and reports the
// plan tree annotated with this executor's routing and live cost model.

import (
	"cmp"
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sort"

	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/scenql"
	"provabs/internal/semiring"
)

// maxQueryRows caps an unranked, unlimited Query's materialized result.
// Queries wanting more rows than this should use QueryStream (unbounded)
// or an ORDER BY ... LIMIT top-k.
const maxQueryRows = 1000

// QueryRow is one scenario's outcome: its generation index, the
// assignments the generator chose, and the answers (carrier-erased, as at
// every dynamic boundary). Err is per-scenario and in-band, like a stream.
type QueryRow struct {
	Index   int64
	Assign  map[string]float64
	Answers []hypo.ValueAnswer
	Err     error
}

// QueryResult is a non-streaming Query outcome.
type QueryResult struct {
	Semiring  semiring.Kind
	Scenarios int64 // what the generator yielded (or would yield, for EXPLAIN)
	Rows      []QueryRow
	Errors    int64 // scenarios that failed in-band
	Truncated bool  // hit maxQueryRows before the generator finished
	Explain   *scenql.ExplainPlan
}

// QueryInfo is the statement-level header of a streaming query.
type QueryInfo struct {
	Semiring  semiring.Kind
	Scenarios int64
	Explain   *scenql.ExplainPlan // non-nil for EXPLAIN: no rows follow

	err error // set before the row channel closes
}

// Err reports what ended the statement early — ErrActiveSetReplaced, or
// the stream context's error once it is cancelled — and nil when every row
// was delivered. Call it only after the row channel has closed.
func (qi *QueryInfo) Err() error { return qi.err }

// ErrActiveSetReplaced fails a statement that a Compress overtook: the
// statement was compiled against one active set, and a later micro-batch
// found another. Every row emitted before the error was answered on the
// statement's own set, so no row, ranked or not, mixes the two. Add only
// appends to the active set without changing any existing polynomial's
// answer, so a statement may span Adds.
var ErrActiveSetReplaced = errors.New("session: Compress replaced the active set mid-statement")

// compileQuery parses and resolves one statement against the active set,
// which it also returns: every micro-batch of the statement must answer on
// that set.
func (e *Engine) compileQuery(src string) (*scenql.Plan, *provenance.Set, error) {
	q, err := scenql.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	p, err := scenql.Compile(q, e.active.Vocab, e.active.Tags)
	return p, e.active, err
}

// Query runs one ScenQL statement to completion. An EXPLAIN statement
// returns the annotated plan without evaluating; ORDER BY runs a streaming
// top-k over the whole sweep; anything else materializes rows up to
// maxQueryRows (Truncated reports hitting the cap — use QueryStream for
// full unranked sweeps). Parse and resolution failures return *ParseError /
// *CompileError from internal/scenql; a Compress landing mid-statement
// returns ErrActiveSetReplaced.
func (e *Engine) Query(src string) (*QueryResult, error) {
	return e.QueryContext(context.Background(), src)
}

// QueryContext is Query, cancellable between micro-batches.
func (e *Engine) QueryContext(ctx context.Context, src string) (*QueryResult, error) {
	p, set, err := e.compileQuery(src)
	if err != nil {
		return nil, err
	}
	e.queries.Add(1)
	res := &QueryResult{Semiring: p.Kind, Scenarios: p.Scenarios()}
	if p.Explain {
		res.Explain, err = e.explain(p, src)
		return res, err
	}
	ranked, err := e.runPlan(ctx, p, set, func(row QueryRow) bool {
		if row.Err != nil {
			res.Errors++
			if p.Order != nil {
				return true // a failed scenario has nothing to rank
			}
		}
		if len(res.Rows) >= maxQueryRows {
			res.Truncated = true
			return false
		}
		res.Rows = append(res.Rows, row)
		return true
	})
	if p.Order != nil {
		res.Rows = ranked
	}
	return res, err
}

// QueryStream runs one statement with rows delivered on a channel as they
// are computed (ORDER BY still consumes the full sweep before emitting its
// k ranked rows — top-k cannot stream). The channel closes when the sweep
// completes, fails or ctx is cancelled; QueryInfo.Err then tells which.
// For EXPLAIN the returned channel is already closed and QueryInfo.Explain
// carries the plan.
func (e *Engine) QueryStream(ctx context.Context, src string) (*QueryInfo, <-chan QueryRow, error) {
	p, set, err := e.compileQuery(src)
	if err != nil {
		return nil, nil, err
	}
	e.queries.Add(1)
	info := &QueryInfo{Semiring: p.Kind, Scenarios: p.Scenarios()}
	if p.Explain {
		info.Explain, err = e.explain(p, src)
		if err != nil {
			return nil, nil, err
		}
		done := make(chan QueryRow)
		close(done)
		return info, done, nil
	}
	_, buf := e.streamParams()
	out := make(chan QueryRow, buf)
	emit := func(row QueryRow) bool {
		select {
		case out <- row:
			return true
		case <-ctx.Done():
			return false
		}
	}
	go func() {
		defer close(out)
		// Failed scenarios stream in-band even under top-k.
		ranked, err := e.runPlan(ctx, p, set, emit)
		for _, row := range ranked {
			if !emit(row) {
				break
			}
		}
		if err == nil {
			err = ctx.Err()
		}
		info.err = err
	}()
	return info, out, nil
}

// runPlan sweeps the plan on its carrier's kernel (see sweep); set is the
// active set the plan was compiled against. A carrier the active set
// cannot compile into fails every scenario in-band, as on a stream.
func (e *Engine) runPlan(ctx context.Context, p *scenql.Plan, set *provenance.Set, emit func(QueryRow) bool) ([]QueryRow, error) {
	if p.Kind == semiring.KindFloat {
		return sweep(ctx, e, p, set, func() (evalTarget[float64, provenance.Float], error) {
			return e.floatTarget(), nil
		}, emit)
	}
	e.mu.RLock()
	rt, err := e.runtimeLocked(p.Kind)
	e.mu.RUnlock()
	if err != nil {
		return sweep(ctx, e, p, set, func() (evalTarget[float64, provenance.Float], error) {
			return evalTarget[float64, provenance.Float]{}, err
		}, emit)
	}
	return rt.query(ctx, e, p, set, emit)
}

// sweep drains the plan's iterator in micro-batches (one RLock per batch,
// on the kernel locate returns under it) in generation order. Without
// ORDER BY every row is evaluated in full on the chained batch path,
// tagged, erased and passed to emit. With it, each scenario is evaluated
// on its key polynomial alone: failed rows go to emit, the rest are
// ranked, and once the sweep is done the k winners are evaluated in full
// — in generation order, a micro-batch at a time, chained — and come back
// best-first, tagged and erased. The key is bit-identical to the winner's
// answer, since every kernel path recomputes a polynomial on one loop.
// emit returning false stops the sweep. Returns ctx's error on
// cancellation, and ErrActiveSetReplaced when a micro-batch finds that a
// Compress replaced set.
func sweep[T any, C provenance.Carrier[T]](ctx context.Context, e *Engine, p *scenql.Plan, set *provenance.Set, locate func() (evalTarget[T, C], error), emit func(QueryRow) bool) ([]QueryRow, error) {
	batch := func(n int, run func(evalTarget[T, C]) rawBatch[T]) (rawBatch[T], error) {
		e.mu.RLock()
		defer e.mu.RUnlock()
		if e.active != set {
			return rawBatch[T]{}, ErrActiveSetReplaced
		}
		t, err := locate()
		if err != nil {
			return failedBatch[T](err, n), nil
		}
		return run(t), nil
	}
	it := p.Iter()
	cs := &hypo.ChainState{}
	defer cs.Release()
	maxBatch, _ := e.streamParams()
	var top *topK
	if p.Order != nil {
		top = &topK{desc: p.Order.Desc, k: p.Order.K}
	}
	key := rankKey[T]()
	scs := make([]*hypo.Scenario, 0, maxBatch)
	for base := 0; ; base += len(scs) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		scs = scs[:0]
		for len(scs) < maxBatch {
			sc, ok := it.Next()
			if !ok {
				break
			}
			scs = append(scs, sc)
		}
		if len(scs) == 0 {
			break
		}
		b, err := batch(len(scs), func(t evalTarget[T, C]) rawBatch[T] {
			if top != nil {
				return t.key(p.Order.Index, base, scs)
			}
			return t.raw(base, scs, cs)
		})
		if err != nil {
			return nil, err
		}
		for i, sc := range scs {
			row := QueryRow{Index: int64(base + i), Assign: sc.Assign, Err: b.errs[i]}
			if row.Err == nil {
				if top != nil {
					top.offer(key(b.keys[i]), row.Index, sc)
					continue
				}
				row.Answers = hypo.EraseValues(b.tags, b.rows[i])
			}
			if !emit(row) {
				return nil, nil
			}
		}
	}
	if top == nil {
		return nil, nil
	}
	winners := top.ranked()
	byIndex := make([]int, len(winners)) // ranks in generation order
	for r := range byIndex {
		byIndex[r] = r
	}
	slices.SortFunc(byIndex, func(a, b int) int { return cmp.Compare(winners[a].index, winners[b].index) })
	out := make([]QueryRow, len(winners))
	for lo := 0; lo < len(byIndex); lo += maxBatch {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ranks := byIndex[lo:min(lo+maxBatch, len(byIndex))]
		scs = scs[:0]
		for _, r := range ranks {
			scs = append(scs, winners[r].sc)
		}
		// Every winner resolved in the key pass on this set, so only a
		// carrier that can no longer compile the set fails one here.
		b, err := batch(len(scs), func(t evalTarget[T, C]) rawBatch[T] { return t.raw(0, scs, cs) })
		if err != nil {
			return nil, err
		}
		for i, r := range ranks {
			row := QueryRow{Index: winners[r].index, Assign: winners[r].sc.Assign, Err: b.errs[i]}
			if row.Err == nil {
				row.Answers = hypo.EraseValues(b.tags, b.rows[i])
			}
			out[r] = row
		}
	}
	return out, nil
}

// kernelDesc is the carrier-independent kernel summary EXPLAIN annotates
// the eval node with.
type kernelDesc struct {
	polys, terms  int
	keyTerms      int // terms of the ORDER BY polynomial (set by describeKernel)
	chainable     bool
	counters      *hypo.BatchCounters
	vocab         *provenance.Vocab
	termsTouching func([]provenance.Var) int
}

// describeKernel summarizes the kernel the plan's carrier evaluates on,
// compiling it if this is its first use (EXPLAIN tells the truth about the
// kernel that would run, so it builds what Query would build).
func (e *Engine) describeKernel(p *scenql.Plan) (kernelDesc, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var desc kernelDesc
	if p.Kind == semiring.KindFloat || p.Kind == "" {
		c := e.compiledLocked()
		desc = kernelDesc{
			polys: c.Len(), terms: c.Size(),
			chainable:     provenance.Float{}.Chainable(),
			counters:      &e.counters,
			vocab:         c.Vocab,
			termsTouching: c.TermsTouching,
		}
	} else {
		rt, err := e.runtimeLocked(p.Kind)
		if err != nil {
			return kernelDesc{}, err
		}
		desc = rt.describe()
	}
	if p.Order != nil {
		desc.keyTerms = e.active.Polys[p.Order.Index].Size()
	}
	return desc, nil
}

// costModel mirrors hypo's routing configuration for EXPLAIN: the
// effective cutoff, where it came from, and the affected-terms threshold
// it implies on this kernel. Returns the threshold in terms and whether
// the delta path is on at all.
func (e *Engine) costModel(desc kernelDesc) (scenql.CostModel, int, bool) {
	cm := scenql.CostModel{
		DeltaNsPerTerm: desc.counters.DeltaNsPerTerm(),
		FullNsPerTerm:  desc.counters.FullNsPerTerm(),
	}
	cutoff := e.deltaCutoff
	switch {
	case cutoff < 0:
		cm.Source = "disabled"
		return cm, -1, false
	case cutoff > 0:
		cm.Source = "static"
	default:
		if ac := desc.counters.AdaptiveCutoff(); ac > 0 {
			cm.Source = "adaptive"
			cutoff = math.Min(ac, 1)
		} else {
			cm.Source = "bootstrap"
			cutoff = hypo.DefaultDeltaCutoff
		}
	}
	cm.Cutoff = cutoff
	threshold := int(cutoff * float64(desc.terms))
	cm.ThresholdTerms = float64(threshold)
	return cm, threshold, true
}

// explain builds the annotated plan tree: the generator half from the
// plan, the eval node from this engine's kernel, routing and cost model.
// Under ORDER BY the topk node ranks the generated scenarios on the key
// polynomial alone and the eval node above it answers only the k winners,
// so no per-transition routes apply.
func (e *Engine) explain(p *scenql.Plan, src string) (*scenql.ExplainPlan, error) {
	desc, err := e.describeKernel(p)
	if err != nil {
		return nil, err
	}
	cm, threshold, deltaOn := e.costModel(desc)
	var input any = p.GenerateNode()
	if p.Limit > 0 {
		input = &scenql.LimitNode{Node: "limit", Limit: p.Limit, Input: input}
	}
	eval := &scenql.EvalNode{
		Node:        "eval",
		Semiring:    p.Kind.String(),
		Polynomials: desc.polys,
		Terms:       desc.terms,
		Chained:     deltaOn && desc.chainable,
		CostModel:   cm,
		Input:       input,
	}
	if p.Order != nil {
		dir := "asc"
		if p.Order.Desc {
			dir = "desc"
		}
		eval.Input = &scenql.TopKNode{
			Node: "topk", Key: p.Order.Key, Dir: dir, K: p.Order.K,
			KeyTerms: desc.keyTerms, Input: input,
		}
	} else {
		eval.Routes = e.routes(p, desc, threshold, deltaOn)
	}
	return &scenql.ExplainPlan{
		Statement: src,
		Semiring:  p.Kind.String(),
		Scenarios: p.Scenarios(),
		Plan:      eval,
	}, nil
}

// routes predicts the evaluation route of each of the plan's transition
// classes on the described kernel.
func (e *Engine) routes(p *scenql.Plan, desc kernelDesc, threshold int, deltaOn bool) []scenql.Route {
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	classes := p.Classes()
	routes := make([]scenql.Route, len(classes))
	vars := make([]provenance.Var, 0, 8)
	for i, cl := range classes {
		vars = vars[:0]
		for _, name := range cl.Vars {
			if v, ok := desc.vocab.Lookup(name); ok {
				vars = append(vars, v)
			}
		}
		affected := desc.termsTouching(vars)
		routes[i] = scenql.Route{
			Class:         cl.Label,
			Vars:          cl.Vars,
			Transitions:   cl.Transitions,
			AffectedTerms: affected,
			Route:         routeLabel(cl.Label, affected, threshold, deltaOn, desc.chainable, desc.terms, workers),
		}
	}
	return routes
}

// routeLabel predicts the evaluation route of one transition class, the
// way evalState would decide it: delta when the affected terms fit the
// threshold (chained for step transitions on a chainable carrier — their
// diff is one axis, always no wider than the scenario), otherwise full —
// sharded when the kernel is big enough to split and workers are spare.
func routeLabel(class string, affected, threshold int, deltaOn, chainable bool, terms, workers int) string {
	if deltaOn && affected <= threshold {
		if class != "seed" && chainable {
			return "chained"
		}
		return "delta"
	}
	if workers > 1 && terms >= hypo.ShardMinTerms {
		return "sharded"
	}
	return "full"
}

// topK is the streaming ORDER BY ... LIMIT k accumulator over keys: a
// bounded heap whose root is the currently worst kept row, so a sweep of
// any size holds k (key, index, scenario) triples and no answer vector.
// One implementation serves every carrier (see rankKey).
type topK struct {
	desc bool
	k    int
	rows []keptRow // heap-ordered: every row ranks ahead of its parent
}

// keptRow is one of the k best scenarios so far: its key, its generation
// index and the scenario itself, evaluated in full only if it wins.
type keptRow struct {
	key   float64
	index int64
	sc    *hypo.Scenario
}

// rankKey maps a carrier's answer to its ORDER BY key: floats as
// themselves, counts by magnitude, bool as 0/1. Values of any other type
// key as NaN, which always loses.
func rankKey[T any]() func(T) float64 {
	var key any
	switch any(*new(T)).(type) {
	case float64:
		key = func(x float64) float64 { return x }
	case int64:
		key = func(n int64) float64 { return float64(n) }
	case bool:
		key = func(b bool) float64 {
			if b {
				return 1
			}
			return 0
		}
	}
	if f, ok := key.(func(T) float64); ok {
		return f
	}
	return func(T) float64 { return math.NaN() }
}

// ahead reports whether a row keyed (ka, ia) ranks before one keyed
// (kb, ib): the larger key under DESC, the smaller under ASC, a NaN key
// behind every number, and among equal keys the earlier scenario.
func (t *topK) ahead(ka float64, ia int64, kb float64, ib int64) bool {
	aNaN, bNaN := math.IsNaN(ka), math.IsNaN(kb)
	switch {
	case aNaN != bNaN:
		return bNaN
	case !aNaN && ka != kb:
		return (ka > kb) == t.desc
	}
	return ia < ib
}

// before reports whether kept row i ranks ahead of kept row j.
func (t *topK) before(i, j int) bool {
	a, b := &t.rows[i], &t.rows[j]
	return t.ahead(a.key, a.index, b.key, b.index)
}

// offer considers one ranked scenario for the top k.
func (t *topK) offer(key float64, index int64, sc *hypo.Scenario) {
	if len(t.rows) < t.k {
		t.rows = append(t.rows, keptRow{key: key, index: index, sc: sc})
		t.up(len(t.rows) - 1)
		return
	}
	if worst := &t.rows[0]; t.ahead(key, index, worst.key, worst.index) {
		*worst = keptRow{key: key, index: index, sc: sc}
		t.down(0)
	}
}

// up restores the heap after row i was appended.
func (t *topK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.before(parent, i) {
			return
		}
		t.rows[parent], t.rows[i] = t.rows[i], t.rows[parent]
		i = parent
	}
}

// down restores the heap after row i was replaced by a better one.
func (t *topK) down(i int) {
	for {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(t.rows) && t.before(worst, c) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		t.rows[i], t.rows[worst] = t.rows[worst], t.rows[i]
		i = worst
	}
}

// ranked returns the kept rows best-first.
func (t *topK) ranked() []keptRow {
	sort.Slice(t.rows, t.before)
	return t.rows
}
