package session

// ScenQL execution: the Engine is the executor behind internal/scenql's
// statement→plan→execute pipeline. A plan's scenarios are pulled off its
// snake-order iterator in micro-batches and pushed through the same
// chained, delta-routed stream path Engine.Stream uses — consecutive grid
// points differ in one axis, so almost every scenario is a chained delta —
// and ORDER BY runs as a streaming top-k on the raw answer vectors, so a
// million-point sweep holds k vectors, not a million, and tags and boxes
// only the k rows it returns. EXPLAIN stops before evaluation and reports
// the plan tree annotated with this executor's routing and live cost model.

import (
	"context"
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
}

// compileQuery parses and resolves one statement against the active set.
func (e *Engine) compileQuery(src string) (*scenql.Plan, error) {
	q, err := scenql.Parse(src)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return scenql.Compile(q, e.active.Vocab, e.active.Tags)
}

// Query runs one ScenQL statement to completion. An EXPLAIN statement
// returns the annotated plan without evaluating; ORDER BY runs a streaming
// top-k over the whole sweep; anything else materializes rows up to
// maxQueryRows (Truncated reports hitting the cap — use QueryStream for
// full unranked sweeps). Parse and resolution failures return *ParseError /
// *CompileError from internal/scenql.
func (e *Engine) Query(src string) (*QueryResult, error) {
	return e.QueryContext(context.Background(), src)
}

// QueryContext is Query, cancellable between micro-batches.
func (e *Engine) QueryContext(ctx context.Context, src string) (*QueryResult, error) {
	p, err := e.compileQuery(src)
	if err != nil {
		return nil, err
	}
	e.queries.Add(1)
	res := &QueryResult{Semiring: p.Kind, Scenarios: p.Scenarios()}
	if p.Explain {
		res.Explain, err = e.explain(p, src)
		return res, err
	}
	ranked, err := e.runPlan(ctx, p, func(row QueryRow) bool {
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
// completes or ctx is cancelled. For EXPLAIN the returned channel is
// already closed and QueryInfo.Explain carries the plan.
func (e *Engine) QueryStream(ctx context.Context, src string) (*QueryInfo, <-chan QueryRow, error) {
	p, err := e.compileQuery(src)
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
		ranked, err := e.runPlan(ctx, p, emit)
		if err != nil {
			return
		}
		for _, row := range ranked {
			if !emit(row) {
				return
			}
		}
	}()
	return info, out, nil
}

// runPlan sweeps the plan on its carrier's kernel (see sweep). A carrier
// the active set cannot compile into fails every scenario in-band, as on a
// stream.
func (e *Engine) runPlan(ctx context.Context, p *scenql.Plan, emit func(QueryRow) bool) ([]QueryRow, error) {
	if p.Kind == semiring.KindFloat {
		return sweep(ctx, e, p, e.floatBatch, emit)
	}
	e.mu.RLock()
	rt, err := e.runtimeLocked(p.Kind)
	e.mu.RUnlock()
	if err != nil {
		return sweep(ctx, e, p, func(_ int, scs []*hypo.Scenario, _ *hypo.ChainState) rawBatch[float64] {
			return failedBatch[float64](err, len(scs))
		}, emit)
	}
	return rt.query(ctx, e, p, emit)
}

// sweep drains the plan's iterator in micro-batches through batch (one
// RLock per batch, the chain state carried across) in generation order.
// Without ORDER BY every row is tagged, erased and passed to emit. With it,
// failed rows go to emit, the rest are ranked on their raw answer vectors,
// and the k best come back tagged and erased once the sweep is done. emit
// returning false stops the sweep. Returns ctx's error on cancellation.
func sweep[T any](ctx context.Context, e *Engine, p *scenql.Plan, batch func(int, []*hypo.Scenario, *hypo.ChainState) rawBatch[T], emit func(QueryRow) bool) ([]QueryRow, error) {
	it := p.Iter()
	cs := &hypo.ChainState{}
	defer cs.Release()
	maxBatch, _ := e.streamParams()
	var top *topK[T]
	if p.Order != nil {
		top = newTopK[T](p.Order)
	}
	scs := make([]*hypo.Scenario, 0, maxBatch)
	base := 0
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
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
			if top == nil {
				return nil, nil
			}
			return top.ranked(), nil
		}
		b := batch(base, scs, cs)
		for i, sc := range scs {
			row := QueryRow{Index: int64(base + i), Assign: sc.Assign, Err: b.errs[i]}
			if row.Err == nil {
				if top != nil {
					top.offer(row.Index, row.Assign, b.tags, b.rows[i])
					continue
				}
				row.Answers = hypo.EraseValues(b.tags, b.rows[i])
			}
			if !emit(row) {
				return nil, nil
			}
		}
		base += len(scs)
	}
}

// kernelDesc is the carrier-independent kernel summary EXPLAIN annotates
// the eval node with.
type kernelDesc struct {
	polys, terms  int
	chainable     bool
	counters      *hypo.BatchCounters
	vocab         *provenance.Vocab
	termsTouching func([]provenance.Var) int
}

// describeKernel summarizes the kernel the plan's carrier evaluates on,
// compiling it if this is its first use (EXPLAIN tells the truth about the
// kernel that would run, so it builds what Query would build).
func (e *Engine) describeKernel(kind semiring.Kind) (kernelDesc, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if kind == semiring.KindFloat || kind == "" {
		c := e.compiledLocked()
		return kernelDesc{
			polys: c.Len(), terms: c.Size(),
			chainable:     provenance.Float{}.Chainable(),
			counters:      &e.counters,
			vocab:         c.Vocab,
			termsTouching: c.TermsTouching,
		}, nil
	}
	rt, err := e.runtimeLocked(kind)
	if err != nil {
		return kernelDesc{}, err
	}
	return rt.describe(), nil
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
func (e *Engine) explain(p *scenql.Plan, src string) (*scenql.ExplainPlan, error) {
	desc, err := e.describeKernel(p.Kind)
	if err != nil {
		return nil, err
	}
	cm, threshold, deltaOn := e.costModel(desc)
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
		Routes:      routes,
		Input:       input,
	}
	var root any = eval
	if p.Order != nil {
		dir := "asc"
		if p.Order.Desc {
			dir = "desc"
		}
		root = &scenql.TopKNode{Node: "topk", Key: p.Order.Key, Dir: dir, K: p.Order.K, Input: eval}
	}
	return &scenql.ExplainPlan{
		Statement: src,
		Semiring:  p.Kind.String(),
		Scenarios: p.Scenarios(),
		Plan:      root,
	}, nil
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

// topK is the streaming ORDER BY ... LIMIT k accumulator over raw answer
// vectors: a bounded heap whose root is the currently worst kept row, so a
// sweep of any size holds k vectors. A row that makes the cut is copied
// into the buffer of the row it evicts; nothing is tagged or boxed until
// ranked returns the winners. One implementation serves every carrier.
type topK[T any] struct {
	col  int // polynomial whose answer is the key
	desc bool
	k    int
	key  func(T) float64
	rows []keptRow[T] // heap-ordered: every row ranks ahead of its parent
}

// keptRow is one of the k best rows so far: its key and generation index,
// the scenario's assignments, the tags of the kernel that answered it, and
// a private copy of its answers.
type keptRow[T any] struct {
	key    float64
	index  int64
	assign map[string]float64
	tags   []string
	vals   []T
}

func newTopK[T any](o *scenql.Order) *topK[T] {
	return &topK[T]{col: o.Index, desc: o.Desc, k: o.K, key: rankKey[T]()}
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
func (t *topK[T]) ahead(ka float64, ia int64, kb float64, ib int64) bool {
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
func (t *topK[T]) before(i, j int) bool {
	a, b := &t.rows[i], &t.rows[j]
	return t.ahead(a.key, a.index, b.key, b.index)
}

// offer considers one evaluated scenario for the top k.
func (t *topK[T]) offer(index int64, assign map[string]float64, tags []string, vals []T) {
	key := math.NaN()
	if t.col < len(vals) {
		key = t.key(vals[t.col])
	}
	if len(t.rows) < t.k {
		t.rows = append(t.rows, keptRow[T]{key: key, index: index, assign: assign, tags: tags, vals: slices.Clone(vals)})
		t.up(len(t.rows) - 1)
		return
	}
	worst := &t.rows[0]
	if !t.ahead(key, index, worst.key, worst.index) {
		return
	}
	worst.key, worst.index, worst.assign, worst.tags = key, index, assign, tags
	worst.vals = append(worst.vals[:0], vals...)
	t.down(0)
}

// up restores the heap after row i was appended.
func (t *topK[T]) up(i int) {
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
func (t *topK[T]) down(i int) {
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

// ranked returns the kept rows best-first, tagged and carrier-erased.
func (t *topK[T]) ranked() []QueryRow {
	sort.Slice(t.rows, t.before)
	out := make([]QueryRow, len(t.rows))
	for i, r := range t.rows {
		out[i] = QueryRow{Index: r.index, Assign: r.assign, Answers: hypo.EraseValues(r.tags, r.vals)}
	}
	return out
}
