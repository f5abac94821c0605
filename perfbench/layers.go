package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/durable"
	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/registry"
	"provabs/internal/scenql"
	"provabs/internal/semiring"
	"provabs/internal/session"
)

// replayCap bounds how many recorded inputs a replay re-runs.
const replayCap = 2000

// layerBreakdown is one operation's mean time per layer, in microseconds:
// each layer's self time, so the parts add up to the client's span.
type layerBreakdown struct {
	Op     string             `json:"op"`
	Count  int                `json:"count"`
	Client float64            `json:"client_us"`
	Layers map[string]float64 `json:"self_us"`
}

// tracedSpans are the spans of the traced phases, taken at each phase's
// end so one-shots of phase A and phase B stay apart.
type tracedSpans struct {
	a, q, b, f []span
}

// perLayer fills the traced run's metrics: span self times at the HTTP
// boundaries, counter deltas from the public endpoints, and replays of the
// recorded inputs into the public functions of each layer, on the live
// sessions (reads) or on twins (Add, Compress, Create).
func (r *runner) perLayer(ctx context.Context, res *result, sp tracedSpans, st *stack, reads, queries []*liveSession, feed *liveSession,
	stmts []statement, adds []addInput, shots []oneShot, before, after *scrapeData, ph *phaseResults) error {
	m := res.Metrics
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	live := map[*liveSession]*session.Engine{}
	for _, s := range append(slices.Clone(reads), feed) {
		sess, err := st.holder(s.name)
		if err != nil {
			return err
		}
		live[s] = sess.Engine()
	}

	// One-shots: spans at the client, gateway and backend boundaries, then
	// the engine and kernel below the backend by replay.
	whatif := breakdown("whatif", sp.a)
	whatifUs, deltaUs, err := replayWhatIfs(ctx, shots, live)
	if err != nil {
		return err
	}
	whatif.Layers["server"] -= whatifUs
	whatif.Layers["session+hypo"] = whatifUs - deltaUs
	whatif.Layers["provenance"] = deltaUs
	put("transport.wait_us", whatif.Layers["client"], "us")
	put("gateway.self_us", whatif.Layers["gateway"], "us")
	put("server.self_us", whatif.Layers["server"], "us")
	put("server.resp_bytes_per_op", float64(ph.respBytes.Load())/float64(max(1, len(ph.whatifA.lat))), "bytes")
	put("session.whatif_us", whatifUs, "us")
	put("provenance.delta_us", deltaUs, "us")

	// Statements: spans, then the engine, hypo, scenql and kernel replays.
	query := breakdown("query", sp.q)
	q, err := replayStatements(ctx, stmts, queries, live)
	if err != nil {
		return err
	}
	perStmt := float64(q.scenarios) / float64(len(stmts))
	query.Layers["server"] -= q.queryUs * perStmt
	query.Layers["session"] = (q.queryUs - q.batchUs - q.genUs) * perStmt
	query.Layers["scenql"] = q.genUs * perStmt
	// The engine evaluates a micro-batch on GOMAXPROCS workers and the
	// kernel replay runs on one, so the batch's time is split between hypo
	// and the kernel in the proportion a one-worker batch shows.
	kernel := q.batchUs * min(1, q.kernelUs/q.serialBatchUs)
	query.Layers["hypo"] = (q.batchUs - kernel) * perStmt
	query.Layers["provenance"] = kernel * perStmt
	put("session.query_us_per_scenario", q.queryUs, "us")
	put("session.self_us_per_scenario", q.queryUs-q.batchUs-q.genUs, "us")
	put("session.allocs_per_scenario", q.allocs, "count")
	put("session.bytes_per_scenario", q.bytes, "bytes")
	put("session.gc_cpu_share", q.gcShare, "ratio")
	put("hypo.batch_us_per_scenario", q.batchUs, "us")
	put("provenance.eval_us", q.evalUs, "us")
	put("provenance.chained_us", q.chainedUs, "us")
	put("provenance.terms_per_scenario", q.terms, "count")
	put("scenql.compile_us", q.compileUs, "us")
	put("scenql.gen_ns_per_scenario", q.genUs*1000, "ns")

	// Route counters and compiles, from GET …/stats around the window.
	var scen, full, delta, chained, sharded, compiles int64
	for _, s := range reads {
		a, b := after.stats[s.name], before.stats[s.name]
		scen += a.Scenarios - b.Scenarios
		full += a.FullEvals - b.FullEvals
		delta += a.DeltaEvals - b.DeltaEvals
		chained += a.ChainedEvals - b.ChainedEvals
		sharded += a.ShardedEvals - b.ShardedEvals
	}
	for _, s := range after.stats {
		compiles = max(compiles, s.Compiles)
	}
	share := func(n int64) float64 { return float64(n) / float64(max(1, scen)) }
	put("hypo.full_share", share(full), "ratio")
	put("hypo.delta_share", share(delta), "ratio")
	put("hypo.chained_share", share(chained), "ratio")
	put("hypo.sharded_share", share(sharded), "ratio")
	put("session.compiles", float64(compiles), "count")
	put("gateway.retries", float64(after.gw.retries-before.gw.retries), "count")
	put("gateway.breaker_trips", float64(after.gw.trips-before.gw.trips), "count")

	// Writes: replays of the run's add lines on twins, the durable one on
	// a counting FS.
	w, err := r.replayWrites(ctx, queries[0], feed, adds, ph.acked)
	if err != nil {
		return err
	}
	fsd := w.durable
	put("durable.fsync_us", float64(fsd.fsyncNs)/1e3/float64(max(1, fsd.fsyncs)), "us")
	put("durable.fsyncs_per_add", float64(fsd.fsyncs)/float64(w.durableAdds), "count")
	put("durable.wal_bytes_per_add", float64(fsd.walBytes)/float64(w.durableAdds), "bytes")
	put("durable.snapshots", float64(fsd.snapshots), "count")
	put("durable.snapshot_ms", float64(fsd.snapshotNs)/1e6/float64(max(1, fsd.snapshots)), "ms")
	put("provenance.append_us", w.appendUs, "us")
	put("provenance.decode_ms", w.decodeMs, "ms")
	put("provenance.compile_ms", w.compileMs, "ms")
	put("core.compress_ms", w.compressMs, "ms")
	put("registry.create_ms", w.createMs, "ms")
	put("registry.add_us", w.addUs, "us")

	// The add stream is one long request: its spans give the stream's
	// whole time, and each add's time below the backend is the replays'.
	addStream := breakdown("add", sp.f)

	// The tails swing with host contention far more than a median does,
	// so they are reported here, unbounded, rather than gated as
	// end-to-end metrics.
	minBeyond := r.cfg.sizes.minBeyond
	wp99, err := tailQuantile(ph.whatifA.lat, 0.99, minBeyond)
	if err != nil {
		return fmt.Errorf("whatif_p99_ms: %w", err)
	}
	ap99, err := tailQuantile(ph.adds.lat, 0.99, minBeyond)
	if err != nil {
		return fmt.Errorf("add_p99_ms: %w", err)
	}
	put("whatif_p99_ms", ms(wp99), "ms")
	put("add_p99_ms", ms(ap99), "ms")
	// Wall-clock rates, best round: unlike the end-to-end rates per
	// CPU-second they count the time the host took the vCPU away, so they
	// move with the host's other tenants.
	put("whatif_rps", slices.Max(ph.rateB), "1/s")
	put("scenarios_per_s", slices.Max(ph.rateQ), "1/s")
	untraced := quantile(ph.untracedB.lat, 0.5)
	put("trace.overhead_us", us(quantile(ph.whatifB.lat, 0.5)-untraced), "us")
	put("error_rate", float64(res.Failed)/float64(max(1, res.Attempted)), "ratio")

	return r.writeTrace(res, []layerBreakdown{whatif, query, addStream}, sp)
}

// breakdown averages the self time of each span layer over one op's
// requests.
func breakdown(op string, spans []span) layerBreakdown {
	self := selfTimes(spans)[op]
	b := layerBreakdown{Op: op, Layers: map[string]float64{}}
	for layer, ds := range self {
		b.Layers[layer] = meanUs(ds)
		if layer == "client" {
			b.Count = len(ds)
		}
	}
	var client []time.Duration
	for _, s := range spans {
		if s.Op == op && s.Name == "client" {
			client = append(client, s.End-s.Start)
		}
	}
	b.Client = meanUs(client)
	return b
}

func meanUs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return us(sum) / float64(len(ds))
}

// valuation is a dense kernel valuation with a scenario's variables set;
// touched lists them.
func valuation(c *provenance.Compiled, vb *provenance.Vocab, assign map[string]float64) ([]float64, []provenance.Var) {
	val := c.NewValuation()
	var touched []provenance.Var
	for name, x := range assign {
		if v, ok := vb.Lookup(name); ok && int(v) < len(val) {
			val[v] = x
			touched = append(touched, v)
		}
	}
	return val, touched
}

// replayWhatIfs re-runs phase A's one-shots through Engine.WhatIfIn on the
// live sessions, then each scenario's delta evaluation on the live kernel,
// and returns both means in microseconds.
func replayWhatIfs(ctx context.Context, shots []oneShot, live map[*liveSession]*session.Engine) (whatifUs, deltaUs float64, err error) {
	shots = shots[:min(len(shots), replayCap)]
	var whatif, delta time.Duration
	for _, shot := range shots {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		eng := live[shot.s]
		sc := scenario(shot.assign)
		t0 := time.Now()
		if _, err := eng.WhatIfIn(semiring.KindFloat, sc); err != nil {
			return 0, 0, err
		}
		whatif += time.Since(t0)

		c := eng.Compiled()
		val, touched := valuation(c, eng.Active().Vocab, shot.assign)
		dk := c.GetDeltaEval()
		t0 = time.Now()
		dk.Eval(touched, val, nil)
		delta += time.Since(t0)
		c.PutDeltaEval(dk)
	}
	n := float64(max(1, len(shots)))
	return us(whatif) / n, us(delta) / n, nil
}

// statementReplay is what replaying phase Q's statements measured, per
// scenario unless named otherwise.
type statementReplay struct {
	scenarios               int64
	queryUs, batchUs, genUs float64
	serialBatchUs           float64 // batchUs with one worker
	kernelUs                float64 // the kernel alone, one worker: eval for SAMPLE, chained delta for grids
	evalUs, chainedUs       float64 // per SAMPLE / grid scenario
	terms                   float64
	compileUs               float64 // per statement
	allocs, bytes, gcShare  float64
}

// replayStatements re-runs every distinct statement of phase Q: whole,
// through Engine.Query; generated, through scenql.Parse, Compile and
// Plan.Iter; evaluated, through hypo.EvalBatch with Chain over the same
// micro-batches the engine uses; and scenario by scenario on the kernel.
func replayStatements(ctx context.Context, stmts []statement, queries []*liveSession, live map[*liveSession]*session.Engine) (*statementReplay, error) {
	out := &statementReplay{}
	// The whole-statement pass repeats for at least a second, so the GC
	// cycles it causes complete inside it and show in the CPU classes.
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	metrics.Read(cpu)
	gc0, total0, idle0 := cpu[0].Value.Float64(), cpu[1].Value.Float64(), cpu[2].Value.Float64()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < time.Second; pass++ {
		for _, stmt := range stmts {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res, err := live[queries[stmt.session]].Query(stmt.src)
			if err != nil {
				return nil, err
			}
			out.scenarios += res.Scenarios
		}
	}
	query := time.Since(start)
	metrics.Read(cpu)
	runtime.ReadMemStats(&ms1)
	n := float64(max(1, out.scenarios))
	out.queryUs = us(query) / n
	out.allocs = float64(ms1.Mallocs-ms0.Mallocs) / n
	out.bytes = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
	if used := (cpu[1].Value.Float64() - total0) - (cpu[2].Value.Float64() - idle0); used > 0 {
		out.gcShare = (cpu[0].Value.Float64() - gc0) / used
	}

	// The layer-by-layer passes run each distinct statement once.
	out.scenarios = 0
	var compile, gen, batch, serialBatch, eval, chained time.Duration
	var evalN, chainedN int
	var terms int64
	for _, stmt := range stmts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		eng := live[queries[stmt.session]]
		active := eng.Active()
		t0 := time.Now()
		q, err := scenql.Parse(stmt.src)
		if err != nil {
			return nil, err
		}
		plan, err := scenql.Compile(q, active.Vocab, active.Tags)
		if err != nil {
			return nil, err
		}
		compile += time.Since(t0)

		var scs []*hypo.Scenario
		it := plan.Iter()
		out.scenarios += it.Remaining()
		t0 = time.Now()
		for sc, ok := it.Next(); ok; sc, ok = it.Next() {
			scs = append(scs, sc)
		}
		gen += time.Since(t0)

		c := eng.Compiled()
		for _, workers := range []int{0, 1} {
			cs := &hypo.ChainState{}
			for i := 0; i < len(scs); i += 64 {
				t0 = time.Now()
				if _, err := hypo.EvalBatch(c, scs[i:min(i+64, len(scs))], hypo.BatchOptions{Workers: workers, Chain: true, ChainState: cs}); err != nil {
					return nil, err
				}
				if workers == 0 {
					batch += time.Since(t0)
				} else {
					serialBatch += time.Since(t0)
				}
			}
			cs.Release()
		}

		// The kernel alone: a SAMPLE scenario touches every term, so it
		// evaluates in full; a grid walks in snake order, one plan leaf
		// changing per step, so it chains deltas off the previous answers.
		dk := c.GetDeltaEval()
		var prevVal []float64
		var prev, cur []float64
		for _, sc := range scs {
			val, touched := valuation(c, active.Vocab, sc.Assign)
			_, affected := dk.Affected(touched)
			terms += int64(affected)
			if stmt.kind == "sample" {
				t0 = time.Now()
				cur = c.Eval(val, cur)
				eval += time.Since(t0)
				evalN++
				continue
			}
			if prevVal == nil {
				cur = dk.Eval(touched, val, cur)
			} else {
				var diff []provenance.Var
				for _, v := range touched {
					if val[v] != prevVal[v] {
						diff = append(diff, v)
					}
				}
				t0 = time.Now()
				cur = dk.EvalFrom(diff, val, prev, cur)
				chained += time.Since(t0)
				chainedN++
			}
			prev, cur, prevVal = cur, prev, val
		}
		c.PutDeltaEval(dk)
	}
	n = float64(max(1, out.scenarios))
	out.compileUs = us(compile) / float64(len(stmts))
	out.genUs = us(gen) / n
	out.batchUs = us(batch) / n
	out.serialBatchUs = us(serialBatch) / n
	out.evalUs = us(eval) / float64(max(1, evalN))
	out.chainedUs = us(chained) / float64(max(1, chainedN))
	out.kernelUs = (us(eval) + us(chained)) / n
	out.terms = float64(terms) / n
	return out, nil
}

// durableReplay is how many add lines the durable twin takes: enough to
// cross one WAL rotation under the shipped flush policy.
const durableReplay = flushRotateRecords + 512

// writeReplay is what the twin replays of the write and set-up paths
// measured.
type writeReplay struct {
	durable                                   fsCounts // the durable twin's filesystem work over its adds
	durableAdds                               int
	appendUs, addUs                           float64
	decodeMs, compileMs, compressMs, createMs float64
}

// replayWrites measures the set-up and write layers on twins, never on the
// measured sessions: Decode, Compile, Compress and Engine.Add on a fresh
// engine over q's (and the feed's) inputs, Registry.Create and
// Session.AddText on a durable registry with the shipped flush policy in
// a temporary directory of its own.
func (r *runner) replayWrites(ctx context.Context, q, feed *liveSession, adds []addInput, acked []int) (*writeReplay, error) {
	out := &writeReplay{}
	forest, err := trees()
	if err != nil {
		return nil, err
	}
	var decode, compile []time.Duration
	var set *provenance.Set
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if set, err = provenance.Decode(bytes.NewReader(q.in.encoded)); err != nil {
			return nil, err
		}
		decode = append(decode, time.Since(t0))
	}
	out.decodeMs = ms(quantile(decode, 0.5))
	twin, err := openForest(set, forest)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := twin.Compress(q.in.bound, session.WithStrategy(session.StrategyGreedy)); err != nil {
		return nil, err
	}
	out.compressMs = ms(time.Since(t0))
	for i := 0; i < 3; i++ {
		active := twin.Active().Clone()
		t0 := time.Now()
		active.Compile()
		compile = append(compile, time.Since(t0))
	}
	out.compileMs = ms(quantile(compile, 0.5))

	replay := acked[:min(len(acked), replayCap)]
	fresh, err := openFresh(feed, forest)
	if err != nil {
		return nil, err
	}
	if _, err := fresh.WhatIfIn(semiring.KindFloat, hypo.NewScenario()); err != nil {
		return nil, err
	}
	var appendT time.Duration
	for _, i := range replay {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := fresh.ParsePoly(adds[i].poly)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		fresh.Add(adds[i].tag, p)
		appendT += time.Since(t0)
	}
	out.appendUs = us(appendT) / float64(max(1, len(replay)))

	if err := os.MkdirAll(r.cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(r.cfg.workDir, "walroot-twin-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	fs := &countingFS{}
	reg := registry.New()
	if err := reg.EnableDurability(filepath.Join(root, "twin"), durable.Options{
		FS: fs, GroupWindow: flushGroupWindow, RotateRecords: flushRotateRecords,
	}); err != nil {
		return nil, err
	}
	defer reg.Shutdown() //nolint:errcheck // the twin's directory is removed next
	feedSet, err := provenance.Decode(bytes.NewReader(feed.in.encoded))
	if err != nil {
		return nil, err
	}
	f, err := parseForest(forest)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	sess, err := reg.Create("twin", feedSet, f)
	if err != nil {
		return nil, err
	}
	out.createMs = ms(time.Since(t0))
	if _, err := sess.Engine().Compress(feed.in.bound, session.WithStrategy(session.StrategyGreedy)); err != nil {
		return nil, err
	}
	// The run's add lines, cycled under fresh tags until a rotation.
	var addT time.Duration
	start := fs.counts()
	for n := 0; n < durableReplay && len(adds) > 0; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a := adds[n%len(adds)]
		t0 := time.Now()
		if err := sess.AddText(fmt.Sprintf("%s-%d", a.tag, n), a.poly); err != nil {
			return nil, err
		}
		addT += time.Since(t0)
		out.durableAdds++
	}
	out.durable = fs.counts().minus(start)
	out.addUs = us(addT) / float64(max(1, out.durableAdds))
	out.durableAdds = max(1, out.durableAdds)
	return out, nil
}

func parseForest(forest []string) (*abstree.Forest, error) {
	ts := make([]*abstree.Tree, len(forest))
	for i, src := range forest {
		t, err := abstree.ParseTree(src)
		if err != nil {
			return nil, err
		}
		ts[i] = t
	}
	return abstree.NewForest(ts...)
}

func openForest(set *provenance.Set, forest []string) (*session.Engine, error) {
	f, err := parseForest(forest)
	if err != nil {
		return nil, err
	}
	return session.Open(set, f)
}

// writeTrace writes the traced run's spans, breakdowns, metrics and
// environment to the work directory.
func (r *runner) writeTrace(res *result, breakdowns []layerBreakdown, sp tracedSpans) error {
	dir := filepath.Join(r.cfg.workDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.cfg.workload.name, r.cfg.seed))
	raw, err := json.MarshalIndent(map[string]any{
		"env":        res.env,
		"metrics":    res.Metrics,
		"breakdowns": breakdowns,
		"spans": map[string][]span{
			"a": sp.a, "q": sp.q, "b": sp.b, "f": sp.f,
		},
	}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	r.logf("trace written to %s", path)
	return nil
}
