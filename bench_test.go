// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4.3, Appendix B) at CI scale, and the benchmarks of the kernel's and
// planner's gains. Each BenchmarkFigN/BenchmarkTableN target measures the
// operations the corresponding plot times; the full sweeps with the
// paper's row/series layout are produced by cmd/provbench. Each gain that
// justifies live code (delta routing, the delta kernel, chained deltas,
// adaptive routing, in-place appends, the bulk float kernels) is a pair of
// arms, benchmarked on telco-s and Q5, and TestRatioFloors fails when the
// ratio of a pair on telco-s falls under its floor.
package provabs_test

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/bench"
	"provabs/internal/core"
	"provabs/internal/durable"
	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/sampling"
	"provabs/internal/session"
	"provabs/internal/summarize"
	"provabs/internal/telco"
	"provabs/internal/tpch"
	"provabs/internal/treegen"
)

var (
	loadOnce  sync.Once
	workloads map[string]*bench.Workload
	loadErr   error
)

func load(b *testing.B, name string) *bench.Workload {
	b.Helper()
	loadOnce.Do(func() {
		ws, err := bench.LoadWorkloads(bench.DefaultScale())
		if err != nil {
			loadErr = err
			return
		}
		workloads = map[string]*bench.Workload{}
		for _, w := range ws {
			workloads[w.Name] = w
		}
	})
	if loadErr != nil {
		b.Fatal(loadErr)
	}
	w, ok := workloads[name]
	if !ok {
		b.Fatalf("no workload %q", name)
	}
	return w
}

func benchOpt(b *testing.B, w *bench.Workload, shape treegen.Shape) {
	b.Helper()
	tree := w.Tree(shape)
	B := w.Set.Size() / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.OptimalVVS(w.Set, tree, B); err != nil {
			b.Fatal(err)
		}
	}
}

func benchGreedy(b *testing.B, w *bench.Workload, shape treegen.Shape) {
	b.Helper()
	forest := w.Forest(shape)
	B := w.Set.Size() / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyVVS(w.Set, forest, B); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 times Opt, Greedy and Brute-Force on 2-level (type 1)
// trees for all four workloads — the quantities on Figure 5's y-axes.
func BenchmarkFig5(b *testing.B) {
	shape := treegen.SmallestOfType(1)
	for _, name := range []string{"Q5", "Q10", "Q1", "telco"} {
		w := load(b, name)
		b.Run(name+"/opt", func(b *testing.B) { benchOpt(b, w, shape) })
		b.Run(name+"/greedy", func(b *testing.B) { benchGreedy(b, w, shape) })
		b.Run(name+"/brute", func(b *testing.B) {
			forest := w.Forest(shape)
			B := w.Set.Size() / 2
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := core.BruteForceVVS(w.Set, forest, B, bench.BruteLimit)
				if err != nil && err != core.ErrNoAdequate {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6 times Opt and Greedy on 3-level trees (types 2–4), Q5.
func BenchmarkFig6(b *testing.B) {
	w := load(b, "Q5")
	for _, typ := range []int{2, 3, 4} {
		shape := treegen.SmallestOfType(typ)
		b.Run("type"+itoa(typ)+"/opt", func(b *testing.B) { benchOpt(b, w, shape) })
		b.Run("type"+itoa(typ)+"/greedy", func(b *testing.B) { benchGreedy(b, w, shape) })
	}
}

// BenchmarkFig7 times Opt and Greedy on 4-level trees (types 5–7), Q5.
func BenchmarkFig7(b *testing.B) {
	w := load(b, "Q5")
	for _, typ := range []int{5, 6, 7} {
		shape := treegen.SmallestOfType(typ)
		b.Run("type"+itoa(typ)+"/opt", func(b *testing.B) { benchOpt(b, w, shape) })
		b.Run("type"+itoa(typ)+"/greedy", func(b *testing.B) { benchGreedy(b, w, shape) })
	}
}

// BenchmarkFig8 times compression across growing input data sizes (telco).
func BenchmarkFig8(b *testing.B) {
	shape := treegen.SmallestOfType(1)
	sc := bench.DefaultScale()
	for _, mult := range []int{1, 2, 4} {
		w, err := bench.LoadWorkload("telco", bench.Scale{
			TPCHScaleFactor: sc.TPCHScaleFactor,
			TelcoCustomers:  sc.TelcoCustomers * mult,
			TelcoZips:       sc.TelcoZips,
			Seed:            sc.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("x"+itoa(mult)+"/opt", func(b *testing.B) { benchOpt(b, w, shape) })
	}
}

// BenchmarkFig9 times Opt and Greedy at tight and loose bounds — the
// paper's finding is that only the greedy's time depends on the bound.
func BenchmarkFig9(b *testing.B) {
	w := load(b, "Q5")
	shape := treegen.SmallestOfType(1)
	tree := w.Tree(shape)
	forest := w.Forest(shape)
	bounds := bench.BoundSweep(w, shape, 3)
	for i, B := range bounds {
		B := B
		tag := []string{"tight", "mid", "loose"}[i%3]
		b.Run("opt/"+tag, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.OptimalVVS(w.Set, tree, B); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("greedy/"+tag, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.GreedyVVS(w.Set, forest, B); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10 times scenario assignment on original vs compressed
// provenance — the source of Figure 10's speedup percentages.
func BenchmarkFig10(b *testing.B) {
	for _, name := range []string{"Q5", "Q10", "Q1", "telco"} {
		w := load(b, name)
		res, err := core.OptimalVVS(w.Set, w.Tree(treegen.SmallestOfType(1)), w.Set.Size()/2)
		if err != nil {
			b.Fatal(err)
		}
		abs := res.VVS.Apply(w.Set)
		val := func(s *provenance.Set) map[provenance.Var]float64 {
			m := map[provenance.Var]float64{}
			for i, v := range s.Vars() {
				m[v] = 0.5 + float64(i%7)/8
			}
			return m
		}
		vo, va := val(w.Set), val(abs)
		po, pa := mapPolys(w.Set), mapPolys(abs)
		b.Run(name+"/original", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				evalPolys(po, vo)
			}
		})
		b.Run(name+"/compressed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				evalPolys(pa, va)
			}
		})
	}
}

// mapPolys returns the set's members in their map form, which the
// map-based evaluation benchmarks run on.
func mapPolys(s *provenance.Set) []*provenance.Polynomial {
	out := make([]*provenance.Polynomial, s.Len())
	for i := range out {
		out[i] = s.Poly(i)
	}
	return out
}

// evalPolys evaluates every polynomial on its map form.
func evalPolys(ps []*provenance.Polynomial, val map[provenance.Var]float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.Eval(val)
	}
	return out
}

// BenchmarkCompiledEval compares map-based evaluation (Polynomial.Eval on
// every member) against the compiled dense-array path on the telco and
// TPC-H workloads, single scenario and 100-scenario batch (sequential and
// parallel). The compiled
// batch is the production what-if path; the acceptance target is ≥2× over
// map-based evaluation on 100 telco scenarios.
func BenchmarkCompiledEval(b *testing.B) {
	const nScenarios = 100
	for _, name := range []string{"telco", "Q5", "Q1"} {
		w := load(b, name)
		compiled := w.Set.Compile()
		val := map[provenance.Var]float64{}
		for i, v := range w.Set.Vars() {
			val[v] = 0.5 + float64(i%7)/8
		}
		dense := compiled.Valuation(val)
		scenarios := make([]*hypo.Scenario, nScenarios)
		for i := range scenarios {
			sc := hypo.NewScenario()
			for j, v := range w.Set.Vars() {
				sc.Set(w.Set.Vocab.Name(v), 0.5+float64((i+j)%9)/8)
			}
			scenarios[i] = sc
		}
		polys := mapPolys(w.Set)
		b.Run(name+"/map", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				evalPolys(polys, val)
			}
		})
		b.Run(name+"/compiled", func(b *testing.B) {
			var out []float64
			for i := 0; i < b.N; i++ {
				out = compiled.Eval(dense, out)
			}
		})
		b.Run(name+"/map-batch100", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for range scenarios {
					evalPolys(polys, val)
				}
			}
		})
		b.Run(name+"/compiled-batch100-serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hypo.EvalBatch(compiled, scenarios, hypo.BatchOptions{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/compiled-batch100-parallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hypo.EvalBatch(compiled, scenarios, hypo.BatchOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var (
	telcoSOnce sync.Once
	telcoSW    *bench.Workload
	telcoSErr  error
)

// telcoS is telco-s, the set the kernel's and planner's gains are
// measured on: 2,000 customers over 200 zips and 128 plans (200
// polynomials, 23,028 terms), the shape perfbench's interactive workload
// serves.
func telcoS(tb testing.TB) *bench.Workload {
	tb.Helper()
	telcoSOnce.Do(func() {
		var set *provenance.Set
		set, telcoSErr = telco.SyntheticProvenance(telco.Config{Customers: 2000, Zips: 200, Plans: 128, Months: 12, Seed: 1})
		telcoSW = &bench.Workload{Name: "telco-s", Set: set, LeafPrefix: "pl", LeafCount: 128}
	})
	if telcoSErr != nil {
		tb.Fatal(telcoSErr)
	}
	return telcoSW
}

// sparsePanels are the two sets each gain is benchmarked on: telco-s and
// Q5 at SF 0.002.
func sparsePanels(b *testing.B) []*bench.Workload {
	return []*bench.Workload{telcoS(b), load(b, "Q5")}
}

// leaves returns the names and variables of w's first k leaves: plans
// pl0, pl1, … on telco, suppliers s0, s1, … on TPC-H.
func leaves(tb testing.TB, w *bench.Workload, k int) ([]string, []provenance.Var) {
	tb.Helper()
	var names []string
	var vars []provenance.Var
	for i := 0; len(names) < k && i < w.LeafCount; i++ {
		if v, ok := w.Set.Vocab.Lookup(w.LeafPrefix + itoa(i)); ok {
			names, vars = append(names, w.LeafPrefix+itoa(i)), append(vars, v)
		}
	}
	if len(names) < k {
		tb.Fatalf("%s has %d of %d leaf variables", w.Name, len(names), k)
	}
	return names, vars
}

// An op is one operation of a benchmark arm.
type op func() error

// runOp times op as a benchmark arm.
func runOp(b *testing.B, f op) {
	b.ReportAllocs()
	for b.Loop() {
		if err := f(); err != nil {
			b.Fatal(err)
		}
	}
}

// batchOp is one EvalBatch of batch on k.
func batchOp[T any, C provenance.Carrier[T]](k *provenance.Kernel[T, C], batch []*hypo.Scenario, opts hypo.BatchOptions) op {
	return func() error {
		_, err := hypo.EvalBatch(k, batch, opts)
		return err
	}
}

// sparseBatch is 100 one-variable scenarios cycling over w's first four
// leaves, each setting its leaf to 0.8.
func sparseBatch(tb testing.TB, w *bench.Workload) []*hypo.Scenario {
	names, _ := leaves(tb, w, 4)
	batch := make([]*hypo.Scenario, 100)
	for i := range batch {
		batch[i] = hypo.NewScenario().Set(names[i%len(names)], 0.8)
	}
	return batch
}

// routingPair returns sparseBatch through EvalBatch on one worker, with
// the delta path disabled (DeltaCutoff -1) and with default routing.
func routingPair(tb testing.TB, w *bench.Workload) (nodelta, routed op) {
	c, batch := w.Set.Compile(), sparseBatch(tb, w)
	return batchOp(c, batch, hypo.BatchOptions{Workers: 1, DeltaCutoff: -1}),
		batchOp(c, batch, hypo.BatchOptions{Workers: 1})
}

// BenchmarkEvalBatchSparse measures what delta routing saves EvalBatch on
// a sparse batch: 100 one-variable scenarios on one worker, routed by
// default against DeltaCutoff -1, which evaluates every scenario in full.
func BenchmarkEvalBatchSparse(b *testing.B) {
	for _, w := range sparsePanels(b) {
		nodelta, routed := routingPair(b, w)
		b.Run(w.Name+"/routed", func(b *testing.B) { runOp(b, routed) })
		b.Run(w.Name+"/nodelta", func(b *testing.B) { runOp(b, nodelta) })
	}
}

// deltaPair returns a full evaluation of w's set and its delta evaluation
// (DeltaKernel) under one scenario: w's first k leaves at 0.8.
func deltaPair(tb testing.TB, w *bench.Workload, k int) (full, delta op) {
	c := w.Set.Compile()
	_, touched := leaves(tb, w, k)
	val := c.NewValuation()
	for _, v := range touched {
		val[v] = 0.8
	}
	d := c.NewDeltaEval()
	c.Baseline()
	var fullOut, deltaOut []float64
	return func() error { fullOut = c.Eval(val, fullOut); return nil },
		func() error { deltaOut = d.Eval(touched, val, deltaOut); return nil }
}

// BenchmarkDeltaEval compares full compiled evaluation against the
// delta-aware path on sparse scenarios that touch one and four leaf
// variables.
func BenchmarkDeltaEval(b *testing.B) {
	for _, w := range sparsePanels(b) {
		full, _ := deltaPair(b, w, 1)
		b.Run(w.Name+"/full", func(b *testing.B) { runOp(b, full) })
		for _, k := range []int{1, 4} {
			_, delta := deltaPair(b, w, k)
			b.Run(w.Name+"/delta-touch"+itoa(k), func(b *testing.B) { runOp(b, delta) })
		}
	}
}

// walkStream is a correlated stream of 100 scenarios over w's first four
// leaves: each assigns all four, and each step changes one of them, the
// shape of an interactive what-if session.
func walkStream(tb testing.TB, w *bench.Workload) []*hypo.Scenario {
	names, _ := leaves(tb, w, 4)
	cur := make([]float64, len(names))
	for i := range cur {
		cur[i] = 0.5 + float64(i)/8
	}
	stream := make([]*hypo.Scenario, 100)
	for i := range stream {
		cur[i%len(cur)] = 0.5 + float64(i%9)/8
		sc := hypo.NewScenario()
		for j, name := range names {
			sc.Set(name, cur[j])
		}
		stream[i] = sc
	}
	return stream
}

// chainPair returns walkStream through EvalBatch on one worker as a plain
// batch, each scenario a delta against the identity baseline, and as a
// chained one (BatchOptions.Chain), each a delta against the answers of
// the scenario before it. DeltaCutoff 0.99 keeps both on the delta path.
func chainPair(tb testing.TB, w *bench.Workload) (identity, chained op) {
	c, stream := w.Set.Compile(), walkStream(tb, w)
	return batchOp(c, stream, hypo.BatchOptions{Workers: 1, DeltaCutoff: 0.99}),
		batchOp(c, stream, hypo.BatchOptions{Workers: 1, DeltaCutoff: 0.99, Chain: true})
}

// BenchmarkChainedStream measures a correlated what-if stream through the
// chained batch path against the identity-baseline delta path: the
// Engine.StreamIn micro-batch comparison.
func BenchmarkChainedStream(b *testing.B) {
	for _, w := range sparsePanels(b) {
		identity, chained := chainPair(b, w)
		b.Run(w.Name+"/chained", func(b *testing.B) { runOp(b, chained) })
		b.Run(w.Name+"/identity", func(b *testing.B) { runOp(b, identity) })
	}
}

// mixedDensity is the set and batch the adaptive router is measured on.
// The set is 400 polynomials of 24 terms, each term with its own detail
// variable, and a hub variable in every term of 60 % of them. A hub
// scenario recomputes 60 % of the terms: past DefaultDeltaCutoff, so the
// static cutoff evaluates it in full, yet the delta path still wins there.
// The batch alternates hub scenarios with one-polynomial ones.
func mixedDensity() (*provenance.Compiled, []*hypo.Scenario) {
	const nPolys = 400
	vb := provenance.NewVocab()
	hub := vb.Var("hub")
	set := provenance.NewSet(vb)
	rng := rand.New(rand.NewSource(11))
	for i := range nPolys {
		p := provenance.NewPolynomial()
		own := vb.Var("s" + itoa(i))
		for t := range 24 {
			detail := vb.Var("d" + itoa(i) + "_" + itoa(t))
			if i%10 < 6 {
				p.AddTerm(1+rng.Float64(), hub, own, detail)
			} else {
				p.AddTerm(1+rng.Float64(), own, detail)
			}
		}
		set.Add("g"+itoa(i), p)
	}
	batch := make([]*hypo.Scenario, 100)
	for i := range batch {
		if i%2 == 0 {
			batch[i] = hypo.NewScenario().Set("hub", 0.8)
		} else {
			batch[i] = hypo.NewScenario().Set("s"+itoa(i%nPolys), 1.2)
		}
	}
	return set.Compile(), batch
}

// adaptivePair returns the mixed-density batch through EvalBatch on one
// worker, routed by the static DefaultDeltaCutoff and by the adaptive
// cost model, whose state (model) is trained on eight batches first.
func adaptivePair(tb testing.TB) (static, adaptive op, model *hypo.BatchCounters) {
	c, batch := mixedDensity()
	model = &hypo.BatchCounters{}
	trained := hypo.BatchOptions{Workers: 1, Counters: model}
	for range 8 {
		if _, err := hypo.EvalBatch(c, batch, trained); err != nil {
			tb.Fatal(err)
		}
	}
	return batchOp(c, batch, hypo.BatchOptions{Workers: 1, DeltaCutoff: hypo.DefaultDeltaCutoff}),
		batchOp(c, batch, trained), model
}

// BenchmarkAdaptiveRouting measures the adaptive router against the static
// cutoff on the mixed-density batch, and reports the cutoff the model
// learned (the hub scenarios' density is 0.6).
func BenchmarkAdaptiveRouting(b *testing.B) {
	static, adaptive, model := adaptivePair(b)
	b.Run("adaptive", func(b *testing.B) {
		runOp(b, adaptive)
		b.ReportMetric(model.AdaptiveCutoff(), "cutoff")
	})
	b.Run("static", func(b *testing.B) { runOp(b, static) })
}

// appendPair returns two ways to add a two-term polynomial over w's first
// two leaves to a copy of w's set whose index and baseline are built:
// Set.Add, which patches both in place (Kernel.Append), and Set.Add
// followed by the re-index that patch saves: DropIndex, NewDeltaEval and
// Baseline. Both arms grow the same copy.
func appendPair(tb testing.TB, w *bench.Workload) (reindex, patch op) {
	_, vars := leaves(tb, w, 2)
	poly := provenance.NewPolynomial()
	poly.AddTerm(2, vars[0])
	poly.AddTerm(3, vars[0], vars[1])
	set := w.Set.Clone()
	c := set.Compiled()
	c.NewDeltaEval()
	c.Baseline()
	reindex = func() error {
		set.Add("bench", poly)
		c.DropIndex()
		c.NewDeltaEval()
		c.Baseline()
		return nil
	}
	patch = func() error {
		set.Add("bench", poly)
		return nil
	}
	return reindex, patch
}

// BenchmarkCompiledAppend measures what Kernel.Append's in-place patch of
// the index and baseline saves one Set.Add on a session's live kernel.
// Each arm starts again from a fresh copy, outside the timer, every 4,096
// adds, so a long -benchtime run cannot grow the set without bound.
func BenchmarkCompiledAppend(b *testing.B) {
	for _, w := range sparsePanels(b) {
		for _, arm := range []string{"append", "reindex"} {
			b.Run(w.Name+"/"+arm, func(b *testing.B) {
				var add op
				for i := 0; i < b.N; i++ {
					if i%4096 == 0 {
						b.StopTimer()
						reindex, patch := appendPair(b, w)
						add = patch
						if arm == "reindex" {
							add = reindex
						}
						b.StartTimer()
					}
					if err := add(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// addLine is one add line in perfbench's feed shape: one or two terms,
// each a plan × month product with a two-decimal coefficient.
type addLine struct{ tag, poly string }

func addLines(n int) []addLine {
	rng := rand.New(rand.NewSource(7))
	out := make([]addLine, n)
	for i := range out {
		terms := make([]string, 1+rng.Intn(2))
		for t := range terms {
			terms[t] = strconv.FormatFloat(float64(100+rng.Intn(60000))/100, 'g', -1, 64) + "*" +
				telco.PlanVar(rng.Intn(128)) + "*" + telco.MonthVar(1+rng.Intn(12))
		}
		out[i] = addLine{"a" + itoa(i), strings.Join(terms, " + ")}
	}
	return out
}

// addSession compresses set with greedy at B = |P|/2 on perfbench's trees
// (the 2×64 plans tree and the quarter tree) and returns a function that
// restores a fresh copy of that session with its index and baseline
// built, as a session fed adds after its first what-if has them.
func addSession(tb testing.TB, set *provenance.Set) func() *session.Engine {
	tb.Helper()
	plans, err := telco.PlansTree(treegen.Shape{Type: 1, Fanouts: []int{2, 64}})
	if err != nil {
		tb.Fatal(err)
	}
	forest := abstree.MustForest(plans, telco.QuarterTree())
	e, err := session.Open(set.Clone(), forest)
	if err != nil {
		tb.Fatal(err)
	}
	comp, err := e.Compress(set.Size()/2, session.WithStrategy(session.StrategyGreedy))
	if err != nil {
		tb.Fatal(err)
	}
	trees := []string{plans.String(), telco.QuarterTree().String()}
	return func() *session.Engine {
		e, err := session.Restore(&session.SnapshotState{
			Source: e.Source().Clone(), Active: comp.Abstracted.Clone(),
			Compressed: true, Strategy: comp.Strategy, ML: comp.ML, VL: comp.VL, Adequate: comp.Adequate,
			Subst: comp.Subst, Trees: trees,
		})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := e.WhatIf(hypo.NewScenario().Set("m3", 0.8)); err != nil {
			tb.Fatal(err)
		}
		return e
	}
}

// BenchmarkAdd times one add line's engine cost, Engine.AddText (parse,
// abstract under the compression's substitution, append to the source and
// active kernels, their index and baseline), on greedy-compressed telco-s
// (200 polynomials) and telco-m (2,000). Each arm starts again from a
// fresh copy, outside the timer, every 16,384 adds: often enough that the
// session stays near its size, and seldom enough that the first add's
// copy of every array the restore sized exactly, which a long-lived
// session pays once, stays a small share of an add.
func BenchmarkAdd(b *testing.B) {
	const run = 1 << 14
	lines := addLines(1024)
	for _, tc := range []struct {
		name string
		set  func() *provenance.Set
	}{
		{"telco-s", func() *provenance.Set { return telcoS(b).Set }},
		{"telco-m", func() *provenance.Set { s, _, _ := telcoM(b); return s }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			fresh := addSession(b, tc.set())
			var e *session.Engine
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%run == 0 {
					b.StopTimer()
					e = fresh()
					b.StartTimer()
				}
				l := lines[i%len(lines)]
				if err := e.AddText(l.tag, l.poly); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAddAllocs bounds the allocations of one add line's engine cost
// (BenchmarkAdd's telco-s arm): the session's arrays, index lists and
// tags grow by appending, so an add allocates only when one of them
// outgrows its room.
func TestAddAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates behind the test's back")
	}
	const maxAllocs = 1
	lines := addLines(1024)
	e := addSession(t, telcoS(t).Set)()
	i := 0
	add := func() {
		l := lines[i%len(lines)]
		if err := e.AddText(l.tag, l.poly); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range 64 {
		add() // new names, first growth of the scratch
	}
	if got := testing.AllocsPerRun(1000, add); got > maxAllocs {
		t.Errorf("%.2f allocations per add, want at most %d", got, maxAllocs)
	}
}

// genericFloat is provenance.Float without its bulk kernels: every method
// delegates through a field, since embedding Float would promote its
// unexported bulk methods and put the carrier back on the bulk path. It
// costs what any carrier without bulk kernels pays: the generic per-term
// loop.
type genericFloat struct{ f provenance.Float }

func (g genericFloat) Zero() float64                        { return g.f.Zero() }
func (g genericFloat) One() float64                         { return g.f.One() }
func (g genericFloat) Add(a, b float64) float64             { return g.f.Add(a, b) }
func (g genericFloat) Mul(a, b float64) float64             { return g.f.Mul(a, b) }
func (g genericFloat) NAdd(n int64, x float64) float64      { return g.f.NAdd(n, x) }
func (g genericFloat) Equal(a, b float64) bool              { return g.f.Equal(a, b) }
func (g genericFloat) FromCoeff(c float64) (float64, error) { return g.f.FromCoeff(c) }
func (g genericFloat) Value(x float64) (float64, error)     { return g.f.Value(x) }

// bulkFloatPair returns sparseBatch through EvalBatch on one worker, on
// w's set compiled into genericFloat and into provenance.Float.
func bulkFloatPair(tb testing.TB, w *bench.Workload) (generic, bulk op) {
	g, err := provenance.CompileSet[float64](genericFloat{}, w.Set)
	if err != nil {
		tb.Fatal(err)
	}
	batch := sparseBatch(tb, w)
	return batchOp(g, batch, hypo.BatchOptions{Workers: 1}),
		batchOp(w.Set.Compile(), batch, hypo.BatchOptions{Workers: 1})
}

// BenchmarkBulkFloat measures what the bulk float kernels save against the
// generic per-term loop, on the sparse batch.
func BenchmarkBulkFloat(b *testing.B) {
	for _, w := range sparsePanels(b) {
		generic, bulk := bulkFloatPair(b, w)
		b.Run(w.Name+"/bulk", func(b *testing.B) { runOp(b, bulk) })
		b.Run(w.Name+"/generic", func(b *testing.B) { runOp(b, generic) })
	}
}

// TestRatioFloors re-times, on telco-s, each pair of arms above whose
// ratio justifies live code, and fails when the ratio falls under its
// floor. The floors sit well under the ratios measured when they were set
// (README's Performance section lists both), so that a lost gain fails
// and a noisy machine does not; adaptive routing's floor says only that it is not slower than
// the static cutoff beyond noise. Each arm's time is the fastest of five
// runs of a fixed number of operations, alternating with the other arm's.
func TestRatioFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("times the kernel; skipped with -short")
	}
	if raceEnabled {
		t.Skip("the race detector distorts the timings")
	}
	w := telcoS(t)
	nodelta, routed := routingPair(t, w)
	full, delta := deltaPair(t, w, 1)
	identity, chained := chainPair(t, w)
	static, adaptive, model := adaptivePair(t)
	reindex, patch := appendPair(t, w)
	generic, bulk := bulkFloatPair(t, w)
	for _, r := range []struct {
		name       string
		slow, fast op
		n          int     // operations per timed run
		floor      float64 // the least slow/fast that passes
	}{
		{"delta routing in EvalBatch (nodelta/routed)", nodelta, routed, 4, 3},
		{"DeltaKernel (full/one touched variable)", full, delta, 200, 3},
		{"chained deltas (identity/chained)", identity, chained, 8, 1.5},
		{"adaptive routing (static/adaptive)", static, adaptive, 8, 0.9},
		{"Kernel.Append's patch (reindex/patch)", reindex, patch, 16, 10},
		{"bulk float kernels (generic/bulk)", generic, bulk, 4, 2},
	} {
		ratio := timeRatio(t, r.slow, r.fast, r.n)
		t.Logf("%s: %.2f× (floor %g×)", r.name, ratio, r.floor)
		if ratio < r.floor {
			t.Errorf("%s: %.2f×, under its floor of %g×", r.name, ratio, r.floor)
		}
	}
	t.Logf("adaptive routing's learned cutoff: %.2f", model.AdaptiveCutoff())
}

// timeRatio runs slow and fast once each untimed, then times each as the
// fastest of five runs of n operations, alternating the two, and returns
// slow's time over fast's.
func timeRatio(tb testing.TB, slow, fast op, n int) float64 {
	tb.Helper()
	arms := [2]op{slow, fast}
	for _, f := range arms {
		if err := f(); err != nil {
			tb.Fatal(err)
		}
	}
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	for range 5 {
		for i, f := range arms {
			start := time.Now()
			for range n {
				if err := f(); err != nil {
					tb.Fatal(err)
				}
			}
			best[i] = min(best[i], time.Since(start))
		}
	}
	return float64(best[0]) / float64(best[1])
}

// BenchmarkShardedScenario measures one scenario's full evaluation with
// its polynomial range split over 1, 2 and 4 goroutines (EvalSharded): the
// path EvalBatch takes when a batch has fewer scenarios than workers and
// the scenario recomputes at least hypo.ShardMinTerms terms. The panels
// are telco and perfbench's sweep kernel, the greedy-compressed telco-m
// set. At -cpu 2 on a 2-vCPU AMD EPYC VM, two workers took the telco-m
// kernel from 160–173 to 95–104 µs, and telco only from 11.5–12.2 to
// 10.9–12.2 µs; at GOMAXPROCS 1 the extra workers only add their overhead.
func BenchmarkShardedScenario(b *testing.B) {
	s, forest, B := telcoM(b)
	comp, err := core.GreedyCompressor().Compress(s, forest, B)
	if err != nil {
		b.Fatal(err)
	}
	for _, panel := range []struct {
		name string
		set  *provenance.Set
	}{{"telco", load(b, "telco").Set}, {"telco-m-compressed", comp.Abstracted}} {
		compiled := panel.set.Compile()
		val := map[provenance.Var]float64{}
		for i, v := range panel.set.Vars() {
			val[v] = 0.5 + float64(i%7)/8
		}
		dense := compiled.Valuation(val)
		for _, workers := range []int{1, 2, 4} {
			b.Run(panel.name+"/workers"+itoa(workers), func(b *testing.B) {
				var out []float64
				for i := 0; i < b.N; i++ {
					out = compiled.EvalSharded(dense, out, workers)
				}
			})
		}
	}
}

var (
	telcoMOnce   sync.Once
	telcoMSet    *provenance.Set
	telcoMForest *abstree.Forest
	telcoMErr    error
)

// telcoM builds the session perfbench's sweep workload compresses: telco-m
// (20,000 customers over 2,000 zips, 230k monomials), the Table 2 type 1
// plans tree 2×64 plus the quarter tree, compressed to B = |P|/2.
func telcoM(b *testing.B) (*provenance.Set, *abstree.Forest, int) {
	b.Helper()
	telcoMOnce.Do(func() {
		telcoMSet, telcoMErr = telco.SyntheticProvenance(telco.Config{Customers: 20000, Zips: 2000, Plans: 128, Months: 12, Seed: 1000})
		if telcoMErr != nil {
			return
		}
		var plans *abstree.Tree
		if plans, telcoMErr = telco.PlansTree(treegen.Shape{Type: 1, Fanouts: []int{2, 64}}); telcoMErr != nil {
			return
		}
		telcoMForest, telcoMErr = abstree.NewForest(plans, telco.QuarterTree())
	})
	if telcoMErr != nil {
		b.Fatal(telcoMErr)
	}
	return telcoMSet, telcoMForest, telcoMSet.Size() / 2
}

// BenchmarkCompress times one whole compression, abstracted set included:
// greedy on telco-m at perfbench's shape, and optimal on Q5's type 1 tree.
func BenchmarkCompress(b *testing.B) {
	b.Run("greedy-telco-m", func(b *testing.B) {
		s, forest, B := telcoM(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.GreedyCompressor().Compress(s, forest, B); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimal-Q5", func(b *testing.B) {
		w := load(b, "Q5")
		forest := w.Forest(treegen.SmallestOfType(1))
		B := w.Set.Size() / 2
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.OptimalCompressor().Compress(w.Set, forest, B); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecode times provenance.Decode on telco-m as Encode writes it:
// the bytes a create body's provenance_b64 carries.
func BenchmarkDecode(b *testing.B) {
	s, _, _ := telcoM(b)
	var buf bytes.Buffer
	if err := provenance.Encode(&buf, s); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := provenance.Decode(bytes.NewReader(enc)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpen times session.Open on telco-m with perfbench's forest; Open
// does nothing but check the forest's compatibility with the set. The set
// is built in code, so the check compiles it in the first iteration, once;
// every later iteration walks that kernel, as Open does on a decoded set
// (BenchmarkSetup's open step).
func BenchmarkOpen(b *testing.B) {
	s, forest, _ := telcoM(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := session.Open(s, forest); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSetup is the in-process mirror of perfbench's set-up. Starting
// from telco-m and telco-s as Encode writes them (the bytes a create
// body's provenance_b64 carries), it times each step of a session's
// set-up as its own sub-benchmark, on the state the step before leaves:
// DecodeBytes; session.Open with perfbench's forest (the plans tree 2×64
// and the quarter tree); greedy Compress at B = |P|/2; the abstracted
// set's variable count, which the compress response reports; and the
// first WhatIf, which evaluates the abstracted set. A last step times the
// way back: DecodeSnapshot and session.Restore of the compressed session's
// snapshot, the path of durable recovery and of an import. The steps
// after open rebuild that state with the timer stopped, so give them a
// fixed count: go test -run '^$' -bench BenchmarkSetup -benchtime 10x.
func BenchmarkSetup(b *testing.B) {
	medium, forest, _ := telcoM(b)
	small, err := telco.SyntheticProvenance(telco.Config{Customers: 2000, Zips: 200, Plans: 128, Months: 12, Seed: 1000})
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []struct {
		name string
		src  *provenance.Set
	}{{"telco-m", medium}, {"telco-s", small}} {
		src := size.src
		var buf bytes.Buffer
		if err := provenance.Encode(&buf, src); err != nil {
			b.Fatal(err)
		}
		enc, bound := buf.Bytes(), src.Size()/2
		open := func(b *testing.B) *session.Engine {
			set, err := provenance.DecodeBytes(enc)
			if err != nil {
				b.Fatal(err)
			}
			e, err := session.Open(set, forest)
			if err != nil {
				b.Fatal(err)
			}
			return e
		}
		compress := func(b *testing.B, e *session.Engine) *core.Compression {
			comp, err := e.Compress(bound, session.WithStrategy(session.StrategyGreedy))
			if err != nil {
				b.Fatal(err)
			}
			return comp
		}
		b.Run(size.name+"/decode", func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := provenance.DecodeBytes(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(size.name+"/open", func(b *testing.B) {
			set, err := provenance.DecodeBytes(enc)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := session.Open(set, forest); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(size.name+"/compress", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := open(b)
				b.StartTimer()
				compress(b, e)
			}
		})
		b.Run(size.name+"/varcount", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				comp := compress(b, open(b))
				b.StartTimer()
				comp.Abstracted.VarCount()
			}
		})
		b.Run(size.name+"/whatif", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := open(b)
				compress(b, e)
				b.StartTimer()
				if _, err := e.WhatIf(hypo.NewScenario()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(size.name+"/restore", func(b *testing.B) {
			e := open(b)
			compress(b, e)
			var snap bytes.Buffer
			if err := e.WithState(func(st *session.SnapshotState) error {
				return durable.EncodeSnapshot(&snap, st, 1)
			}); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(snap.Len()))
			b.ReportAllocs()
			for b.Loop() {
				st, _, err := durable.DecodeSnapshot(bytes.NewReader(snap.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := session.Restore(st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile isolates the one-time compilation cost that the batch
// path amortizes; telco-m is the set perfbench's sweep session starts from.
func BenchmarkCompile(b *testing.B) {
	for _, name := range []string{"telco", "Q5"} {
		w := load(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.Set.Compile()
			}
		})
	}
	b.Run("telco-m", func(b *testing.B) {
		s, _, _ := telcoM(b)
		b.ReportAllocs()
		for b.Loop() {
			s.Compile()
		}
	})
	// The compile a telco-m session's first what-if pays: its abstracted
	// set, on a fresh copy like perfbench's provenance.compile_ms replay.
	b.Run("telco-m-abstracted", func(b *testing.B) {
		s, forest, B := telcoM(b)
		comp, err := core.GreedyCompressor().Compress(s, forest, B)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			b.StopTimer()
			active := comp.Abstracted.Clone()
			b.StartTimer()
			active.Compile()
		}
	})
}

// BenchmarkFig11 times the greedy across growing tree counts.
func BenchmarkFig11(b *testing.B) {
	w := load(b, "telco")
	B := w.Set.Size() / 2
	for _, k := range []int{2, 4, 8} {
		trees := make([]*abstree.Tree, k)
		for i := 0; i < k; i++ {
			base := i * 16
			trees[i] = treegen.BinaryTree("T"+itoa(i), 4, func(j int) string {
				return "pl" + itoa(base+j)
			})
		}
		forest, err := abstree.NewForest(trees...)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("trees"+itoa(k)+"/greedy", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.GreedyVVS(w.Set, forest, B); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12 times Opt VVS against the Ainy et al. competitor on Q1.
func BenchmarkFig12(b *testing.B) {
	w := load(b, "Q1")
	shape := treegen.SmallestOfType(1)
	tree := w.Tree(shape)
	forest := w.Forest(shape)
	B := w.Set.Size() / 2
	b.Run("opt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.OptimalVVS(w.Set, tree, B); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prox", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := summarize.Summarize(w.Set, forest, B, summarize.Options{Timeout: time.Minute}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig14 times Opt as the total variable count grows (Appendix B).
func BenchmarkFig14(b *testing.B) {
	sc := bench.DefaultScale()
	for _, groups := range []int{128, 1024} {
		d, err := tpch.Generate(tpch.Config{ScaleFactor: sc.TPCHScaleFactor, Seed: sc.Seed, VarGroups: groups})
		if err != nil {
			b.Fatal(err)
		}
		set, err := d.Provenance(tpch.Q1)
		if err != nil {
			b.Fatal(err)
		}
		w := &bench.Workload{Name: "Q1", Set: set, LeafPrefix: "s", LeafCount: 128}
		b.Run("vars"+itoa(groups)+"/opt", func(b *testing.B) {
			benchOpt(b, w, treegen.SmallestOfType(1))
		})
	}
}

// BenchmarkTable1 times the greedy-vs-optimal quality comparison runs.
func BenchmarkTable1(b *testing.B) {
	w := load(b, "Q5")
	for _, typ := range []int{1, 4, 7} {
		shape := treegen.SmallestOfType(typ)
		b.Run("type"+itoa(typ), func(b *testing.B) {
			tree := w.Tree(shape)
			forest := w.Forest(shape)
			B := w.Set.Size() / 2
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.OptimalVVS(w.Set, tree, B); err != nil {
					b.Fatal(err)
				}
				if _, err := core.GreedyVVS(w.Set, forest, B); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2 times exact VVS counting over the full tree catalog.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range treegen.Table2 {
			_ = s.CutCount()
		}
	}
}

// BenchmarkAblationML compares the §4.1 residue-method monomial-loss
// computation, on the packed monomial table, against the naive
// substitute-and-count method, on Q5's type 1 tree over the 128 supplier
// variables: Algorithm 1's access pattern (the ML of every internal node,
// one table vs one substitution per node) and a single group. On a 2-vCPU
// Xeon at GOMAXPROCS 1 the packed table takes 0.09–0.15 ms per tree
// against 1.7–1.8 ms, and 0.08–0.10 ms per single group against 0.17 ms.
// The string-keyed residue table it replaced lost the single group to the
// naive pass (0.21–0.22 ms), the case that mattered most: greedy built one
// such table per tied candidate at every step.
func BenchmarkAblationML(b *testing.B) {
	w := load(b, "Q5")
	shape := treegen.Shape{Fanouts: []int{16, 8}}
	tree := w.Tree(shape)
	var groups [][]provenance.Var
	for n := 0; n < tree.Len(); n++ {
		if tree.IsLeaf(n) {
			continue
		}
		var g []provenance.Var
		for _, l := range tree.LeavesUnder(n) {
			if v, ok := w.Set.Vocab.Lookup(tree.Label(l)); ok {
				g = append(g, v)
			}
		}
		groups = append(groups, g)
	}
	b.Run("packed-per-tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.BatchGroupML(w.Set, groups)
		}
	})
	b.Run("naive-per-tree", func(b *testing.B) {
		b.ReportAllocs()
		meta := w.Set.Vocab.Var("ABLATION_META")
		for i := 0; i < b.N; i++ {
			for _, g := range groups {
				core.NaiveGroupML(w.Set, g, meta)
			}
		}
	})
	b.Run("packed-single-group", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.GroupML(w.Set, groups[0])
		}
	})
	b.Run("naive-single-group", func(b *testing.B) {
		b.ReportAllocs()
		meta := w.Set.Vocab.Var("ABLATION_META2")
		for i := 0; i < b.N; i++ {
			core.NaiveGroupML(w.Set, groups[0], meta)
		}
	})
}

// BenchmarkAblationStorage reports the byte sizes of shipped provenance
// before and after abstraction — the communication-cost reading of the
// compression gain.
func BenchmarkAblationStorage(b *testing.B) {
	w := load(b, "Q5")
	res, err := core.OptimalVVS(w.Set, w.Tree(treegen.SmallestOfType(1)), w.Set.Size()/2)
	if err != nil {
		b.Fatal(err)
	}
	abs := res.VVS.Apply(w.Set)
	b.Run("encode", func(b *testing.B) {
		var orig, comp int
		for i := 0; i < b.N; i++ {
			orig = provenance.EncodedSize(w.Set)
			comp = provenance.EncodedSize(abs)
		}
		b.ReportMetric(float64(orig), "origBytes")
		b.ReportMetric(float64(comp), "compressedBytes")
	})
}

// BenchmarkAblationOnline compares offline greedy selection against the §6
// sampling pipeline.
func BenchmarkAblationOnline(b *testing.B) {
	w := load(b, "telco")
	forest := w.Forest(treegen.SmallestOfType(1))
	B := w.Set.Size() / 2
	b.Run("offline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.GreedyVVS(w.Set, forest, B); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("online30pct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sampling.OnlineCompress(w.Set, forest, B, sampling.Options{Fraction: 0.3, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationGreedyTieBreak compares the Example 15 max-ML tie-break
// against the pseudocode's arbitrary tie-break, reporting retained
// granularity alongside time.
func BenchmarkAblationGreedyTieBreak(b *testing.B) {
	w := load(b, "telco")
	forest := w.Forest(treegen.SmallestOfType(5))
	B := w.Set.Size() / 2
	for _, mode := range []struct {
		name string
		opts core.GreedyOptions
	}{
		{"maxML", core.GreedyOptions{TieBreakML: true}},
		{"arbitrary", core.GreedyOptions{TieBreakML: false}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var vl int
			for i := 0; i < b.N; i++ {
				r, err := core.GreedyVVSOpts(w.Set, forest, B, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				vl = r.VL
			}
			b.ReportMetric(float64(w.Set.Granularity()-vl), "retainedVars")
		})
	}
}

// BenchmarkAblationAssignment isolates hypo.AssignmentTimes overhead.
func BenchmarkAblationAssignment(b *testing.B) {
	w := load(b, "Q1")
	res, err := core.OptimalVVS(w.Set, w.Tree(treegen.SmallestOfType(1)), w.Set.Size()/2)
	if err != nil {
		b.Fatal(err)
	}
	abs := res.VVS.Apply(w.Set)
	for i := 0; i < b.N; i++ {
		hypo.AssignmentTimes(w.Set, abs, 1)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[n:])
}

// BenchmarkQueryTopK runs ScenQL top-k statements on a telco-s session
// (2,000 customers over 200 zips): a chained grid sweep over two plan
// leaves and a SAMPLE over the twelve months, each ranked by one zip's
// answer. It reports scenarios/s and allocs/scenario. A ranked sweep
// evaluates one polynomial per scenario and answers, tags and boxes only
// the k rows it returns, so the allocation count does not grow with the
// number of polynomials. The all-win case is the worst case of that
// design: its LIMIT is above the grid's 441 scenarios, so every scenario
// is a winner and the key pass is pure overhead.
func BenchmarkQueryTopK(b *testing.B) {
	eng, err := session.Open(telcoS(b).Set, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, st := range []struct{ name, src string }{
		{"grid", "pl3 IN [0.5:1.5:0.05] pl7 IN [0.5:1.5:0.05] ORDER BY ans[17] DESC LIMIT 10"},
		{"sample", "SAMPLE 80 m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12 IN [0.5:1.5] SEED 7 " +
			"ORDER BY ans[17] DESC LIMIT 10"},
		{"all-win", "pl3 IN [0.5:1.5:0.05] pl7 IN [0.5:1.5:0.05] ORDER BY ans[17] DESC LIMIT 500"},
	} {
		b.Run(st.name, func(b *testing.B) {
			// One warm-up run compiles the kernel and its delta baseline.
			if _, err := eng.Query(st.src); err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			scenarios := int64(0)
			for i := 0; i < b.N; i++ {
				res, err := eng.Query(st.src)
				if err != nil {
					b.Fatal(err)
				}
				scenarios += res.Scenarios
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(scenarios)/b.Elapsed().Seconds(), "scenarios/s")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(scenarios), "allocs/scenario")
		})
	}
}
