// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4.3, Appendix B) at CI scale. Each BenchmarkFigN/BenchmarkTableN target
// measures the operations the corresponding plot times; the full sweeps
// with the paper's row/series layout are produced by cmd/provbench.
package provabs_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/bench"
	"provabs/internal/core"
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
		b.Run(name+"/original", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.Set.Eval(vo)
			}
		})
		b.Run(name+"/compressed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				abs.Eval(va)
			}
		})
	}
}

// BenchmarkCompiledEval compares the map-based Set.Eval hot path against
// the compiled dense-array path on the telco and TPC-H workloads, single
// scenario and 100-scenario batch (sequential and parallel). The compiled
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
		b.Run(name+"/map", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.Set.Eval(val)
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
					w.Set.Eval(val)
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

// BenchmarkDeltaEval compares full compiled evaluation against the
// delta-aware path on sparse scenarios (1 and 4 touched variables) for the
// telco and TPC-H workloads. The acceptance target is ≥5× on the
// one-variable what-if; cmd/provbench -experiment delta records the same
// quantities in BENCH_3.json at a sparser scale.
func BenchmarkDeltaEval(b *testing.B) {
	for _, name := range []string{"telco", "Q5"} {
		w := load(b, name)
		compiled := w.Set.Compile()
		compiled.Baseline() // steady state: baseline cached before timing
		var touched []provenance.Var
		for i := 0; len(touched) < 4 && i < 128; i++ {
			if v, ok := w.Set.Vocab.Lookup(w.LeafPrefix + itoa(i)); ok {
				touched = append(touched, v)
			}
		}
		if len(touched) < 4 {
			b.Fatalf("%s: fewer than 4 leaf variables", name)
		}
		valFor := func(k int) []float64 {
			val := compiled.NewValuation()
			for _, v := range touched[:k] {
				val[v] = 0.8
			}
			return val
		}
		b.Run(name+"/full", func(b *testing.B) {
			val := valFor(1)
			var out []float64
			for i := 0; i < b.N; i++ {
				out = compiled.Eval(val, out)
			}
		})
		delta := compiled.NewDeltaEval()
		for _, k := range []int{1, 4} {
			b.Run(name+"/delta-touch"+itoa(k), func(b *testing.B) {
				val := valFor(k)
				var out []float64
				for i := 0; i < b.N; i++ {
					out = delta.Eval(touched[:k], val, out)
				}
			})
		}
	}
}

// BenchmarkShardedScenario measures single-scenario latency as the
// polynomial range is split over 1, 2 and 4 goroutines — the
// intra-scenario sharding path that keeps a huge lone scenario off a single
// core. Scaling is near-linear on real cores and flat when GOMAXPROCS=1.
func BenchmarkShardedScenario(b *testing.B) {
	for _, name := range []string{"telco", "Q5"} {
		w := load(b, name)
		compiled := w.Set.Compile()
		val := map[provenance.Var]float64{}
		for i, v := range w.Set.Vars() {
			val[v] = 0.5 + float64(i%7)/8
		}
		dense := compiled.Valuation(val)
		for _, workers := range []int{1, 2, 4} {
			b.Run(name+"/workers"+itoa(workers), func(b *testing.B) {
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
// does nothing but check the forest's compatibility with the set.
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

// BenchmarkCompiledAppend measures the incremental-compile path: one
// Set.Add folded into the live Compiled (index and baseline patched in
// place) versus the pre-incremental invalidate-and-recompile. The set is
// re-cloned outside the timer every few thousand ops so a long -benchtime
// run cannot grow it without bound; BENCH_5.json records the same
// comparison on the full workloads via `provbench -experiment planner`.
func BenchmarkCompiledAppend(b *testing.B) {
	w := load(b, "telco")
	leafA, okA := w.Set.Vocab.Lookup("pl0")
	leafB, okB := w.Set.Vocab.Lookup("pl1")
	if !okA || !okB {
		b.Fatal("telco workload is missing pl0/pl1")
	}
	poly := provenance.NewPolynomial()
	poly.AddTerm(2, leafA)
	poly.AddTerm(3, leafA, leafB)
	for name, rebuild := range map[string]bool{"append": false, "rebuild": true} {
		b.Run(name, func(b *testing.B) {
			var set *provenance.Set
			for i := 0; i < b.N; i++ {
				if i%4096 == 0 {
					b.StopTimer()
					set = w.Set.Clone()
					c := set.Compiled()
					c.NewDeltaEval()
					c.Baseline()
					b.StartTimer()
				}
				set.Add("bench", poly)
				if rebuild {
					set.InvalidateCompiled()
				}
				set.Compiled()
			}
		})
	}
}

// BenchmarkChainedStream measures a correlated what-if stream through the
// chained batch path (delta against the previous scenario's answers)
// against the identity-baseline delta path — the Engine.Stream micro-batch
// comparison BENCH_5.json records as stream-chained vs stream-identity.
func BenchmarkChainedStream(b *testing.B) {
	w := load(b, "telco")
	compiled := w.Set.Compile()
	compiled.Baseline()
	names := make([]string, 0, 4)
	for i := 0; len(names) < 4 && i < 128; i++ {
		if _, ok := w.Set.Vocab.Lookup("pl" + itoa(i)); ok {
			names = append(names, "pl"+itoa(i))
		}
	}
	if len(names) < 4 {
		b.Fatal("telco workload has fewer than 4 leaf variables")
	}
	cur := map[string]float64{}
	for i, name := range names {
		cur[name] = 0.5 + float64(i)/8
	}
	scenarios := make([]*hypo.Scenario, 100)
	for i := range scenarios {
		cur[names[i%len(names)]] = 0.5 + float64(i%9)/8
		sc := hypo.NewScenario()
		for k, v := range cur {
			sc.Set(k, v)
		}
		scenarios[i] = sc
	}
	for name, chain := range map[string]bool{"chained": true, "identity": false} {
		opts := hypo.BatchOptions{Workers: 1, DeltaCutoff: 0.99, Chain: chain}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hypo.EvalBatch(compiled, scenarios, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
	set, err := telco.SyntheticProvenance(telco.Config{Customers: 2000, Zips: 200, Plans: 128, Months: 12, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := session.Open(set, nil)
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
