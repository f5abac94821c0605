package bench

// Planner benchmark harness (BENCH_5 via `provbench -experiment planner`):
// the three layers of the self-tuning evaluation planner measured on one
// command — incremental compile (Set.Add appending into the live Compiled
// vs the pre-incremental invalidate-and-rebuild), chained stream deltas
// (delta against the previous scenario's answers vs against the identity
// baseline, on a correlated random-walk stream), and the adaptive
// delta-vs-full cutoff (cost-model routing vs the static default, on a
// mixed-density batch built so the static guess misroutes the dense half).
// The batch100-sparse series from BENCH_3 is re-measured too, so the
// allocation cut on the sparse batch path is recorded side by side.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"provabs/internal/hypo"
	"provabs/internal/provenance"
)

// plannerAddOps is how many Add+Compiled iterations the append-vs-rebuild
// comparison averages over. The rebuild side recompiles the whole set every
// iteration, so this is also what bounds the harness's runtime.
const plannerAddOps = 64

// PlannerWorkloadReport is the planner measurement of one workload.
type PlannerWorkloadReport struct {
	Polynomials int `json:"polynomials"`
	Monomials   int `json:"monomials"`
	Variables   int `json:"variables"`

	// Benchmarks maps benchmark name → metrics. Names: add-append,
	// add-rebuild, stream-chained, stream-identity, batch100-sparse,
	// batch100-sparse-nodelta (real workloads); batch-mixed-adaptive,
	// batch-mixed-static (the synthetic mixed-density workload). The two
	// add-* series are wall-clock averages over plannerAddOps operations
	// (allocs are not tracked there).
	Benchmarks map[string]Metric `json:"benchmarks"`

	// AppendSpeedup is add-rebuild time over add-append time: what one
	// Engine.Add costs when the compiled form is extended in place instead
	// of recompiled.
	AppendSpeedup float64 `json:"append_speedup,omitempty"`

	// ChainSpeedup is stream-identity time over stream-chained time on the
	// correlated stream: the gain from delta-evaluating against the
	// previous scenario's answers instead of the identity baseline.
	ChainSpeedup float64 `json:"chain_speedup,omitempty"`

	// AdaptiveSpeedup is batch-mixed-static over batch-mixed-adaptive: the
	// gain from routing by learned per-term cost where the static cutoff
	// misroutes the dense scenarios.
	AdaptiveSpeedup float64 `json:"adaptive_speedup,omitempty"`
}

// PlannerReport is the full BENCH_5 payload.
type PlannerReport struct {
	GOMAXPROCS int                               `json:"gomaxprocs"`
	Workloads  map[string]*PlannerWorkloadReport `json:"workloads"`
}

// RunPlannerBench measures the planner layers on the given real workloads
// (default: telco and Q5, at the delta benchmark's sparse scale so numbers
// are comparable with BENCH_3) plus the synthetic mixed-density workload.
func RunPlannerBench(sc Scale, names ...string) (*PlannerReport, error) {
	if len(names) == 0 {
		names = []string{"telco", "Q5"}
	}
	report := &PlannerReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workloads:  map[string]*PlannerWorkloadReport{},
	}
	for _, name := range names {
		w, err := LoadWorkload(name, sc)
		if err != nil {
			return nil, err
		}
		wr, err := runPlannerWorkload(w)
		if err != nil {
			return nil, err
		}
		report.Workloads[name] = wr
	}
	report.Workloads["mixed-density"] = runPlannerMixed()
	return report, nil
}

// appendPolys builds small polynomials over the workload's first leaf
// variables — the shape of a fresh provenance row arriving in a session.
func appendPolys(w *Workload, n int) ([]*provenance.Polynomial, error) {
	var leaves []provenance.Var
	for i := 0; len(leaves) < 2 && i < w.LeafCount; i++ {
		if v, ok := w.Set.Vocab.Lookup(fmt.Sprintf("%s%d", w.LeafPrefix, i)); ok {
			leaves = append(leaves, v)
		}
	}
	if len(leaves) < 2 {
		return nil, fmt.Errorf("bench: workload %s has fewer than 2 leaf variables", w.Name)
	}
	out := make([]*provenance.Polynomial, n)
	for i := range out {
		p := provenance.NewPolynomial()
		p.AddTerm(1+float64(i), leaves[0])
		p.AddTerm(2+float64(i), leaves[0], leaves[1])
		out[i] = p
	}
	return out, nil
}

// runAddBench times n Add iterations against a fresh clone of the
// workload, with the delta index and baseline pre-built (the steady state
// of a long session). rebuild adds a fresh Set.Compile after every Add:
// the whole-set compile the pre-incremental behavior paid per Add.
func runAddBench(w *Workload, polys []*provenance.Polynomial, rebuild bool) Metric {
	set := w.Set.Clone()
	c := set.Compiled()
	c.NewDeltaEval()
	c.Baseline()
	start := time.Now()
	for i, p := range polys {
		set.Add(fmt.Sprintf("added%d", i), p)
		if rebuild {
			set.Compile()
		}
	}
	return Metric{NsPerOp: float64(time.Since(start).Nanoseconds()) / float64(len(polys))}
}

// correlatedStream builds a random-walk scenario stream: every scenario
// assigns the same width leaf variables, each step changing one value — the
// correlated shape of an interactive what-if session.
func correlatedStream(w *Workload, n, width int) ([]*hypo.Scenario, error) {
	var names []string
	for i := 0; len(names) < width && i < w.LeafCount; i++ {
		name := fmt.Sprintf("%s%d", w.LeafPrefix, i)
		if _, ok := w.Set.Vocab.Lookup(name); ok {
			names = append(names, name)
		}
	}
	if len(names) < width {
		return nil, fmt.Errorf("bench: workload %s has only %d of %d leaf variables", w.Name, len(names), width)
	}
	rng := rand.New(rand.NewSource(7))
	cur := map[string]float64{}
	for _, name := range names {
		cur[name] = 0.5 + rng.Float64()
	}
	out := make([]*hypo.Scenario, n)
	for i := range out {
		cur[names[rng.Intn(width)]] = 0.5 + rng.Float64()
		sc := hypo.NewScenario()
		for k, v := range cur {
			sc.Set(k, v)
		}
		out[i] = sc
	}
	return out, nil
}

func runPlannerWorkload(w *Workload) (*PlannerWorkloadReport, error) {
	c := w.Set.Compile()
	c.Baseline() // pre-warm so every series measures steady state
	wr := &PlannerWorkloadReport{
		Polynomials: c.Len(),
		Monomials:   c.Size(),
		Variables:   w.Set.Granularity(),
		Benchmarks:  map[string]Metric{},
	}

	polys, err := appendPolys(w, plannerAddOps)
	if err != nil {
		return nil, err
	}
	wr.Benchmarks["add-append"] = runAddBench(w, polys, false)
	wr.Benchmarks["add-rebuild"] = runAddBench(w, polys, true)
	if t := wr.Benchmarks["add-append"].NsPerOp; t > 0 {
		wr.AppendSpeedup = wr.Benchmarks["add-rebuild"].NsPerOp / t
	}

	stream, err := correlatedStream(w, 100, 4)
	if err != nil {
		return nil, err
	}
	for name, chain := range map[string]bool{"stream-chained": true, "stream-identity": false} {
		opts := hypo.BatchOptions{Workers: 1, DeltaCutoff: 0.99, Chain: chain}
		wr.Benchmarks[name] = metricOf(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hypo.EvalBatch(c, stream, opts); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	if t := wr.Benchmarks["stream-chained"].NsPerOp; t > 0 {
		wr.ChainSpeedup = wr.Benchmarks["stream-identity"].NsPerOp / t
	}

	// The BENCH_3 sparse batch, re-measured: the delta-scratch and row
	// pooling shows up as the allocs/op drop against BENCH_3.json.
	_, scenarios, err := sparseTouched(w, 4)
	if err != nil {
		return nil, err
	}
	batch := make([]*hypo.Scenario, 100)
	for i := range batch {
		batch[i] = scenarios[i%len(scenarios)]
	}
	for name, cutoff := range map[string]float64{"batch100-sparse": 0.5, "batch100-sparse-nodelta": -1} {
		opts := hypo.BatchOptions{Workers: 1, DeltaCutoff: cutoff}
		wr.Benchmarks[name] = metricOf(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hypo.EvalBatch(c, batch, opts); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	return wr, nil
}

// runPlannerMixed measures adaptive-vs-static routing on a synthetic
// mixed-density workload engineered so the static cutoff misroutes: a hub
// variable occurs in ~60% of all terms — past the static 0.5 default, so
// static routing evaluates hub scenarios in full — yet the delta path still
// wins there (recompute 60%, copy the rest). The adaptive model learns the
// real per-term costs and routes the hub scenarios back onto the delta
// path; sparse per-polynomial scenarios ride it either way.
func runPlannerMixed() *PlannerWorkloadReport {
	vb := provenance.NewVocab()
	hub := vb.Var("hub")
	set := provenance.NewSet(vb)
	const nPolys = 400
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < nPolys; i++ {
		p := provenance.NewPolynomial()
		own := vb.Var(fmt.Sprintf("s%d", i))
		for t := 0; t < 24; t++ {
			// Distinct per-term detail variables keep the monomials from
			// merging; 60% of polynomials carry the hub in every term.
			detail := vb.Var(fmt.Sprintf("d%d_%d", i, t))
			if i%10 < 6 {
				p.AddTerm(1+rng.Float64(), hub, own, detail)
			} else {
				p.AddTerm(1+rng.Float64(), own, detail)
			}
		}
		set.Add(fmt.Sprintf("g%d", i), p)
	}
	c := set.Compile()
	c.Baseline()

	scs := make([]*hypo.Scenario, 100)
	for i := range scs {
		if i%2 == 0 {
			scs[i] = hypo.NewScenario().Set("hub", 0.8)
		} else {
			scs[i] = hypo.NewScenario().Set(fmt.Sprintf("s%d", i%nPolys), 1.2)
		}
	}

	wr := &PlannerWorkloadReport{
		Polynomials: c.Len(),
		Monomials:   c.Size(),
		Variables:   set.Granularity(),
		Benchmarks:  map[string]Metric{},
	}
	counters := &hypo.BatchCounters{}
	adaptive := hypo.BatchOptions{Workers: 1, Counters: counters}
	// Train the model off the clock: enough evaluations that probing has
	// sampled the minority path and the learned cutoff has settled.
	for i := 0; i < 8; i++ {
		if _, err := hypo.EvalBatch(c, scs, adaptive); err != nil {
			panic(err)
		}
	}
	for name, opts := range map[string]hypo.BatchOptions{
		"batch-mixed-adaptive": adaptive,
		"batch-mixed-static":   {Workers: 1, DeltaCutoff: hypo.DefaultDeltaCutoff},
	} {
		opts := opts
		wr.Benchmarks[name] = metricOf(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hypo.EvalBatch(c, scs, opts); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	if t := wr.Benchmarks["batch-mixed-adaptive"].NsPerOp; t > 0 {
		wr.AdaptiveSpeedup = wr.Benchmarks["batch-mixed-static"].NsPerOp / t
	}
	return wr
}

// JSON serializes the report, indented for diff-friendly commits.
func (r *PlannerReport) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Table renders the report for provbench's stdout.
func (r *PlannerReport) Table() *Table {
	tab := &Table{
		Title:   fmt.Sprintf("Self-tuning evaluation planner (GOMAXPROCS=%d)", r.GOMAXPROCS),
		Headers: []string{"workload", "benchmark", "ns/op", "allocs/op"},
	}
	names := make([]string, 0, len(r.Workloads))
	for name := range r.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wr := r.Workloads[name]
		for _, bname := range []string{
			"add-append", "add-rebuild", "stream-chained", "stream-identity",
			"batch100-sparse", "batch100-sparse-nodelta",
			"batch-mixed-adaptive", "batch-mixed-static",
		} {
			m, ok := wr.Benchmarks[bname]
			if !ok {
				continue
			}
			tab.AddRow(name, bname, m.NsPerOp, m.AllocsPerOp)
		}
		if wr.AppendSpeedup > 0 {
			tab.AddRow(name, "append-speedup", wr.AppendSpeedup, "-")
		}
		if wr.ChainSpeedup > 0 {
			tab.AddRow(name, "chain-speedup", wr.ChainSpeedup, "-")
		}
		if wr.AdaptiveSpeedup > 0 {
			tab.AddRow(name, "adaptive-speedup", wr.AdaptiveSpeedup, "-")
		}
	}
	return tab
}
