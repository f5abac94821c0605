package bench

// Semiring benchmark harness (BENCH_6 via `provbench -experiment semiring`):
// what the generic-carrier refactor costs and buys. Three question groups per
// real workload: (1) the float hot path did not regress — batch100-sparse and
// batch100-sparse-nodelta are re-measured with the same shape as BENCH_5, so
// `benchdiff BENCH_5 BENCH_6` gates the shared series; (2) what the generic
// code path costs when the bulk float kernels are taken away —
// batch100-sparse-nobulk runs the identical batch on a hand-written float
// carrier that delegates to provenance.Float's arithmetic but deliberately
// does NOT satisfy the unexported bulk-kernel interface (and must not embed
// Float, which would promote it), so the generic per-term loop is measured
// head to head and GenericOverhead records the ratio; (3) what the
// non-float carriers achieve on the same provenance — bool/count/tropical/
// minmax batch throughput over a naturalized copy of the workload (the
// real coefficients are fractional, which the N[X] carriers reject).

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/semiring"
)

// genericFloat is provenance.Float stripped of its bulk kernels: every
// method delegates through a field (embedding would promote the unexported
// evalBulk methods and put the carrier right back on the bulk path). It
// measures what any new carrier pays: the generic per-term evaluation loop.
type genericFloat struct{ f provenance.Float }

func (g genericFloat) Zero() float64                        { return g.f.Zero() }
func (g genericFloat) One() float64                         { return g.f.One() }
func (g genericFloat) Add(a, b float64) float64             { return g.f.Add(a, b) }
func (g genericFloat) Mul(a, b float64) float64             { return g.f.Mul(a, b) }
func (g genericFloat) NAdd(n int64, x float64) float64      { return g.f.NAdd(n, x) }
func (g genericFloat) Equal(a, b float64) bool              { return g.f.Equal(a, b) }
func (g genericFloat) FromCoeff(c float64) (float64, error) { return g.f.FromCoeff(c) }
func (g genericFloat) Value(x float64) (float64, error)     { return g.f.Value(x) }
func (g genericFloat) Chainable() bool                      { return g.f.Chainable() }

// SemiringWorkloadReport is the semiring measurement of one workload.
type SemiringWorkloadReport struct {
	Polynomials int `json:"polynomials"`
	Monomials   int `json:"monomials"`
	Variables   int `json:"variables"`

	// Benchmarks maps benchmark name → metrics. batch100-sparse and
	// batch100-sparse-nodelta are the BENCH_5-shared float series;
	// batch100-sparse-nobulk is the same batch on the no-bulk generic float
	// carrier; bool-batch100/count-batch100/tropical-batch100/
	// minmax-batch100 run on the naturalized set.
	Benchmarks map[string]Metric `json:"benchmarks"`

	// GenericOverhead is batch100-sparse-nobulk over batch100-sparse: the
	// factor a carrier without bulk kernels pays for the generic loop.
	GenericOverhead float64 `json:"generic_overhead,omitempty"`
}

// SemiringReport is the full BENCH_6 payload.
type SemiringReport struct {
	GOMAXPROCS int                                `json:"gomaxprocs"`
	Workloads  map[string]*SemiringWorkloadReport `json:"workloads"`
}

// RunSemiringBench measures the generic evaluation stack on the given real
// workloads (default: telco and Q5, at the same scale as BENCH_3/BENCH_5 so
// the shared series stay comparable).
func RunSemiringBench(sc Scale, names ...string) (*SemiringReport, error) {
	if len(names) == 0 {
		names = []string{"telco", "Q5"}
	}
	report := &SemiringReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workloads:  map[string]*SemiringWorkloadReport{},
	}
	for _, name := range names {
		w, err := LoadWorkload(name, sc)
		if err != nil {
			return nil, err
		}
		wr, err := runSemiringWorkload(w)
		if err != nil {
			return nil, err
		}
		report.Workloads[name] = wr
	}
	return report, nil
}

// naturalizeSet clones the set's monomial structure with small natural
// coefficients, so the N[X]-strict carriers can compile it. The shape (term
// counts, variable sharing, degrees) is what the evaluation loops care
// about; the coefficient values are not load-bearing for throughput.
func naturalizeSet(s *provenance.Set) *provenance.Set {
	out := provenance.NewSet(s.Vocab)
	for i := range s.Len() {
		np := provenance.NewPolynomial()
		for j, m := range s.Poly(i).Monomials() {
			np.AddMonomial(provenance.NewMonomialPows(float64(1+(i+j)%3), m.Vars()...))
		}
		tag := ""
		if i < len(s.Tags) {
			tag = s.Tags[i]
		}
		out.Add(tag, np)
	}
	return out
}

// carrierBatch builds the batch100-sparse shape with per-index values from
// value(i) — each carrier's natural domain (keep/delete bits, counts, costs,
// clearance levels) over the workload's first four leaf variables.
func carrierBatch(w *Workload, value func(i int) float64) ([]*hypo.Scenario, error) {
	var names []string
	for i := 0; len(names) < 4 && i < w.LeafCount; i++ {
		name := fmt.Sprintf("%s%d", w.LeafPrefix, i)
		if _, ok := w.Set.Vocab.Lookup(name); ok {
			names = append(names, name)
		}
	}
	if len(names) < 4 {
		return nil, fmt.Errorf("bench: workload %s has only %d of 4 leaf variables", w.Name, len(names))
	}
	batch := make([]*hypo.Scenario, 100)
	for i := range batch {
		batch[i] = hypo.NewScenario().Set(names[i%len(names)], value(i))
	}
	return batch, nil
}

// benchBatch times EvalBatch on one compiled kernel.
func benchBatch[T any, C provenance.Carrier[T]](k *provenance.Kernel[T, C], batch []*hypo.Scenario, cutoff float64) Metric {
	k.Baseline() // pre-warm so the series measures steady state
	opts := hypo.BatchOptions{Workers: 1, DeltaCutoff: cutoff}
	return metricOf(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hypo.EvalBatch(k, batch, opts); err != nil {
				b.Fatal(err)
			}
		}
	}))
}

// compileAndBench compiles set into the carrier and times the batch on it.
func compileAndBench[T any, C provenance.Carrier[T]](cr C, set *provenance.Set, batch []*hypo.Scenario) (Metric, error) {
	k, err := provenance.CompileSet[T, C](cr, set)
	if err != nil {
		return Metric{}, err
	}
	return benchBatch(k, batch, 0.5), nil
}

func runSemiringWorkload(w *Workload) (*SemiringWorkloadReport, error) {
	c := w.Set.Compile()
	wr := &SemiringWorkloadReport{
		Polynomials: c.Len(),
		Monomials:   c.Size(),
		Variables:   w.Set.Granularity(),
		Benchmarks:  map[string]Metric{},
	}

	// (1) The BENCH_5-shared float series, identical shape: four sparse
	// scenarios cycled to a batch of 100, workers=1.
	floatBatch, err := carrierBatch(w, func(int) float64 { return 0.8 })
	if err != nil {
		return nil, err
	}
	wr.Benchmarks["batch100-sparse"] = benchBatch(c, floatBatch, 0.5)
	wr.Benchmarks["batch100-sparse-nodelta"] = benchBatch(c, floatBatch, -1)

	// (2) The same batch with the bulk kernels taken away.
	nobulk, err := provenance.CompileSet[float64, genericFloat](genericFloat{}, w.Set)
	if err != nil {
		return nil, err
	}
	wr.Benchmarks["batch100-sparse-nobulk"] = benchBatch(nobulk, floatBatch, 0.5)
	if t := wr.Benchmarks["batch100-sparse"].NsPerOp; t > 0 {
		wr.GenericOverhead = wr.Benchmarks["batch100-sparse-nobulk"].NsPerOp / t
	}

	// (3) Non-float carrier throughput on the naturalized set.
	nat := naturalizeSet(w.Set)
	for name, run := range map[string]func() (Metric, error){
		"bool-batch100": func() (Metric, error) {
			batch, err := carrierBatch(w, func(i int) float64 { return float64(i % 2) })
			if err != nil {
				return Metric{}, err
			}
			return compileAndBench[bool](semiring.Boolean{}, nat, batch)
		},
		"count-batch100": func() (Metric, error) {
			batch, err := carrierBatch(w, func(i int) float64 { return float64(i % 4) })
			if err != nil {
				return Metric{}, err
			}
			return compileAndBench[int64](semiring.Counting{}, nat, batch)
		},
		"tropical-batch100": func() (Metric, error) {
			batch, err := carrierBatch(w, func(i int) float64 { return 0.5 + float64(i%8)/4 })
			if err != nil {
				return Metric{}, err
			}
			return compileAndBench[float64](semiring.Tropical{}, nat, batch)
		},
		"minmax-batch100": func() (Metric, error) {
			batch, err := carrierBatch(w, func(i int) float64 { return float64(1 + i%5) })
			if err != nil {
				return Metric{}, err
			}
			return compileAndBench[float64](semiring.MinMax{}, nat, batch)
		},
	} {
		m, err := run()
		if err != nil {
			return nil, fmt.Errorf("bench: %s/%s: %w", w.Name, name, err)
		}
		wr.Benchmarks[name] = m
	}
	return wr, nil
}

// JSON serializes the report, indented for diff-friendly commits.
func (r *SemiringReport) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Table renders the report for provbench's stdout.
func (r *SemiringReport) Table() *Table {
	tab := &Table{
		Title:   fmt.Sprintf("Semiring-generic kernel (GOMAXPROCS=%d)", r.GOMAXPROCS),
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
			"batch100-sparse", "batch100-sparse-nodelta", "batch100-sparse-nobulk",
			"bool-batch100", "count-batch100", "tropical-batch100", "minmax-batch100",
		} {
			m, ok := wr.Benchmarks[bname]
			if !ok {
				continue
			}
			tab.AddRow(name, bname, m.NsPerOp, m.AllocsPerOp)
		}
		if wr.GenericOverhead > 0 {
			tab.AddRow(name, "generic-overhead", wr.GenericOverhead, "-")
		}
	}
	return tab
}
