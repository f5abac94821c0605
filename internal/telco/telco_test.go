package telco

import (
	"math"
	"sort"
	"strings"
	"testing"

	"provabs/internal/abstree"
	"provabs/internal/core"
	"provabs/internal/provenance"
	"provabs/internal/treegen"
)

func TestGenerateShapes(t *testing.T) {
	cfg := Config{Customers: 50, Plans: 8, Months: 12, Zips: 5, Seed: 7}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cust, err := d.Catalog.Table("Cust")
	if err != nil {
		t.Fatal(err)
	}
	if cust.Len() != 50 {
		t.Errorf("customers = %d, want 50", cust.Len())
	}
	calls, _ := d.Catalog.Table("Calls")
	if calls.Len() != 50*12 {
		t.Errorf("calls = %d, want 600", calls.Len())
	}
	plans, _ := d.Catalog.Table("Plans")
	if plans.Len() != 8*12 {
		t.Errorf("plans = %d, want 96", plans.Len())
	}
	if got := TotalRows(cfg); got != 50+600+96 {
		t.Errorf("TotalRows = %d, want %d", got, 50+600+96)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Customers: 0, Plans: 1, Months: 1, Zips: 1},
		{Customers: 1, Plans: 0, Months: 1, Zips: 1},
		{Customers: 1, Plans: 1, Months: 13, Zips: 1},
		{Customers: 1, Plans: 1, Months: 1, Zips: 0},
	} {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
		if _, err := SyntheticProvenance(cfg); err == nil {
			t.Errorf("synthetic config %+v accepted", cfg)
		}
	}
}

func TestProvenanceShape(t *testing.T) {
	cfg := Config{Customers: 200, Plans: 16, Months: 12, Zips: 10, Seed: 3}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set, err := d.Provenance()
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() == 0 || set.Len() > 10 {
		t.Errorf("polynomials = %d, want <= 10 (one per occupied zip)", set.Len())
	}
	// Every monomial is coeff · plan-var · month-var.
	for i := range set.Len() {
		for _, m := range set.Poly(i).Monomials() {
			if m.NumVars() != 2 {
				t.Fatalf("monomial %s has %d vars, want 2", m.String(set.Vocab), m.NumVars())
			}
		}
	}
	// Granularity is bounded by plans+months, size by zips·plans·months.
	if g := set.Granularity(); g > 16+12 {
		t.Errorf("granularity = %d, want <= 28", g)
	}
	if sz := set.Size(); sz > 10*16*12 {
		t.Errorf("size = %d, want <= %d", sz, 10*16*12)
	}
}

// coeffByNames maps "plan,month" name pairs to coefficients, so polynomials
// from different vocabularies can be compared.
func coeffByNames(vb *provenance.Vocab, p *provenance.Polynomial) map[string]float64 {
	out := map[string]float64{}
	for _, m := range p.Monomials() {
		var names []string
		for _, vp := range m.Vars() {
			for i := int32(0); i < vp.Pow; i++ {
				names = append(names, vb.Name(vp.Var))
			}
		}
		sort.Strings(names)
		out[strings.Join(names, ",")] = m.Coeff
	}
	return out
}

// TestSyntheticMatchesEngine pins the fast-path generator to the engine
// output: same tags, same monomials, same coefficients (up to float
// summation order).
func TestSyntheticMatchesEngine(t *testing.T) {
	cfg := Config{Customers: 120, Plans: 8, Months: 6, Zips: 7, Seed: 11}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromEngine, err := d.Provenance()
	if err != nil {
		t.Fatal(err)
	}
	synthetic, err := SyntheticProvenance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fromEngine.Len() != synthetic.Len() {
		t.Fatalf("polynomial counts differ: engine %d, synthetic %d", fromEngine.Len(), synthetic.Len())
	}
	for i := range fromEngine.Len() {
		if fromEngine.Tags[i] != synthetic.Tags[i] {
			t.Fatalf("tag %d: engine %q, synthetic %q", i, fromEngine.Tags[i], synthetic.Tags[i])
		}
		ec := coeffByNames(fromEngine.Vocab, fromEngine.Poly(i))
		sc := coeffByNames(synthetic.Vocab, synthetic.Poly(i))
		if len(ec) != len(sc) {
			t.Fatalf("zip %s: monomial counts differ: %d vs %d", fromEngine.Tags[i], len(ec), len(sc))
		}
		for k, v := range ec {
			if math.Abs(sc[k]-v) > 1e-6*(1+math.Abs(v)) {
				t.Errorf("zip %s monomial %s: engine %v, synthetic %v", fromEngine.Tags[i], k, v, sc[k])
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Customers: 30, Plans: 4, Months: 3, Zips: 3, Seed: 42}
	a, err := SyntheticProvenance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyntheticProvenance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != b.Size() || a.Granularity() != b.Granularity() {
		t.Error("same seed produced different provenance")
	}
	cfg.Seed = 43
	c, err := SyntheticProvenance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() == c.Size() && provenance.FormatSet(a) == provenance.FormatSet(c) {
		t.Error("different seeds produced identical provenance")
	}
}

// TestCompressTelcoProvenance runs the full pipeline: generate → provenance
// → abstraction trees → optimal and greedy compression at bound 0.5·|P|_M
// (the paper's default setting).
func TestCompressTelcoProvenance(t *testing.T) {
	cfg := Config{Customers: 400, Plans: 128, Months: 12, Zips: 4, Seed: 5}
	set, err := SyntheticProvenance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shape := treegen.SmallestOfType(1)
	plansTree, err := PlansTree(shape)
	if err != nil {
		t.Fatal(err)
	}
	B := set.Size() / 2
	res, err := core.OptimalVVS(set, plansTree, B)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Adequate {
		t.Fatalf("type-1 tree cannot halve telco provenance (|P|_M=%d, best ML=%d)", set.Size(), res.ML)
	}
	if got := res.VVS.Apply(set).Size(); got > B {
		t.Errorf("abstracted size %d > bound %d", got, B)
	}
	// Greedy with both trees must also reach the bound.
	forest := abstree.MustForest(plansTree, QuarterTree())
	gres, err := core.GreedyVVS(set, forest, B)
	if err != nil {
		t.Fatal(err)
	}
	if !gres.Adequate {
		t.Error("greedy failed to reach the bound with plans+quarter trees")
	}
}

func TestQuarterTreeLeavesMatchMonthVars(t *testing.T) {
	qt := QuarterTree()
	for m := 1; m <= 12; m++ {
		if _, ok := qt.NodeByLabel(MonthVar(m)); !ok {
			t.Errorf("quarter tree missing leaf %s", MonthVar(m))
		}
	}
}

func TestPlansTreeRejectsOversizedShape(t *testing.T) {
	if _, err := PlansTree(treegen.Shape{Fanouts: []int{2, 128}}); err == nil {
		t.Error("256-leaf shape accepted for 128 plan variables")
	}
}

// TestCompressionBitDeterministic compresses the same telco provenance
// several times in one process: the abstracted coefficients must be
// Float64bits-identical every time, whatever order the polynomials' terms
// are stored in.
func TestCompressionBitDeterministic(t *testing.T) {
	set, err := SyntheticProvenance(Config{Customers: 2000, Plans: 128, Months: 12, Zips: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plans, err := PlansTree(treegen.Shape{Type: 1, Fanouts: []int{2, 64}})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := abstree.NewForest(plans, QuarterTree())
	if err != nil {
		t.Fatal(err)
	}
	var first []uint64
	for run := 0; run < 4; run++ {
		comp, err := core.GreedyCompressor().Compress(set, forest, set.Size()/2)
		if err != nil {
			t.Fatal(err)
		}
		var bits []uint64
		for i := range comp.Abstracted.Len() {
			for _, m := range comp.Abstracted.Poly(i).Monomials() {
				bits = append(bits, math.Float64bits(m.Coeff))
			}
		}
		if run == 0 {
			first = bits
			continue
		}
		if len(bits) != len(first) {
			t.Fatalf("run %d: %d monomials, run 0 had %d", run, len(bits), len(first))
		}
		for i := range bits {
			if bits[i] != first[i] {
				t.Fatalf("run %d: coefficient %d is %v, run 0 had %v",
					run, i, math.Float64frombits(bits[i]), math.Float64frombits(first[i]))
			}
		}
	}
}
