package tpch

import (
	"strings"
	"testing"

	"provabs/internal/abstree"
	"provabs/internal/core"
	"provabs/internal/treegen"
)

func testDataset(t testing.TB) *Dataset {
	t.Helper()
	d, err := Generate(Config{ScaleFactor: 0.002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateCounts(t *testing.T) {
	d := testDataset(t)
	// Suppliers and parts are floored at 128 so all s_i/p_j variables occur.
	if d.Suppliers != 128 || d.Customers != 300 || d.Orders != 3000 {
		t.Errorf("counts: suppliers=%d customers=%d orders=%d", d.Suppliers, d.Customers, d.Orders)
	}
	li, err := d.Catalog.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if li.Len() != d.Lineitems || li.Len() < d.Orders {
		t.Errorf("lineitems = %d (dataset says %d)", li.Len(), d.Lineitems)
	}
	nation, _ := d.Catalog.Table("nation")
	if nation.Len() != 25 {
		t.Errorf("nations = %d, want 25", nation.Len())
	}
	region, _ := d.Catalog.Table("region")
	if region.Len() != 5 {
		t.Errorf("regions = %d, want 5", region.Len())
	}
}

func TestGenerateRejectsBadScale(t *testing.T) {
	if _, err := Generate(Config{ScaleFactor: 0}); err == nil {
		t.Error("zero scale factor accepted")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := testDataset(t)
	b := testDataset(t)
	sa, err := a.Provenance(Q5)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Provenance(Q5)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Size() != sb.Size() || sa.Granularity() != sb.Granularity() || sa.Len() != sb.Len() {
		t.Error("same seed produced different Q5 provenance")
	}
}

// TestQ1Shape: 4 (returnflag, linestatus) groups × 2 discount-bearing
// aggregates = 8 polynomials, as the paper reports; each polynomial has one
// constant monomial plus one monomial per (s_i, p_j) combination present.
func TestQ1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("iterates every Q1 monomial; skipped with -short")
	}
	d := testDataset(t)
	set, err := d.Provenance(Q1)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 8 {
		t.Fatalf("Q1 polynomials = %d, want 8", set.Len())
	}
	for i := range set.Len() {
		hasConst := false
		for _, m := range set.Poly(i).Monomials() {
			switch m.NumVars() {
			case 0:
				hasConst = true
			case 2:
				// s_i · p_j as expected.
				names := []string{set.Vocab.Name(m.Vars()[0].Var), set.Vocab.Name(m.Vars()[1].Var)}
				joined := strings.Join(names, ",")
				if !strings.Contains(joined, "s") || !strings.Contains(joined, "p") {
					t.Fatalf("poly %d monomial vars = %v, want one s and one p", i, names)
				}
			default:
				t.Fatalf("poly %d has a monomial with %d vars", i, m.NumVars())
			}
		}
		if !hasConst {
			t.Errorf("poly %d (%s) lacks the constant Σ extendedprice monomial", i, set.Tags[i])
		}
	}
}

// TestQ5Shape: one polynomial per nation that has local sales.
func TestQ5Shape(t *testing.T) {
	d := testDataset(t)
	set, err := d.Provenance(Q5)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() == 0 || set.Len() > 25 {
		t.Fatalf("Q5 polynomials = %d, want 1..25", set.Len())
	}
	// Polynomials should be "medium": many monomials each at this scale.
	if set.MeanPolySize() < 2 {
		t.Errorf("Q5 mean polynomial size = %v; expected joins to accumulate monomials", set.MeanPolySize())
	}
}

// TestQ10Shape: many small polynomials (per-customer), the paper's
// hardest-to-compress case.
func TestQ10Shape(t *testing.T) {
	d := testDataset(t)
	set, err := d.Provenance(Q10)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() < 10 {
		t.Fatalf("Q10 polynomials = %d, want many (per customer)", set.Len())
	}
	if set.MeanPolySize() > 70 {
		t.Errorf("Q10 mean polynomial size = %v, want small", set.MeanPolySize())
	}
	if set.Len() <= 3*q5Len(t, d) {
		t.Logf("note: Q10 produced %d polynomials vs Q5 %d; ratio grows with scale", set.Len(), q5Len(t, d))
	}
}

func q5Len(t *testing.T, d *Dataset) int {
	s, err := d.Provenance(Q5)
	if err != nil {
		t.Fatal(err)
	}
	return s.Len()
}

// TestCompressQ5 exercises the full paper pipeline on Q5 with the supplier
// tree at the default bound 0.5·|P|_M.
func TestCompressQ5(t *testing.T) {
	d := testDataset(t)
	set, err := d.Provenance(Q5)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := SupplierTree(treegen.SmallestOfType(1))
	if err != nil {
		t.Fatal(err)
	}
	B := set.Size() / 2
	res, err := core.OptimalVVS(set, tree, B)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adequate {
		if got := res.VVS.Apply(set).Size(); got > B {
			t.Errorf("abstracted size %d > bound %d", got, B)
		}
	}
	// Greedy over suppliers + parts forest must compress at least as much as
	// needed or exhaust candidates.
	ptree, err := PartTree(treegen.SmallestOfType(1))
	if err != nil {
		t.Fatal(err)
	}
	forest := abstree.MustForest(tree, ptree)
	gres, err := core.GreedyVVS(set, forest, B)
	if err != nil {
		t.Fatal(err)
	}
	if !gres.Adequate {
		t.Errorf("greedy could not reach bound %d (ML=%d of %d needed)", B, gres.ML, set.Size()-B)
	}
}

func TestTreesRejectOversizedShapes(t *testing.T) {
	huge := treegen.Shape{Fanouts: []int{2, 128}}
	if _, err := SupplierTree(huge); err == nil {
		t.Error("oversized supplier shape accepted")
	}
	if _, err := PartTree(huge); err == nil {
		t.Error("oversized part shape accepted")
	}
}

func TestSQLOfUnknown(t *testing.T) {
	if _, err := SQLOf(QueryID("Q99")); err == nil {
		t.Error("unknown query accepted")
	}
	if _, err := testDataset(t).Provenance(QueryID("Q99")); err == nil {
		t.Error("unknown query provenance accepted")
	}
}
