package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/provenance"
	"provabs/internal/telco"
	"provabs/internal/treegen"
)

// randomCompressInstance builds a random compatible instance covering what
// the packed table must get right: one to three trees, a leaf of every tree
// that never occurs in P, exponents on tree and foreign variables, constant
// terms, and coefficients that cancel to exactly zero (±1, ±2) or only
// almost (0.1 + 0.2 − 0.3) when merged. Every third instance draws from
// {1, ±1e16} instead, whose merged sums cancel in some summation orders
// only (1 + 1e16 − 1e16 is 0, 1e16 − 1e16 + 1 is 1).
func randomCompressInstance(rng *rand.Rand) (*provenance.Set, *abstree.Forest) {
	vb := provenance.NewVocab()
	nTrees := 1 + rng.Intn(3)
	trees := make([]*abstree.Tree, nTrees)
	leaves := make([][]string, nTrees)
	for ti := range trees {
		leaves[ti] = make([]string, 2+rng.Intn(6))
		for i := range leaves[ti] {
			leaves[ti][i] = fmt.Sprintf("t%dl%d", ti, i)
		}
		trees[ti] = randomTree(rng, fmt.Sprintf("T%d", ti), leaves[ti])
	}
	foreign := []string{"o1", "o2", "o3"}
	coeffs := []float64{1, -1, 2, -2, 0.1, 0.2, -0.3, 0.7, -0.7, 3}
	if rng.Intn(3) == 0 {
		coeffs = []float64{1, 1e16, -1e16}
	}
	s := provenance.NewSet(vb)
	for pi, n := 0, 1+rng.Intn(4); pi < n; pi++ {
		p := provenance.NewPolynomial()
		for i, terms := 0, 2+rng.Intn(14); i < terms; i++ {
			var pows []provenance.VarPow
			for ti := range trees {
				if rng.Intn(3) > 0 {
					l := leaves[ti][rng.Intn(len(leaves[ti])-1)] // the last leaf stays out of P
					pows = append(pows, provenance.VarPow{Var: vb.Var(l), Pow: int32(1 + rng.Intn(2))})
				}
			}
			if rng.Intn(2) == 0 {
				pows = append(pows, provenance.VarPow{Var: vb.Var(foreign[rng.Intn(len(foreign))]), Pow: int32(1 + rng.Intn(2))})
			}
			p.AddMonomial(provenance.NewMonomialPows(coeffs[rng.Intn(len(coeffs))], pows...))
		}
		s.Add(fmt.Sprintf("P%d", pi), p)
	}
	return s, abstree.MustForest(trees...)
}

// randomTree builds a random tree over the leaves by recursive partition,
// naming internal nodes prefix.0, prefix.1, ….
func randomTree(rng *rand.Rand, prefix string, leaves []string) *abstree.Tree {
	id := 0
	var build func(names []string) abstree.Spec
	build = func(names []string) abstree.Spec {
		if len(names) == 1 {
			return abstree.Leaf(names[0])
		}
		spec := abstree.Spec{Label: fmt.Sprintf("%s.%d", prefix, id)}
		id++
		parts := 2 + rng.Intn(min(len(names), 3)-1)
		for len(names) > 0 {
			n := 1 + rng.Intn(len(names)-parts+1)
			if parts == 1 {
				n = len(names)
			}
			spec.Children = append(spec.Children, build(names[:n]))
			names, parts = names[n:], parts-1
		}
		return spec
	}
	return abstree.MustTree(build(leaves))
}

// checkCompressParity runs every packed strategy on (s, f) and the
// string-keyed oracles on (so, fo) — an independent copy of the same
// instance, so that the vocabularies, which selection grows with
// meta-variables, must stay equal too — and reports any difference.
func checkCompressParity(t *testing.T, name string, s *provenance.Set, f *abstree.Forest, so *provenance.Set, fo *abstree.Forest, B int) {
	t.Helper()
	same := func(what string, got, want *Result) {
		t.Helper()
		if g, w := strings.Join(got.VVS.Labels(), ","), strings.Join(want.VVS.Labels(), ","); g != w ||
			got.ML != want.ML || got.VL != want.VL || got.Adequate != want.Adequate {
			t.Fatalf("%s B=%d %s: packed {%s} ML=%d VL=%d adequate=%v, oracle {%s} ML=%d VL=%d adequate=%v",
				name, B, what, g, got.ML, got.VL, got.Adequate, w, want.ML, want.VL, want.Adequate)
		}
	}
	abstracted := func(what string, comp *Compression, res *Result, want *Result) {
		t.Helper()
		same(what+" compressor", &Result{VVS: comp.VVS, ML: comp.ML, VL: comp.VL, Adequate: comp.Adequate}, res)
		if diff := bitDiff(comp.Abstracted, s.Substitute(comp.VVS.Subst(s.Vocab))); diff != "" {
			t.Fatalf("%s B=%d %s: Abstracted differs from Substitute: %s", name, B, what, diff)
		}
		if diff := bitDiff(comp.Abstracted, so.Substitute(want.VVS.Subst(so.Vocab))); diff != "" {
			t.Fatalf("%s B=%d %s: Abstracted differs from the oracle's: %s", name, B, what, diff)
		}
	}
	for _, tie := range []bool{true, false} {
		opts := GreedyOptions{TieBreakML: tie}
		got, err := GreedyVVSOpts(s, f, B, opts)
		if err != nil {
			t.Fatalf("%s B=%d: greedy: %v", name, B, err)
		}
		want, err := oracleGreedy(so, fo, B, opts)
		if err != nil {
			t.Fatalf("%s B=%d: oracle greedy: %v", name, B, err)
		}
		same(fmt.Sprintf("greedy tie-break-ML=%v", tie), got, want)
		if tie {
			comp, err := GreedyCompressor().Compress(s, f, B)
			if err != nil {
				t.Fatalf("%s B=%d: greedy compressor: %v", name, B, err)
			}
			abstracted("greedy", comp, got, want)
		}
	}
	got, err := OptimalVVS(s, f.Trees[0], B)
	if err != nil {
		t.Fatalf("%s B=%d: optimal: %v", name, B, err)
	}
	want, err := oracleOptimal(so, fo.Trees[0], B)
	if err != nil {
		t.Fatalf("%s B=%d: oracle optimal: %v", name, B, err)
	}
	same("optimal", got, want)
	comp, err := OptimalCompressor().Compress(s, abstree.MustForest(f.Trees[0]), B)
	if err != nil {
		t.Fatalf("%s B=%d: optimal compressor: %v", name, B, err)
	}
	abstracted("optimal", comp, got, want)
	if g, w := s.Vocab.SortedNames(), so.Vocab.SortedNames(); strings.Join(g, ",") != strings.Join(w, ",") || s.Vocab.Len() != so.Vocab.Len() {
		t.Fatalf("%s B=%d: vocabularies diverged: %v vs %v", name, B, g, w)
	}
}

// bitDiff describes the first term where a and b differ, comparing
// coefficients by Float64bits; "" when they are identical.
func bitDiff(a, b *provenance.Set) string {
	if a.Len() != b.Len() || strings.Join(a.Tags, "\x00") != strings.Join(b.Tags, "\x00") {
		return fmt.Sprintf("%d vs %d polynomials or different tags", a.Len(), b.Len())
	}
	for i := range a.Polys {
		want := make(map[provenance.MonomialKey]uint64, a.Polys[i].Size())
		for k, c := range a.Polys[i].Terms() {
			want[k] = math.Float64bits(c)
		}
		if a.Polys[i].Size() != b.Polys[i].Size() {
			return fmt.Sprintf("polynomial %d: %d vs %d terms", i, a.Polys[i].Size(), b.Polys[i].Size())
		}
		for k, c := range b.Polys[i].Terms() {
			if w, ok := want[k]; !ok || w != math.Float64bits(c) {
				return fmt.Sprintf("polynomial %d: term %x: %x vs %x (present %v)", i, k, w, math.Float64bits(c), ok)
			}
		}
	}
	return ""
}

// TestPackedCompressMatchesOracle: on 500 random instances, greedy (both
// tie-breaks) and optimal (on the first tree) pick the VVS, ML, VL and
// adequacy the string-keyed oracles pick, at B = 1, a random bound and
// B = |P|, and the compressors' abstracted sets are Float64bits-identical
// to Substitute's.
func TestPackedCompressMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, f := randomCompressInstance(rand.New(rand.NewSource(seed)))
		so, fo := randomCompressInstance(rand.New(rand.NewSource(seed)))
		n := max(s.Size(), 1)
		for _, B := range []int{1, 1 + rng.Intn(n), n} {
			checkCompressParity(t, fmt.Sprintf("seed %d", seed), s, f, so, fo, B)
		}
	}
}

// FuzzCompressParity drives the same parity check from a fuzzed instance
// seed and bound.
func FuzzCompressParity(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint16(seed*7))
	}
	f.Fuzz(func(t *testing.T, seed int64, b uint16) {
		s, forest := randomCompressInstance(rand.New(rand.NewSource(seed)))
		so, fo := randomCompressInstance(rand.New(rand.NewSource(seed)))
		checkCompressParity(t, fmt.Sprintf("seed %d", seed), s, forest, so, fo, 1+int(b)%max(s.Size(), 1))
	})
}

// TestPackedCompressTelcoM checks greedy parity at perfbench's largest
// set-up: telco-m, the Table 2 type 1 plans tree 2×64 plus the quarter
// tree, B = |P|/2.
func TestPackedCompressTelcoM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds telco-m (230k monomials) twice")
	}
	build := func() (*provenance.Set, *abstree.Forest) {
		s, err := telco.SyntheticProvenance(telco.Config{Customers: 20000, Zips: 2000, Plans: 128, Months: 12, Seed: 1000})
		if err != nil {
			t.Fatal(err)
		}
		plans, err := telco.PlansTree(treegen.Shape{Type: 1, Fanouts: []int{2, 64}})
		if err != nil {
			t.Fatal(err)
		}
		return s, abstree.MustForest(plans, telco.QuarterTree())
	}
	s, f := build()
	so, fo := build()
	B := s.Size() / 2
	comp, err := GreedyCompressor().Compress(s, f, B)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleGreedy(so, fo, B, GreedyOptions{TieBreakML: true})
	if err != nil {
		t.Fatal(err)
	}
	got := &Result{VVS: comp.VVS, ML: comp.ML, VL: comp.VL, Adequate: comp.Adequate}
	if g, w := strings.Join(got.VVS.Labels(), ","), strings.Join(want.VVS.Labels(), ","); g != w ||
		got.ML != want.ML || got.VL != want.VL || got.Adequate != want.Adequate {
		t.Fatalf("packed {%s} ML=%d VL=%d adequate=%v, oracle {%s} ML=%d VL=%d adequate=%v",
			g, got.ML, got.VL, got.Adequate, w, want.ML, want.VL, want.Adequate)
	}
	if diff := bitDiff(comp.Abstracted, so.Substitute(want.VVS.Subst(so.Vocab))); diff != "" {
		t.Fatalf("Abstracted differs from the oracle's: %s", diff)
	}
}

// TestCompressionElapsedCoversBuild: Elapsed is read after the abstracted
// set exists, so time spent building it counts.
func TestCompressionElapsedCoversBuild(t *testing.T) {
	s, plans, _ := example13(t)
	const build = 20 * time.Millisecond
	comp, err := timed("greedy", s, func() (*Result, *provenance.Set, error) {
		res, tab, err := greedy(s, abstree.MustForest(plans), 9, GreedyOptions{TieBreakML: true})
		if err != nil {
			return nil, nil, err
		}
		abs := tab.abstract(res.VVS.Subst(s.Vocab))
		time.Sleep(build) // stands in for a slow build
		return res, abs, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Elapsed < build {
		t.Errorf("Elapsed = %v, shorter than the %v build", comp.Elapsed, build)
	}
}

// TestGreedySumsMergesInCurrentKeyOrder pins the order greedy adds merged
// coefficients in: ascending current key, as re-substituting the current
// abstraction after every promotion did, not source-key order. Promoting A
// turns x1·l3, x2·l2, x3·l1 into l3·A, l2·A, l1·A, whose keys sort in the
// reverse order; promoting B then merges them, and 1 + 1e16 − 1e16 cancels
// to exactly 0 where the source order −1e16 + 1e16 + 1 leaves 1. The
// abstracted set is built in one substitution from the source, so it keeps
// that 1.
func TestGreedySumsMergesInCurrentKeyOrder(t *testing.T) {
	vb := provenance.NewVocab()
	x, l := vb.Vars("x1", "x2", "x3"), vb.Vars("l1", "l2", "l3")
	s := provenance.NewSet(vb)
	p := provenance.NewPolynomial()
	p.AddTerm(-1e16, x[0], l[2])
	p.AddTerm(1e16, x[1], l[1])
	p.AddTerm(1, x[2], l[0])
	s.Add("P", p)
	f := abstree.MustForest(abstree.MustParseTree("A(x1,x2,x3)"), abstree.MustParseTree("B(l1,l2,l3)"))
	comp, err := GreedyCompressor().Compress(s, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(comp.VVS.Labels(), ","); got != "A,B" || comp.ML != 3 || !comp.Adequate {
		t.Errorf("greedy {%s} ML=%d adequate=%v, want {A,B} ML=3 adequate=true", got, comp.ML, comp.Adequate)
	}
	want, err := oracleGreedy(s, f, 1, GreedyOptions{TieBreakML: true})
	if err != nil {
		t.Fatal(err)
	}
	if want.ML != 3 {
		t.Errorf("string-keyed oracle ML=%d, want 3", want.ML)
	}
	a, b := vb.Var("A"), vb.Var("B")
	if got := comp.Abstracted.Polys[0]; got.Size() != 1 || got.Coeff(a, b) != 1 {
		t.Errorf("abstracted %s, want 1·A·B", got.String(vb))
	}
}
