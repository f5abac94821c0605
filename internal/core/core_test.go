package core

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"provabs/internal/abstree"
	"provabs/internal/provenance"
)

// example13 builds the polynomials P1, P2 of Example 13 and the Figure 2
// plans tree (with the paper's Sp/Std/B shorthands).
func example13(t testing.TB) (*provenance.Set, *abstree.Tree, *abstree.Tree) {
	t.Helper()
	vb := provenance.NewVocab()
	s := provenance.NewSet(vb)
	s.Add("P1", provenance.MustParse(vb,
		"220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3"))
	s.Add("P2", provenance.MustParse(vb,
		"77.9·b1·m1 + 80.5·b1·m3 + 52.2·e·m1 + 56.5·e·m3 + 69.7·b2·m1 + 100.65·b2·m3"))
	plans := abstree.MustParseTree("Plans(Std(p1,p2),Sp(Y(y1,y2,y3),F(f1,f2),v),B(SB(b1,b2),e))")
	year := abstree.MustParseTree("Year(q1(m1,m2,m3),q2(m4,m5,m6),q3(m7,m8,m9),q4(m10,m11,m12))")
	return s, plans, year
}

// TestExample13Optimal reproduces Example 13: single plans tree, B = 9 →
// optimal VVS {SB, Sp, e, p1} with ML 6 and VL 3.
func TestExample13Optimal(t *testing.T) {
	s, plans, _ := example13(t)
	res, err := OptimalVVS(s, plans, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Adequate {
		t.Fatal("expected an adequate abstraction")
	}
	if res.ML != 6 || res.VL != 3 {
		t.Errorf("ML=%d VL=%d, want ML=6 VL=3", res.ML, res.VL)
	}
	if got := strings.Join(res.VVS.Labels(), ","); got != "SB,Sp,e,p1" {
		t.Errorf("VVS = %s, want {SB, Sp, e, p1}", res.VVS)
	}
	m, v := res.Sizes(s)
	if m != 8 || v != 6 {
		t.Errorf("abstracted sizes M=%d V=%d, want 8 and 6", m, v)
	}
}

// TestExample15Greedy reproduces Example 15: plans + year trees, B = 4.
// The greedy run promotes q1, SB, B, Sp and ends with ML 11, VL 5,
// while the optimum is {q1, Sp, SB, e, p1} with ML 10, VL 4.
func TestExample15Greedy(t *testing.T) {
	s, plans, year := example13(t)
	f := abstree.MustForest(plans, year)
	res, err := GreedyVVS(s, f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Adequate {
		t.Fatal("expected adequate greedy result")
	}
	if res.ML != 11 || res.VL != 5 {
		t.Errorf("greedy ML=%d VL=%d, want ML=11 VL=5", res.ML, res.VL)
	}
	// The brute-force optimum keeps one more variable.
	opt, err := BruteForceVVS(s, f, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt.ML != 10 || opt.VL != 4 {
		t.Errorf("optimal ML=%d VL=%d, want ML=10 VL=4", opt.ML, opt.VL)
	}
	if got := strings.Join(opt.VVS.Labels(), ","); got != "SB,Sp,e,p1,q1" {
		t.Errorf("optimal VVS = %s, want {SB, Sp, e, p1, q1}", opt.VVS)
	}
}

// TestExample8NoAdequate reproduces Example 8: with only the year tree,
// the maximal compression of P1 has size 4, so B = 3 is infeasible.
func TestExample8NoAdequate(t *testing.T) {
	vb := provenance.NewVocab()
	s := provenance.NewSet(vb)
	s.Add("P", provenance.MustParse(vb,
		"220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3"))
	year := abstree.MustParseTree("Year(q1(m1,m2,m3),q2(m4,m5,m6))")
	res, err := OptimalVVS(s, year, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adequate {
		t.Error("B=3 reported adequate; Example 8 says it is not")
	}
	if m, _ := res.Sizes(s); m != 4 {
		t.Errorf("best achievable size = %d, want 4", m)
	}
	if _, err := BruteForceVVS(s, abstree.MustForest(year), 3, 0); err != ErrNoAdequate {
		t.Errorf("brute force error = %v, want ErrNoAdequate", err)
	}
}

func TestOptimalIdentityWhenBoundLoose(t *testing.T) {
	s, plans, _ := example13(t)
	res, err := OptimalVVS(s, plans, s.Size())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Adequate || res.ML != 0 || res.VL != 0 {
		t.Errorf("loose bound: ML=%d VL=%d adequate=%v, want identity", res.ML, res.VL, res.Adequate)
	}
}

func TestOptimalRejectsBadBound(t *testing.T) {
	s, plans, _ := example13(t)
	if _, err := OptimalVVS(s, plans, 0); err == nil {
		t.Error("B=0 accepted")
	}
	if _, err := GreedyVVS(s, abstree.MustForest(plans), -1); err == nil {
		t.Error("greedy B=-1 accepted")
	}
}

func TestMonomialAndVariableLoss(t *testing.T) {
	s, plans, year := example13(t)
	f := abstree.MustForest(plans, year)
	inst := MustInstance(s, f)
	// ML(S1)=4 and ML(S5)=6, VL(S1)=2 and VL(S5)=3 in the single-polynomial
	// Example 6; on the two-polynomial set the cleaned-forest equivalents:
	v := abstree.MustFromLabels(inst.Forest, "SB", "e", "Sp", "p1", "q1")
	if got := MonomialLoss(s, v); got != 10 {
		t.Errorf("ML = %d, want 10", got)
	}
	if got := VariableLoss(s, v); got != 4 {
		t.Errorf("VL = %d, want 4", got)
	}
}

func TestResidueTableMatchesNaive(t *testing.T) {
	s, _, _ := example13(t)
	vb := s.Vocab
	for _, group := range [][]string{
		{"b1", "b2"}, {"f1", "y1", "v"}, {"m1", "m3"}, {"p1"},
		{"b1", "b2", "e"}, {"p1", "f1", "y1", "v"},
	} {
		var vars []provenance.Var
		set := map[provenance.Var]bool{}
		for _, name := range group {
			v, ok := vb.Lookup(name)
			if !ok {
				t.Fatalf("unknown var %s", name)
			}
			vars = append(vars, v)
			set[v] = true
		}
		rt := newResidueTable(polysOf(s), set)
		fast := rt.groupML(vars)
		naive := NaiveGroupML(s, vars, vb.Var("FRESH_"+strings.Join(group, "_")))
		if fast != naive {
			t.Errorf("group %v: residue ML %d != naive ML %d", group, fast, naive)
		}
	}
}

func TestDecidePrecise(t *testing.T) {
	s, plans, year := example13(t)
	f := abstree.MustForest(plans, year)
	// The optimum of Example 15 is precise for B=4, K=5:
	// |P↓S|_M = 14-10 = 4, |P↓S|_V = 9-4 = 5.
	ok, v, err := DecidePrecise(s, f, 4, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("precise VVS for B=4,K=5 not found")
	}
	if !IsPrecise(s, v, 4, 5) {
		t.Error("returned VVS is not precise")
	}
	// B=1 is unreachable (roots give 2 polynomials ≥ 2 monomials).
	ok, _, err = DecidePrecise(s, f, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("impossible precise abstraction reported to exist")
	}
}

func TestIsOptimalAgreesWithBrute(t *testing.T) {
	s, plans, _ := example13(t)
	f := abstree.MustForest(plans)
	res, err := OptimalVVS(s, plans, 9)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := IsOptimal(s, f, res.VVS, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("Algorithm 1 result not optimal per brute force")
	}
}

func TestFeasibleBounds(t *testing.T) {
	s, plans, year := example13(t)
	f := abstree.MustForest(plans, year)
	minB, maxB, err := FeasibleBounds(s, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if maxB != 14 {
		t.Errorf("maxB = %d, want 14", maxB)
	}
	// Roots of both trees: every monomial becomes Plans·q1 per polynomial → 2.
	if minB != 2 {
		t.Errorf("minB = %d, want 2", minB)
	}
	if got := RootBound(s, f); got != 2 {
		t.Errorf("RootBound = %d, want 2", got)
	}
}

// randomInstance builds a random compatible single-tree instance: a tree
// over some leaf variables plus a polynomial set in which each monomial has
// at most one tree variable.
func randomInstance(rng *rand.Rand) (*provenance.Set, *abstree.Tree) {
	vb := provenance.NewVocab()
	nLeaves := rng.Intn(6) + 2
	leafNames := make([]string, nLeaves)
	for i := range leafNames {
		leafNames[i] = "t" + string(rune('a'+i))
	}
	// Random tree over the leaves: recursively partition.
	id := 0
	var build func(names []string) abstree.Spec
	build = func(names []string) abstree.Spec {
		if len(names) == 1 {
			return abstree.Leaf(names[0])
		}
		id++
		spec := abstree.Spec{Label: "N" + string(rune('0'+id%10)) + string(rune('a'+(id/10)%26))}
		k := rng.Intn(min(len(names), 3)-1) + 2
		// Split names into k contiguous non-empty chunks.
		cuts := map[int]bool{}
		for len(cuts) < k-1 {
			cuts[rng.Intn(len(names)-1)+1] = true
		}
		idxs := []int{0}
		for i := 1; i < len(names); i++ {
			if cuts[i] {
				idxs = append(idxs, i)
			}
		}
		idxs = append(idxs, len(names))
		for i := 0; i+1 < len(idxs); i++ {
			spec.Children = append(spec.Children, build(names[idxs[i]:idxs[i+1]]))
		}
		return spec
	}
	tree := abstree.MustTree(build(leafNames))

	// Outside variables shared across monomials so merges actually happen.
	outside := []provenance.Var{vb.Var("o1"), vb.Var("o2"), vb.Var("o3")}
	s := provenance.NewSet(vb)
	nPolys := rng.Intn(3) + 1
	for pi := 0; pi < nPolys; pi++ {
		p := provenance.NewPolynomial()
		terms := rng.Intn(10) + 3
		for i := 0; i < terms; i++ {
			var vars []provenance.Var
			if rng.Intn(4) > 0 { // usually include one tree variable
				vars = append(vars, vb.Var(leafNames[rng.Intn(nLeaves)]))
			}
			if rng.Intn(3) > 0 {
				vars = append(vars, outside[rng.Intn(len(outside))])
			}
			p.AddTerm(float64(rng.Intn(9)+1), vars...)
		}
		s.Add("", p)
	}
	return s, tree
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Property: Algorithm 1 is optimal — it matches brute force's variable loss
// for every feasible bound, and agrees on adequacy for every bound.
func TestQuickOptimalMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, tree := randomInstance(rng)
		forest := abstree.MustForest(tree)
		for B := 1; B <= s.Size(); B++ {
			res, err := OptimalVVS(s, tree, B)
			if err != nil {
				t.Logf("seed %d B %d: OptimalVVS error %v", seed, B, err)
				return false
			}
			brute, err := BruteForceVVS(s, forest, B, 0)
			if err == ErrNoAdequate {
				if res.Adequate {
					t.Logf("seed %d B %d: algorithm adequate, brute says infeasible", seed, B)
					return false
				}
				continue
			}
			if err != nil {
				t.Logf("seed %d B %d: brute error %v", seed, B, err)
				return false
			}
			if !res.Adequate {
				t.Logf("seed %d B %d: algorithm inadequate, brute found VL %d", seed, B, brute.VL)
				return false
			}
			if res.VL != brute.VL {
				t.Logf("seed %d B %d: algorithm VL %d != brute VL %d (alg %s brute %s)",
					seed, B, res.VL, brute.VL, res.VVS, brute.VVS)
				return false
			}
			if !IsAdequate(s, res.VVS, B) {
				t.Logf("seed %d B %d: result not adequate on recheck", seed, B)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the greedy result is always a valid VVS; its reported ML and VL
// match direct recomputation; and whenever greedy claims adequacy the
// abstraction really meets the bound.
func TestQuickGreedyConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s0, t1 := randomInstance(rng)
		// A second tree over fresh month-like variables on the same set.
		vb := s0.Vocab
		m1, m2 := vb.Var("mm1"), vb.Var("mm2")
		s := provenance.NewSet(vb)
		for i := range s0.Len() {
			p := s0.Poly(i)
			p.AddTerm(2, m1)
			p.AddTerm(3, m2)
			s.Add(s0.Tags[i], p)
		}
		t2 := abstree.MustParseTree("MM(mm1,mm2)")
		forest := abstree.MustForest(t1, t2)
		B := rng.Intn(s.Size()) + 1
		res, err := GreedyVVS(s, forest, B)
		if err != nil {
			return false
		}
		if err := res.VVS.Validate(); err != nil {
			return false
		}
		if got := MonomialLoss(s, res.VVS); got != res.ML {
			t.Logf("seed %d: reported ML %d, actual %d", seed, res.ML, got)
			return false
		}
		if got := VariableLoss(s, res.VVS); got != res.VL {
			t.Logf("seed %d: reported VL %d, actual %d", seed, res.VL, got)
			return false
		}
		if res.Adequate != IsAdequate(s, res.VVS, B) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: greedy achieves adequacy whenever the bound is achievable by
// the coarsest abstraction (promoting everything reaches all roots, so
// greedy can always reach RootBound).
func TestQuickGreedyReachesRootBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, tree := randomInstance(rng)
		forest := abstree.MustForest(tree)
		B := RootBound(s, forest)
		res, err := GreedyVVS(s, forest, B)
		if err != nil {
			return false
		}
		return res.Adequate
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: residue-table ML equals substitution-based ML on random groups.
func TestQuickResidueML(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, tree := randomInstance(rng)
		leaves := tree.Leaves()
		var vars []provenance.Var
		set := map[provenance.Var]bool{}
		for _, l := range leaves {
			if rng.Intn(2) == 0 {
				if v, ok := s.Vocab.Lookup(tree.Label(l)); ok {
					vars = append(vars, v)
					set[v] = true
				}
			}
		}
		if len(vars) == 0 {
			return true
		}
		rt := newResidueTable(polysOf(s), set)
		return rt.groupML(vars) == NaiveGroupML(s, vars, s.Vocab.Var("FRESH"))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestInstanceRejectsIncompatible(t *testing.T) {
	vb := provenance.NewVocab()
	s := provenance.NewSet(vb)
	s.Add("", provenance.MustParse(vb, "2·a·b"))
	tree := abstree.MustParseTree("T(a,b)")
	if _, err := NewInstance(s, abstree.MustForest(tree)); err == nil {
		t.Error("incompatible instance accepted")
	}
}

// TestGreedyTieBreakAblation: on Example 15 the ML tie-break follows the
// paper's walk (q1 first); the arbitrary tie-break picks a different
// promotion order yet must still produce a valid, consistent result.
func TestGreedyTieBreakAblation(t *testing.T) {
	s, plans, year := example13(t)
	f := abstree.MustForest(plans, year)
	ml, err := GreedyVVSOpts(s, f, 4, GreedyOptions{TieBreakML: true})
	if err != nil {
		t.Fatal(err)
	}
	arb, err := GreedyVVSOpts(s, f, 4, GreedyOptions{TieBreakML: false})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Result{"ml": ml, "arbitrary": arb} {
		if err := r.VVS.Validate(); err != nil {
			t.Errorf("%s: invalid VVS: %v", name, err)
		}
		if got := MonomialLoss(s, r.VVS); got != r.ML {
			t.Errorf("%s: ML %d, recomputed %d", name, r.ML, got)
		}
	}
	if !ml.Adequate {
		t.Error("ML tie-break failed to reach the bound on Example 15")
	}
}

func TestGreedyDeterminism(t *testing.T) {
	s, plans, year := example13(t)
	f := abstree.MustForest(plans, year)
	r1, err := GreedyVVS(s, f, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r2, err := GreedyVVS(s, f, 4)
		if err != nil {
			t.Fatal(err)
		}
		l1 := r1.VVS.Labels()
		l2 := r2.VVS.Labels()
		sort.Strings(l1)
		sort.Strings(l2)
		if strings.Join(l1, ",") != strings.Join(l2, ",") {
			t.Fatalf("greedy nondeterministic: %v vs %v", l1, l2)
		}
	}
}
