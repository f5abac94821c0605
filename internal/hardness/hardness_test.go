package hardness

import (
	"math/rand"
	"testing"
	"testing/quick"

	"provabs/internal/provenance"
)

// example17 is the UPP of Example 17: X = {x1..x4}, n = 3,
// I = {(1,2),(1,3),(2,3),(2,4)} (1-based in the paper, 0-based here).
func example17() UPP {
	return UPP{
		X: []string{"x1", "x2", "x3", "x4"},
		N: 3,
		I: [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 3}},
	}
}

func TestExample17Claim18(t *testing.T) {
	u := example17()
	vb := provenance.NewVocab()
	s, err := u.Build(vb)
	if err != nil {
		t.Fatal(err)
	}
	// Claim 18 / Example 19: |P|_M = 4·3² = 36, |P|_V = 4·3 = 12.
	if got := s.Size(); got != 36 || got != u.Claim18Size() {
		t.Errorf("|P|_M = %d (claim %d), want 36", got, u.Claim18Size())
	}
	if got := s.Granularity(); got != 12 || got != u.Claim18Granularity() {
		t.Errorf("|P|_V = %d (claim %d), want 12", got, u.Claim18Granularity())
	}
}

// TestExample24 verifies Claim 23 on the paper's worked example:
// Y = {x1, x3} gives P↓S with sizes 3+1+3+9 = 16 monomials and
// 2 + 2·3 = 8 variables.
func TestExample24Claim23(t *testing.T) {
	u := example17()
	vb := provenance.NewVocab()
	s, err := u.Build(vb)
	if err != nil {
		t.Fatal(err)
	}
	f, err := u.FlatForest()
	if err != nil {
		t.Fatal(err)
	}
	Y := map[int]bool{0: true, 2: true} // x1 and x3
	v := u.VVSForRoots(f, Y)
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	abs := v.Apply(s)
	if got, want := abs.Size(), u.Claim23Size(Y); got != want || got != 16 {
		t.Errorf("|P↓S|_M = %d, claim %d, want 16", got, want)
	}
	if got, want := abs.Granularity(), u.Claim23Granularity(Y); got != want || got != 8 {
		t.Errorf("|P↓S|_V = %d, claim %d, want 8", got, want)
	}
	// Spot-check Example 24's P^(1,3)_S coefficient: 9·x1·x3.
	x1, x3 := vb.Var("x1"), vb.Var("x3")
	if got := abs.Poly(0).Coeff(x1, x3); got != 9 {
		t.Errorf("coeff of x1·x3 = %v, want 9", got)
	}
}

// Property (Claims 18 & 23): for random UPPs and random root-subsets, the
// closed-form sizes match direct substitution exactly.
func TestQuickClaims(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx := rng.Intn(3) + 2
		u := UPP{N: rng.Intn(3) + 1}
		for a := 0; a < nx; a++ {
			u.X = append(u.X, "x"+string(rune('0'+a)))
		}
		for a := 0; a < nx; a++ {
			for b := a + 1; b < nx; b++ {
				if rng.Intn(2) == 0 {
					u.I = append(u.I, [2]int{a, b})
				}
			}
		}
		if len(u.I) == 0 {
			u.I = append(u.I, [2]int{0, 1})
		}
		vb := provenance.NewVocab()
		s, err := u.Build(vb)
		if err != nil {
			return false
		}
		if s.Size() != u.Claim18Size() || s.Granularity() != u.Claim18Granularity() {
			return false
		}
		forest, err := u.FlatForest()
		if err != nil {
			return false
		}
		Y := map[int]bool{}
		for a := 0; a < nx; a++ {
			if rng.Intn(2) == 0 {
				Y[a] = true
			}
		}
		v := u.VVSForRoots(forest, Y)
		abs := v.Apply(s)
		return abs.Size() == u.Claim23Size(Y) && abs.Granularity() == u.Claim23Granularity(Y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Claim 25: abstraction never empties the polynomial (coefficients are
// positive, so monomials merge but never cancel).
func TestClaim25Positive(t *testing.T) {
	u := example17()
	vb := provenance.NewVocab()
	s, _ := u.Build(vb)
	f, _ := u.FlatForest()
	for mask := 0; mask < 1<<len(u.X); mask++ {
		Y := map[int]bool{}
		for a := range u.X {
			if mask&(1<<a) != 0 {
				Y[a] = true
			}
		}
		if got := u.VVSForRoots(f, Y).Apply(s).Size(); got <= 0 {
			t.Errorf("mask %b: |P↓S|_M = %d, want > 0", mask, got)
		}
	}
}

func TestGraphValidate(t *testing.T) {
	bad := []Graph{
		{N: 1, Edges: [][2]int{{0, 0}}},
		{N: 3, Edges: nil},
		{N: 3, Edges: [][2]int{{1, 1}}},
		{N: 3, Edges: [][2]int{{0, 5}}},
		{N: 3, Edges: [][2]int{{0, 1}, {1, 0}}},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad graph %d accepted", i)
		}
	}
	good := Graph{N: 3, Edges: [][2]int{{2, 0}, {1, 2}}}
	if err := good.Validate(); err != nil {
		t.Errorf("good graph rejected: %v", err)
	}
	// Normalization orders endpoints.
	if good.Edges[0][0] != 0 || good.Edges[0][1] != 2 {
		t.Errorf("edge not normalized: %v", good.Edges[0])
	}
}

func TestVertexCoverBrute(t *testing.T) {
	// Triangle: minimum cover 2.
	tri := Graph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}}
	if tri.HasVertexCoverOfSize(1) {
		t.Error("triangle covered by 1 vertex")
	}
	if !tri.HasVertexCoverOfSize(2) {
		t.Error("triangle not covered by 2 vertices")
	}
	// Star: center covers everything.
	star := Graph{N: 4, Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}}}
	if !star.HasVertexCoverOfSize(1) {
		t.Error("star not covered by its center")
	}
}

// TestLemma29BothDirections validates the reduction: G has a vertex cover
// of size k iff the UPP has a precise flat abstraction for K = (|V|−k)·n+k
// and some B ∈ {2..|V|²·n}. Claims 18/23 make the right-hand side cheap to
// evaluate; TestQuickClaims ties the claims to real substitution.
func TestLemma29BothDirections(t *testing.T) {
	graphs := []Graph{
		{N: 3, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}},                 // triangle
		{N: 4, Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}}},                 // star
		{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}}},                 // path
		{N: 5, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}}, // cycle
	}
	for gi, g := range graphs {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		u, err := Reduce(g, 0) // paper blowup |V|³
		if err != nil {
			t.Fatal(err)
		}
		for k := 2; k < g.N; k++ {
			want := g.HasVertexCoverOfSize(k)
			got := u.ExistsPreciseForK(Lemma29K(g, u, k), Lemma29MaxB(g, u))
			if got != want {
				t.Errorf("graph %d k=%d: reduction says %v, vertex cover says %v", gi, k, got, want)
			}
		}
	}
}

// Property: Lemma 29 holds on random graphs without isolated vertices.
func TestQuickLemma29(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3) + 3 // 3..5 nodes
		g := Graph{N: n}
		touched := make([]bool, n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Intn(2) == 0 {
					g.Edges = append(g.Edges, [2]int{a, b})
					touched[a], touched[b] = true, true
				}
			}
		}
		// Ensure no isolated vertices (Claim 23's granularity counts only
		// participating metavariables) and at least one edge.
		for a := 0; a < n; a++ {
			if !touched[a] {
				b := (a + 1) % n
				g.Edges = append(g.Edges, [2]int{min(a, b), max(a, b)})
				touched[a], touched[b] = true, true
			}
		}
		if g.Validate() != nil {
			return true // duplicate edge from the fix-up pass; skip
		}
		u, err := Reduce(g, 0)
		if err != nil {
			return false
		}
		for k := 2; k < n; k++ {
			if u.ExistsPreciseForK(Lemma29K(g, u, k), Lemma29MaxB(g, u)) != g.HasVertexCoverOfSize(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestReductionOnRealPolynomials runs the reduction with a small blowup and
// checks the decisive direction against actual substitution rather than the
// claims: a triangle has no VC of size 1, so no flat abstraction attains
// K = (3−1)·n+1 within the size budget.
func TestReductionOnRealPolynomials(t *testing.T) {
	tri := Graph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}}
	u, err := Reduce(tri, 4) // smallest blowup > |E| keeps the polynomial tiny
	if err != nil {
		t.Fatal(err)
	}
	vb := provenance.NewVocab()
	s, err := u.Build(vb)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := u.FlatForest()
	if err != nil {
		t.Fatal(err)
	}
	maxB := Lemma29MaxB(tri, u)
	for k := 1; k < 3; k++ {
		K := Lemma29K(tri, u, k)
		found := false
		for mask := 0; mask < 8; mask++ {
			Y := map[int]bool{}
			for a := 0; a < 3; a++ {
				if mask&(1<<a) != 0 {
					Y[a] = true
				}
			}
			abs := u.VVSForRoots(forest, Y).Apply(s)
			if abs.Granularity() == K && abs.Size() >= 2 && abs.Size() <= maxB {
				found = true
			}
		}
		if want := tri.HasVertexCoverOfSize(k); found != want {
			t.Errorf("k=%d: real-polynomial search %v, vertex cover %v", k, found, want)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
