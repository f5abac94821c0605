package provenance

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// walkSet builds a set of n monomials over 200 variables, with exponents.
func walkSet(n int) *Set {
	rng := rand.New(rand.NewSource(int64(n)))
	vb := NewVocab()
	s := NewSet(vb)
	p := NewPolynomial()
	for p.Size() < n {
		pows := make([]VarPow, 1+rng.Intn(3))
		for i := range pows {
			pows[i] = VarPow{Var: vb.Var(fmt.Sprintf("v%d", rng.Intn(200))), Pow: int32(1 + rng.Intn(3))}
		}
		p.AddMonomial(NewMonomialPows(float64(1+rng.Intn(9)), pows...))
		if p.Size() >= 1000 {
			s.Add("", p)
			n -= p.Size()
			p = NewPolynomial()
		}
	}
	s.Add("", p)
	return s
}

// TestKeyWalk: AppendVars decodes what AppendKey encodes, the variable
// walks agree with the Monomial-based definition, and FromKeys merges and
// drops terms as AddMonomial does.
func TestKeyWalk(t *testing.T) {
	s := walkSet(3000)
	want := map[Var]bool{}
	for _, p := range s.Polys {
		for _, m := range p.Monomials() {
			got := m.Key().AppendVars(nil)
			if !slices.Equal(got, m.Vars()) {
				t.Fatalf("AppendVars(%x) = %v, want %v", m.Key(), got, m.Vars())
			}
			if k := MonomialKey(AppendKey(nil, m.Vars())); k != m.Key() {
				t.Fatalf("AppendKey = %x, want %x", k, m.Key())
			}
			for _, vp := range m.Vars() {
				want[vp.Var] = true
			}
		}
	}
	if got := s.VarSet(); len(got) != len(want) || s.Granularity() != len(want) || len(s.Vars()) != len(want) {
		t.Fatalf("VarSet %d, Granularity %d, Vars %d; want %d variables", len(got), s.Granularity(), len(s.Vars()), len(want))
	}
	if vs := s.Vars(); !slices.IsSorted(vs) {
		t.Errorf("Vars not sorted: %v", vs)
	}
	if hole := (MonomialKey(AppendKey(nil, []VarPow{{Hole, 2}, {3, 1}}))).AppendVars(nil); !slices.Equal(hole, []VarPow{{Hole, 2}, {3, 1}}) {
		t.Errorf("Hole round trip = %v", hole)
	}

	vb := s.Vocab
	a, b := NewMonomial(2, vb.Var("v1")), NewMonomial(-2, vb.Var("v1"))
	c := NewMonomial(3, vb.Var("v2"))
	p := FromKeys([]MonomialKey{a.Key(), c.Key(), b.Key()}, []float64{2, 3, -2})
	if p.Size() != 1 || p.Coeff(vb.Var("v2")) != 3 {
		t.Errorf("FromKeys = %s, want 3·v2", p.String(vb))
	}
	n := 0
	for range s.Polys[0].Terms() {
		if n++; n == 5 {
			break
		}
	}
	if n != 5 {
		t.Errorf("Terms stopped after %d terms", n)
	}
}

// BenchmarkVarWalk measures Set.Granularity, the walk /v1/stats and every
// compress reply make over all keys: allocations stay flat as the set
// grows.
func BenchmarkVarWalk(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		s := walkSet(n)
		b.Run(fmt.Sprintf("monomials=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Granularity()
			}
		})
	}
}
