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

// TestKeyWalk: AppendVars decodes what AppendKey encodes, and the variable
// walks agree with the Monomial-based definition.
func TestKeyWalk(t *testing.T) {
	s := walkSet(3000)
	want := map[Var]bool{}
	for i := range s.Len() {
		for _, m := range s.Poly(i).Monomials() {
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

	n := 0
	for range s.Poly(0).Terms() {
		if n++; n == 5 {
			break
		}
	}
	if n != 5 {
		t.Errorf("Terms stopped after %d terms", n)
	}
}
