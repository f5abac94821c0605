package provenance

import (
	"math/rand"
	"testing"
)

// FuzzSetSubstitute checks the array Set.Substitute against the map
// oracle, Polynomial.Substitute member by member, coefficients by
// Float64bits: a seeded set with exponents, repeated monomials and
// coefficients that cancel to exactly zero (or to something else in one
// summation order only) when monomials merge, under a substitution read
// from raw bytes whose sources may be absent from the set or lie outside
// the vocabulary, and whose targets may be fresh meta-variables.
func FuzzSetSubstitute(f *testing.F) {
	f.Add(int64(0), []byte{1, 2, 2, 2})
	f.Add(int64(1), []byte{1, 7, 2, 7, 3, 7})
	f.Add(int64(2), []byte{1, 3, 9, 1, 40, 2})
	f.Add(int64(3), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		vb := NewVocab()
		vars := vb.Vars("a", "b", "c", "d", "e", "f")
		coeffs := []float64{1, -1, 2, -2, 0.5, 3, 1e16, -1e16}
		s := NewSet(vb)
		for pi, n := 0, 1+rng.Intn(4); pi < n; pi++ {
			p := NewPolynomial()
			for i, n := 0, rng.Intn(10); i < n; i++ {
				var vs []Var
				for j, n := 0, rng.Intn(4); j < n; j++ {
					vs = append(vs, vars[rng.Intn(len(vars))]) // repeats become exponents
				}
				p.AddTerm(coeffs[rng.Intn(len(coeffs))], vs...)
			}
			s.Add(itoa(pi), p)
		}
		subst := map[Var]Var{}
		for i := 0; i+1 < len(raw); i += 2 {
			// Sources 0–15: the vocabulary's six, absent ones and 0;
			// targets 1–16: its six and fresh meta-variables.
			subst[Var(raw[i]%16)] = Var(1 + raw[i+1]%16)
		}
		got := s.Substitute(subst)
		want := substituteOracle(s, subst)
		if diff := polysDiff(got, want); diff != "" {
			t.Fatalf("array Substitute vs the map oracle: %s", diff)
		}
		flat := NewSet(vb)
		for i, p := range want {
			flat.Add(s.Tags[i], p)
		}
		if diff := kernelDiff(got.Compiled(), flat.Compiled()); diff != "" {
			t.Fatalf("substituted kernel vs the oracle's maps flattened: %s", diff)
		}
		if g, w := got.VarCount(), granularityOf(want); g != w {
			t.Fatalf("VarCount %d, the oracle's variables %d", g, w)
		}
	})
}
