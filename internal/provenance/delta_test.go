package provenance

import (
	"math"
	"math/rand"
	"testing"
)

// randomSet builds a pseudo-random provenance set: nPolys polynomials of up
// to maxTerms monomials over nVars variables, optionally with exponents > 1,
// plus one guaranteed-empty polynomial so the zero-size edge stays covered.
func randomDeltaSet(t testing.TB, rng *rand.Rand, nVars, nPolys, maxTerms int, withPows bool) *Set {
	t.Helper()
	vb := NewVocab()
	vars := make([]Var, nVars)
	for i := range vars {
		vars[i] = vb.Var("v" + itoa(i))
	}
	s := NewSet(vb)
	for pi := 0; pi < nPolys; pi++ {
		p := NewPolynomial()
		for t := rng.Intn(maxTerms + 1); t > 0; t-- {
			var vs []Var
			for n := 1 + rng.Intn(4); n > 0; n-- {
				v := vars[rng.Intn(nVars)]
				vs = append(vs, v)
				if withPows && rng.Intn(3) == 0 {
					vs = append(vs, v) // repeat accumulates into the exponent
				}
			}
			p.AddTerm(0.25+rng.Float64(), vs...)
		}
		s.Add("p"+itoa(pi), p)
	}
	s.Add("empty", NewPolynomial())
	return s
}

// touchedScenario picks k distinct variables and a dense valuation assigning
// them pseudo-random non-identity values.
func touchedScenario(rng *rand.Rand, c *Compiled, all []Var, k int) ([]Var, []float64) {
	val := c.NewValuation()
	perm := rng.Perm(len(all))
	touched := make([]Var, 0, k)
	for _, i := range perm[:k] {
		v := all[i]
		touched = append(touched, v)
		if int(v) < len(val) {
			val[v] = 0.1 + 2*rng.Float64()
		}
	}
	return touched, val
}

// TestEvalDeltaEquivalence asserts, across seeds and shapes, that EvalDelta,
// EvalSharded and full Eval are bit-identical per polynomial, and that all
// three agree with the map-based Set.Eval reference up to float reordering,
// for scenarios touching 0, 1, some and all variables.
func TestEvalDeltaEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		withPows := seed%2 == 0
		nVars := 3 + rng.Intn(20)
		s := randomDeltaSet(t, rng, nVars, 1+rng.Intn(12), 8, withPows)
		c := s.Compile()
		all := s.Vars()
		delta := c.NewDeltaEval()
		counts := []int{0, 1}
		if len(all) > 1 {
			counts = append(counts, 1+rng.Intn(len(all)), len(all))
		}
		for _, k := range counts {
			touched, val := touchedScenario(rng, c, all, k)
			full := c.Eval(val, nil)
			got := c.EvalDelta(touched, val, nil)
			for i := range full {
				if got[i] != full[i] {
					t.Fatalf("seed %d k=%d poly %d: EvalDelta %v != Eval %v (bit-identity)",
						seed, k, i, got[i], full[i])
				}
			}
			reused := delta.Eval(touched, val, make([]float64, 0, c.Len()))
			for i := range full {
				if reused[i] != full[i] {
					t.Fatalf("seed %d k=%d poly %d: DeltaEval.Eval %v != Eval %v",
						seed, k, i, reused[i], full[i])
				}
			}
			for _, workers := range []int{2, 4} {
				sharded := c.EvalSharded(val, nil, workers)
				for i := range full {
					if sharded[i] != full[i] {
						t.Fatalf("seed %d k=%d workers=%d poly %d: EvalSharded %v != Eval %v",
							seed, k, workers, i, sharded[i], full[i])
					}
				}
				ids, _ := delta.Affected(touched)
				shardedDelta := delta.EvalAffectedSharded(ids, val, nil, workers)
				for i := range full {
					if shardedDelta[i] != full[i] {
						t.Fatalf("seed %d k=%d workers=%d poly %d: EvalAffectedSharded %v != Eval %v",
							seed, k, workers, i, shardedDelta[i], full[i])
					}
				}
			}
			// Map-based reference: same values up to summation order.
			mval := make(map[Var]float64, len(val))
			for v, x := range val {
				mval[Var(v)] = x
			}
			ref := evalOracle(s, mval)
			for i := range full {
				diff := math.Abs(full[i] - ref[i])
				scale := math.Max(math.Abs(ref[i]), 1)
				if diff/scale > 1e-9 {
					t.Fatalf("seed %d k=%d poly %d: compiled %v vs map-based %v", seed, k, i, full[i], ref[i])
				}
			}
		}
	}
}

// TestBaselineMatchesIdentityEval pins the baseline cache to a fresh
// identity evaluation and checks it is shared, not recomputed.
func TestBaselineMatchesIdentityEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomDeltaSet(t, rng, 10, 6, 6, true)
	c := s.Compile()
	want := c.Eval(c.NewValuation(), nil)
	got := c.Baseline()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("baseline[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if &c.Baseline()[0] != &got[0] {
		t.Error("Baseline not cached: returned a different slice on second call")
	}
}

// TestAffectedIndex checks the inverted index against a brute-force scan.
func TestAffectedIndex(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomDeltaSet(t, rng, 12, 8, 6, seed == 2)
		c := s.Compile()
		d := c.NewDeltaEval()
		for _, v := range s.Vars() {
			ids, terms := d.Affected([]Var{v})
			var wantIDs []int32
			wantTerms := 0
			for pi := range s.Len() {
				if p := s.Poly(pi); p.VarSet()[v] {
					wantIDs = append(wantIDs, int32(pi))
					wantTerms += p.Size()
				}
			}
			if len(ids) != len(wantIDs) {
				t.Fatalf("seed %d var %d: affected %v, want %v", seed, v, ids, wantIDs)
			}
			for i := range ids {
				if ids[i] != wantIDs[i] {
					t.Fatalf("seed %d var %d: affected %v, want %v", seed, v, ids, wantIDs)
				}
			}
			if terms != wantTerms {
				t.Fatalf("seed %d var %d: affected terms %d, want %d", seed, v, terms, wantTerms)
			}
			// TermsTouching counts the terms containing v (not the terms of
			// the affected polynomials); Residues enumerates exactly those.
			wantTouch := 0
			for pi := range s.Len() {
				wantTouch += len(s.Poly(pi).Residues(v))
			}
			if upper := c.TermsTouching([]Var{v}); upper != wantTouch {
				t.Fatalf("seed %d var %d: TermsTouching %d, want %d for a single variable", seed, v, upper, wantTouch)
			}
		}
		// Unknown / out-of-range variables never panic and touch nothing.
		ids, terms := d.Affected([]Var{c.MaxVar() + 5, -1})
		if len(ids) != 0 || terms != 0 {
			t.Fatalf("out-of-range vars affected %v (%d terms), want none", ids, terms)
		}
		if c.TermsTouching([]Var{c.MaxVar() + 5, -1}) != 0 {
			t.Fatal("TermsTouching counted out-of-range variables")
		}
	}
}

// TestEvalDeltaEmptySet covers the no-polynomials and no-variables edges.
func TestEvalDeltaEmptySet(t *testing.T) {
	s := NewSet(nil)
	c := s.Compile()
	if out := c.EvalDelta(nil, c.NewValuation(), nil); len(out) != 0 {
		t.Fatalf("empty set delta eval = %v, want empty", out)
	}
	s2 := NewSet(nil)
	s2.Add("const", MustParse(s2.Vocab, "3"))
	c2 := s2.Compile()
	if out := c2.EvalDelta(nil, c2.NewValuation(), nil); len(out) != 1 || out[0] != 3 {
		t.Fatalf("constant-only delta eval = %v, want [3]", out)
	}
	if out := c2.EvalSharded(c2.NewValuation(), nil, 4); len(out) != 1 || out[0] != 3 {
		t.Fatalf("constant-only sharded eval = %v, want [3]", out)
	}
}
