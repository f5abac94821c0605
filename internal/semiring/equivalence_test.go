package semiring

// Kernel-vs-naive equivalence: the compiled evaluation stack (Kernel.Eval,
// EvalPoly, EvalDelta, EvalFrom, Append) must agree with a direct map-based reading of
// the polynomials in every carrier, across random polynomial shapes — mixed
// powers, empty polynomials, shared variables — and across incremental
// appends. The naive evaluator below mirrors the N[X] semantics the kernel
// compiles (coefficient through FromCoeff, then n-fold Mul per power) but
// shares none of its code paths.

import (
	"math"
	"math/rand"
	"testing"

	"provabs/internal/provenance"
)

// naiveEval reads one polynomial directly off its monomials.
func naiveEval[T any, C provenance.Carrier[T]](cr C, p *provenance.Polynomial, val map[provenance.Var]T) (T, error) {
	acc := cr.Zero()
	for _, m := range p.Monomials() {
		term, err := cr.FromCoeff(m.Coeff)
		if err != nil {
			return acc, err
		}
		for _, vp := range m.Vars() {
			x, ok := val[vp.Var]
			if !ok {
				x = cr.One()
			}
			for k := int32(0); k < vp.Pow; k++ {
				term = cr.Mul(term, x)
			}
		}
		acc = cr.Add(acc, term)
	}
	return acc, nil
}

// randomSet builds a random natural-coefficient set over a small vocabulary:
// varying term counts (including empty polynomials), powers up to 3, shared
// variables so deltas touch several polynomials at once.
func randomSet(rng *rand.Rand, vb *provenance.Vocab, nPolys int) *provenance.Set {
	set := provenance.NewSet(vb)
	vars := []provenance.Var{vb.Var("a"), vb.Var("b"), vb.Var("c"), vb.Var("d"), vb.Var("e")}
	for i := 0; i < nPolys; i++ {
		p := provenance.NewPolynomial()
		for t := 0; t < rng.Intn(5); t++ { // 0 terms = empty polynomial
			var vps []provenance.VarPow
			for _, v := range vars {
				if rng.Intn(3) == 0 {
					vps = append(vps, provenance.VarPow{Var: v, Pow: int32(1 + rng.Intn(3))})
				}
			}
			p.AddMonomial(provenance.NewMonomialPows(float64(rng.Intn(4)), vps...))
		}
		set.Add("", p)
	}
	return set
}

// checkKernelEquivalence compiles random sets in the carrier and asserts
// Eval, EvalDelta, EvalFrom and post-Append evaluation all match naiveEval.
func checkKernelEquivalence[T any, C provenance.Carrier[T]](t *testing.T, name string, cr C, sample func(*rand.Rand) T) {
	t.Helper()
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vb := provenance.NewVocab()
		set := randomSet(rng, vb, 4+rng.Intn(4))
		k, err := provenance.CompileSet[T, C](cr, set)
		if err != nil {
			t.Fatalf("%s seed %d: compile: %v", name, seed, err)
		}

		val := map[provenance.Var]T{}
		for _, v := range set.Vars() {
			val[v] = sample(rng)
		}
		naive := func() []T {
			want := make([]T, set.Len())
			for i := range want {
				w, err := naiveEval(cr, set.Poly(i), val)
				if err != nil {
					t.Fatalf("%s seed %d: naive: %v", name, seed, err)
				}
				want[i] = w
			}
			return want
		}
		dense := k.Valuation(val)
		check := func(stage string, got []T) {
			want := naive()
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %s: %d answers, want %d", name, seed, stage, len(got), len(want))
			}
			for i := range want {
				if !cr.Equal(got[i], want[i]) {
					t.Fatalf("%s seed %d: %s: poly %d = %v, want %v", name, seed, stage, i, got[i], want[i])
				}
			}
		}

		check("Eval", k.Eval(dense, nil))
		for i, want := range k.Eval(dense, nil) {
			if got := k.EvalPoly(i, dense); !sameBits(got, want) {
				t.Fatalf("%s seed %d: EvalPoly(%d) = %v, want Eval's %v bit for bit", name, seed, i, got, want)
			}
		}

		// EvalDelta: perturb a random subset of variables off the identity.
		val = map[provenance.Var]T{}
		var touched []provenance.Var
		for _, v := range set.Vars() {
			if rng.Intn(2) == 0 {
				val[v] = sample(rng)
				touched = append(touched, v)
			}
		}
		dense = k.Valuation(val)
		check("EvalDelta", k.EvalDelta(touched, dense, nil))

		// EvalFrom: chain a second perturbation off the first answers (the
		// carriers that decline chaining still take the same code path with
		// the identity baseline underneath via EvalDelta, so only chainable
		// carriers exercise EvalFrom).
		if cr.Chainable() {
			prev := append([]T(nil), k.Eval(dense, nil)...)
			prevVal := val
			val = map[provenance.Var]T{}
			for v, x := range prevVal {
				val[v] = x
			}
			var diff []provenance.Var
			for _, v := range set.Vars() {
				if rng.Intn(3) == 0 {
					val[v] = sample(rng)
					diff = append(diff, v)
				}
			}
			dense = k.Valuation(val)
			d := k.GetDeltaEval()
			check("EvalFrom", d.EvalFrom(diff, dense, prev, nil))
			k.PutDeltaEval(d)
		}

		// Append: extend the compiled kernel in place and re-check Eval.
		extra := randomSet(rng, vb, 2)
		polys := make([]*provenance.Polynomial, extra.Len())
		for i := range polys {
			polys[i] = extra.Poly(i)
		}
		if k.Append(polys, extra.Tags) {
			for _, p := range polys {
				set.Add("", p)
			}
			val = map[provenance.Var]T{}
			for _, v := range set.Vars() {
				val[v] = sample(rng)
			}
			check("Append+Eval", k.Eval(k.Valuation(val), nil))
		}
	}
}

// sameBits is bit identity: float64s by their bits, anything else by ==.
func sameBits[T any](a, b T) bool {
	if x, ok := any(a).(float64); ok {
		return math.Float64bits(x) == math.Float64bits(any(b).(float64))
	}
	return any(a) == any(b)
}

func TestKernelMatchesNaiveEval(t *testing.T) {
	checkKernelEquivalence[float64](t, "numeric", Numeric{}, func(r *rand.Rand) float64 {
		return float64(r.Intn(9)) / 2
	})
	checkKernelEquivalence[bool](t, "boolean", Boolean{}, func(r *rand.Rand) bool {
		return r.Intn(2) == 0
	})
	checkKernelEquivalence[int64](t, "counting", Counting{}, func(r *rand.Rand) int64 {
		return int64(r.Intn(4))
	})
	checkKernelEquivalence[float64](t, "tropical", Tropical{}, func(r *rand.Rand) float64 {
		if r.Intn(8) == 0 {
			return math.Inf(1)
		}
		return float64(r.Intn(50))
	})
	checkKernelEquivalence[float64](t, "minmax", MinMax{}, func(r *rand.Rand) float64 {
		switch r.Intn(10) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		default:
			return float64(r.Intn(7))
		}
	})
}
