package semiring

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"provabs/internal/provenance"
)

// checkLaws verifies the commutative-semiring laws on sampled elements.
func checkLaws[T any](t *testing.T, name string, sr Semiring[T], sample func(*rand.Rand) T) {
	t.Helper()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := sample(rng), sample(rng), sample(rng)
		// Commutativity.
		if !sr.Equal(sr.Add(a, b), sr.Add(b, a)) {
			t.Logf("%s: add not commutative", name)
			return false
		}
		if !sr.Equal(sr.Mul(a, b), sr.Mul(b, a)) {
			t.Logf("%s: mul not commutative", name)
			return false
		}
		// Associativity.
		if !sr.Equal(sr.Add(sr.Add(a, b), c), sr.Add(a, sr.Add(b, c))) {
			t.Logf("%s: add not associative", name)
			return false
		}
		if !sr.Equal(sr.Mul(sr.Mul(a, b), c), sr.Mul(a, sr.Mul(b, c))) {
			t.Logf("%s: mul not associative", name)
			return false
		}
		// Identities.
		if !sr.Equal(sr.Add(a, sr.Zero()), a) {
			t.Logf("%s: zero not additive identity", name)
			return false
		}
		if !sr.Equal(sr.Mul(a, sr.One()), a) {
			t.Logf("%s: one not multiplicative identity", name)
			return false
		}
		// Annihilation.
		if !sr.Equal(sr.Mul(a, sr.Zero()), sr.Zero()) {
			t.Logf("%s: zero does not annihilate", name)
			return false
		}
		// Distributivity.
		if !sr.Equal(sr.Mul(a, sr.Add(b, c)), sr.Add(sr.Mul(a, b), sr.Mul(a, c))) {
			t.Logf("%s: mul does not distribute over add", name)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

func TestSemiringLaws(t *testing.T) {
	checkLaws[int64](t, "counting", Counting{}, func(r *rand.Rand) int64 { return int64(r.Intn(20)) })
	checkLaws[bool](t, "boolean", Boolean{}, func(r *rand.Rand) bool { return r.Intn(2) == 0 })
	checkLaws[float64](t, "tropical", Tropical{}, func(r *rand.Rand) float64 {
		if r.Intn(8) == 0 {
			return math.Inf(1)
		}
		return float64(r.Intn(50))
	})
	checkLaws[float64](t, "minmax", MinMax{}, func(r *rand.Rand) float64 {
		switch r.Intn(10) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		default:
			return float64(r.Intn(9))
		}
	})
	checkLaws[float64](t, "numeric", Numeric{}, func(r *rand.Rand) float64 { return float64(r.Intn(9)) })
}

func TestEvalBooleanDeletionScenario(t *testing.T) {
	vb := provenance.NewVocab()
	// p = t1·t2 + t3 — the output exists if both t1,t2 survive or t3 does.
	p := provenance.MustParse(vb, "t1·t2 + t3")
	t1, _ := vb.Lookup("t1")
	t3, _ := vb.Lookup("t3")
	alive := func(dead ...provenance.Var) func(provenance.Var) bool {
		d := map[provenance.Var]bool{}
		for _, v := range dead {
			d[v] = true
		}
		return func(v provenance.Var) bool { return !d[v] }
	}
	got, err := Eval[bool](Boolean{}, p, alive())
	if err != nil || got != true {
		t.Errorf("no deletions: %v, %v", got, err)
	}
	got, _ = Eval[bool](Boolean{}, p, alive(t3))
	if got != true {
		t.Error("deleting t3 alone should keep the tuple (t1·t2 derivation)")
	}
	got, _ = Eval[bool](Boolean{}, p, alive(t1, t3))
	if got != false {
		t.Error("deleting t1 and t3 should kill the tuple")
	}
}

func TestEvalCountingMultiplicity(t *testing.T) {
	vb := provenance.NewVocab()
	p := provenance.MustParse(vb, "2·x·y + 3·z")
	val := map[string]int64{"x": 2, "y": 3, "z": 1}
	got, err := Eval[int64](Counting{}, p, func(v provenance.Var) int64 { return val[vb.Name(v)] })
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2*2*3 + 3*1); got != want {
		t.Errorf("counting eval = %d, want %d", got, want)
	}
}

func TestEvalTropicalCheapestDerivation(t *testing.T) {
	vb := provenance.NewVocab()
	p := provenance.MustParse(vb, "a·b + c")
	cost := map[string]float64{"a": 2, "b": 5, "c": 10}
	got, err := Eval[float64](Tropical{}, p, func(v provenance.Var) float64 { return cost[vb.Name(v)] })
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 { // min(2+5, 10)
		t.Errorf("tropical eval = %v, want 7", got)
	}
}

func TestEvalRejectsNonNaturalCoefficients(t *testing.T) {
	vb := provenance.NewVocab()
	for _, src := range []string{"0.5·x", "-2·x"} {
		p := provenance.MustParse(vb, src)
		if _, err := Eval[bool](Boolean{}, p, func(provenance.Var) bool { return true }); err == nil {
			t.Errorf("Eval(%q) accepted a non-natural coefficient", src)
		}
	}
}

// Regression: coefficients within provenance.NaturalTolerance of an integer
// are accepted — the summarize compression path accumulates multiplicities
// in float64 and can emit 2.9999999999 where 3 is meant. A strict integer
// check used to reject those polynomials outright.
func TestEvalAcceptsNearIntegerCoefficients(t *testing.T) {
	vb := provenance.NewVocab()
	p := provenance.NewPolynomial()
	p.AddTerm(2.9999999999, vb.Var("x")) // within 1e-9 of 3
	got, err := Eval[int64](Counting{}, p, func(provenance.Var) int64 { return 2 })
	if err != nil {
		t.Fatalf("Eval rejected a near-integer coefficient: %v", err)
	}
	if got != 6 { // 3·2: the multiplicity rounds to 3
		t.Errorf("counting eval = %d, want 6", got)
	}
	// Just past the tolerance still fails.
	q := provenance.NewPolynomial()
	q.AddTerm(2.99, vb.Var("x"))
	if _, err := Eval[int64](Counting{}, q, func(provenance.Var) int64 { return 1 }); err == nil {
		t.Error("Eval accepted a coefficient 0.01 from an integer")
	}
}

// Property: Numeric semiring evaluation agrees with Polynomial.Eval on
// natural-coefficient polynomials.
func TestQuickNumericMatchesEval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vb := provenance.NewVocab()
		p := provenance.NewPolynomial()
		vars := []provenance.Var{vb.Var("x"), vb.Var("y"), vb.Var("z")}
		for i := 0; i < rng.Intn(6)+1; i++ {
			var vs []provenance.Var
			for j := 0; j < rng.Intn(3); j++ {
				vs = append(vs, vars[rng.Intn(3)])
			}
			p.AddTerm(float64(rng.Intn(5)), vs...)
		}
		val := map[provenance.Var]float64{}
		for _, v := range vars {
			val[v] = float64(rng.Intn(4))
		}
		want := p.Eval(val)
		got, err := Eval[float64](Numeric{}, p, func(v provenance.Var) float64 { return val[v] })
		if err != nil {
			return false
		}
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: evaluation commutes with abstraction under group-uniform
// valuations in ANY semiring (the semantic guarantee that makes abstraction
// sound for hypothetical reasoning). Tested in the counting semiring.
func TestQuickAbstractionCommutesInCounting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vb := provenance.NewVocab()
		p := provenance.NewPolynomial()
		vars := []provenance.Var{vb.Var("a"), vb.Var("b"), vb.Var("c"), vb.Var("d")}
		for i := 0; i < rng.Intn(8)+1; i++ {
			var vs []provenance.Var
			for j := 0; j < rng.Intn(3); j++ {
				vs = append(vs, vars[rng.Intn(4)])
			}
			p.AddTerm(float64(rng.Intn(3)+1), vs...)
		}
		g := vb.Var("g")
		subst := map[provenance.Var]provenance.Var{vars[0]: g, vars[1]: g}
		q := p.Substitute(subst)
		gval := int64(rng.Intn(4))
		val := map[provenance.Var]int64{vars[0]: gval, vars[1]: gval, g: gval,
			vars[2]: int64(rng.Intn(4)), vars[3]: int64(rng.Intn(4))}
		a, err1 := Eval[int64](Counting{}, p, func(v provenance.Var) int64 { return val[v] })
		b, err2 := Eval[int64](Counting{}, q, func(v provenance.Var) int64 { return val[v] })
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
