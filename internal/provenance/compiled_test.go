package provenance

import (
	"math"
	"math/rand"
	"testing"
)

// randomSet builds a pseudo-random set with mixed exponents so both eval
// paths (linear and general) are exercised.
func randomSet(t testing.TB, seed int64, polys, maxTerms int, withPows bool) *Set {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vb := NewVocab()
	var vars []Var
	for i := 0; i < 40; i++ {
		vars = append(vars, vb.Var("v"+itoa(i)))
	}
	s := NewSet(vb)
	for i := 0; i < polys; i++ {
		p := NewPolynomial()
		for j := 0; j < rng.Intn(maxTerms)+1; j++ {
			n := rng.Intn(4)
			vs := make([]Var, n)
			for k := range vs {
				vs[k] = vars[rng.Intn(len(vars))]
			}
			if withPows && rng.Intn(3) == 0 && n > 0 {
				vs = append(vs, vs[0]) // duplicate → exponent 2
			}
			p.AddTerm(float64(rng.Intn(19))-9, vs...)
		}
		s.Add("poly"+itoa(i), p)
	}
	return s
}

// TestCompiledMatchesMapEval: the compiled evaluation must agree with the
// reference map-based evaluation on random sets, for both the all-pow-1
// fast path and the general-exponent path.
func TestCompiledMatchesMapEval(t *testing.T) {
	loops := map[bool]bool{} // allPow1 of the kernels checked
	defer func() {
		if !loops[true] || !loops[false] {
			t.Errorf("checked linear=%v general=%v kernels, want both", loops[true], loops[false])
		}
	}()
	for _, withPows := range []bool{false, true} {
		for seed := int64(1); seed <= 5; seed++ {
			s := randomSet(t, seed, 7, 12, withPows)
			c := s.Compile()
			if c.Len() != s.Len() || c.Size() != s.Size() {
				t.Fatalf("compiled len/size = %d/%d, want %d/%d", c.Len(), c.Size(), s.Len(), s.Size())
			}
			rng := rand.New(rand.NewSource(seed + 100))
			val := map[Var]float64{}
			for _, v := range s.Vars() {
				if rng.Intn(3) > 0 { // leave some unassigned → identity
					val[v] = float64(rng.Intn(16)) / 8
				}
			}
			want := evalOracle(s, val)
			got := c.Eval(c.Valuation(val), nil)
			if len(got) != len(want) {
				t.Fatalf("lengths %d vs %d", len(got), len(want))
			}
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Errorf("seed %d pows=%v poly %d: compiled %v, map %v", seed, withPows, i, got[i], want[i])
				}
			}
			// EvalMap bridge and per-polynomial access agree too; EvalPoly
			// bit for bit, on the linear and the general loop alike (a
			// ScenQL top-k ranks on it and then answers with Eval).
			loops[c.allPow1] = true
			got2 := c.EvalMap(val)
			dense := c.Valuation(val)
			for i := range got2 {
				if got2[i] != got[i] {
					t.Errorf("EvalMap poly %d = %v, want %v", i, got2[i], got[i])
				}
				if one := c.EvalPoly(i, dense); math.Float64bits(one) != math.Float64bits(got[i]) {
					t.Errorf("EvalPoly(%d) = %v, want Eval's %v bit for bit", i, one, got[i])
				}
			}
		}
	}
}

// TestCompiledSnapshot: Compile's copy does not change when the set
// grows, and the set does not change when a polynomial it was given does.
func TestCompiledSnapshot(t *testing.T) {
	vb := NewVocab()
	s := NewSet(vb)
	p := MustParse(vb, "2·a + 3·a·b")
	s.Add("g", p)
	c := s.Compile()
	before := c.Eval(c.NewValuation(), nil)[0]
	p.AddTerm(100, vb.Var("a"))
	s.Add("h", MustParse(vb, "7·a"))
	if after := c.Eval(c.NewValuation(), nil); len(after) != 1 || after[0] != before {
		t.Errorf("compiled copy changed after the set grew: %v -> %v", before, after)
	}
	k := s.Compiled()
	if got := k.Eval(k.NewValuation(), nil); len(got) != 2 || got[0] != before {
		t.Errorf("set answers %v after a polynomial it was given changed, want [%v 7]", got, before)
	}
}

// TestCompiledDeterministicOrder: repeated evaluations are bit-identical
// (canonical monomial order fixes the summation order).
func TestCompiledDeterministicOrder(t *testing.T) {
	s := randomSet(t, 42, 3, 30, true)
	c := s.Compile()
	val := c.NewValuation()
	for i := range val {
		val[i] = 0.5 + float64(i%7)/8
	}
	first := append([]float64(nil), c.Eval(val, nil)...)
	for r := 0; r < 10; r++ {
		got := c.Eval(val, nil)
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("round %d poly %d: %v != %v", r, i, got[i], first[i])
			}
		}
	}
}

// TestCompiledOutReuse: passing the previous out slice back in re-uses its
// storage.
func TestCompiledOutReuse(t *testing.T) {
	s := randomSet(t, 7, 5, 5, false)
	c := s.Compile()
	val := c.NewValuation()
	out := c.Eval(val, nil)
	out2 := c.Eval(val, out)
	if &out[0] != &out2[0] {
		t.Error("Eval did not re-use the out slice")
	}
}

// TestCompiledEmpty: empty sets and constant-only polynomials compile and
// evaluate.
func TestCompiledEmpty(t *testing.T) {
	s := NewSet(nil)
	c := s.Compile()
	if got := c.Eval(c.NewValuation(), nil); len(got) != 0 {
		t.Errorf("empty set eval = %v", got)
	}
	if c.ValuationLen() != 1 {
		t.Errorf("empty ValuationLen = %d, want 1 (just the NoVar slot)", c.ValuationLen())
	}
	vb := NewVocab()
	s2 := NewSet(vb)
	p := NewPolynomial()
	p.AddTerm(5) // constant
	s2.Add("c", p)
	c2 := s2.Compile()
	if got := c2.Eval(c2.NewValuation(), nil)[0]; got != 5 {
		t.Errorf("constant poly eval = %v, want 5", got)
	}
}

// TestCompilePolynomial: the single-polynomial compile agrees with the
// polynomial's own evaluation.
func TestCompilePolynomial(t *testing.T) {
	vb := NewVocab()
	p := MustParse(vb, "220.8·p1·m1 + 240·p1·m3 + 7")
	c := p.Compile()
	val := map[Var]float64{vb.Var("m3"): 0.8}
	want := p.Eval(val)
	got := c.Eval(c.Valuation(val), nil)[0]
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("compiled poly = %v, want %v", got, want)
	}
}
