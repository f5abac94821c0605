package provenance

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestVocabIntern(t *testing.T) {
	vb := NewVocab()
	a := vb.Var("a")
	b := vb.Var("b")
	if a == b {
		t.Fatalf("distinct names got same Var: %d", a)
	}
	if got := vb.Var("a"); got != a {
		t.Errorf("re-interning a: got %d want %d", got, a)
	}
	if vb.Name(a) != "a" || vb.Name(b) != "b" {
		t.Errorf("Name round-trip failed: %q %q", vb.Name(a), vb.Name(b))
	}
	if vb.Len() != 2 {
		t.Errorf("Len = %d, want 2", vb.Len())
	}
	if _, ok := vb.Lookup("zzz"); ok {
		t.Error("Lookup of unknown name reported ok")
	}
}

func TestVocabNamePanics(t *testing.T) {
	vb := NewVocab()
	defer func() {
		if recover() == nil {
			t.Error("Name(0) did not panic")
		}
	}()
	vb.Name(NoVar)
}

func TestMonomialCanonical(t *testing.T) {
	vb := NewVocab()
	a, b := vb.Var("a"), vb.Var("b")
	m1 := NewMonomial(2, b, a, a)
	m2 := NewMonomialPows(2, VarPow{a, 2}, VarPow{b, 1})
	if m1.Key() != m2.Key() {
		t.Errorf("canonical keys differ: %q vs %q", m1.Key(), m2.Key())
	}
	if m1.Degree() != 3 {
		t.Errorf("Degree = %d, want 3", m1.Degree())
	}
	if m1.NumVars() != 2 {
		t.Errorf("NumVars = %d, want 2", m1.NumVars())
	}
	if m1.Pow(a) != 2 || m1.Pow(b) != 1 {
		t.Errorf("Pow: a=%d b=%d", m1.Pow(a), m1.Pow(b))
	}
	if !m1.Contains(a) || m1.Contains(vb.Var("c")) {
		t.Error("Contains wrong")
	}
}

func TestMonomialMul(t *testing.T) {
	vb := NewVocab()
	a, b, c := vb.Var("a"), vb.Var("b"), vb.Var("c")
	m := NewMonomial(2, a, b).Mul(NewMonomial(3, b, c))
	want := NewMonomialPows(6, VarPow{a, 1}, VarPow{b, 2}, VarPow{c, 1})
	if m.Key() != want.Key() || m.Coeff != 6 {
		t.Errorf("Mul = %s, want %s", m.String(vb), want.String(vb))
	}
}

func TestMonomialEvalDefaultsToIdentity(t *testing.T) {
	vb := NewVocab()
	a, b := vb.Var("a"), vb.Var("b")
	m := NewMonomial(5, a, b)
	if got := m.Eval(map[Var]float64{a: 2}); got != 10 {
		t.Errorf("Eval with missing b = %v, want 10", got)
	}
	if got := m.Eval(nil); got != 5 {
		t.Errorf("Eval with nil valuation = %v, want 5", got)
	}
	m3 := NewMonomialPows(1, VarPow{a, 3})
	if got := m3.Eval(map[Var]float64{a: 2}); got != 8 {
		t.Errorf("Eval a^3 = %v, want 8", got)
	}
}

func TestPolynomialMerging(t *testing.T) {
	vb := NewVocab()
	a, b := vb.Var("a"), vb.Var("b")
	p := NewPolynomial()
	p.AddTerm(2, a, b)
	p.AddTerm(3, b, a) // same variable part
	p.AddTerm(1, a)
	if p.Size() != 2 {
		t.Fatalf("Size = %d, want 2", p.Size())
	}
	if got := p.Coeff(a, b); got != 5 {
		t.Errorf("Coeff(a,b) = %v, want 5", got)
	}
}

func TestPolynomialZeroCancellation(t *testing.T) {
	vb := NewVocab()
	a := vb.Var("a")
	p := NewPolynomial()
	p.AddTerm(2, a)
	p.AddTerm(-2, a)
	if p.Size() != 0 {
		t.Errorf("cancelled polynomial Size = %d, want 0", p.Size())
	}
}

func TestPolynomialVarsAndGranularity(t *testing.T) {
	vb := NewVocab()
	a, b, c := vb.Var("a"), vb.Var("b"), vb.Var("c")
	p := FromMonomials(NewMonomial(1, a, b), NewMonomial(2, b, c))
	if p.Granularity() != 3 {
		t.Errorf("Granularity = %d, want 3", p.Granularity())
	}
	vars := p.Vars()
	if len(vars) != 3 || vars[0] != a || vars[1] != b || vars[2] != c {
		t.Errorf("Vars = %v", vars)
	}
}

// TestSubstituteRunningExample reproduces Example 2: abstracting m1,m3 -> q1
// in the zip-10001 revenue polynomial.
func TestSubstituteRunningExample(t *testing.T) {
	vb := NewVocab()
	p := MustParse(vb, "220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3")
	if p.Size() != 8 {
		t.Fatalf("parsed size = %d, want 8", p.Size())
	}
	m1, _ := vb.Lookup("m1")
	m3, _ := vb.Lookup("m3")
	q1 := vb.Var("q1")
	got := p.Substitute(map[Var]Var{m1: q1, m3: q1})
	want := MustParse(vb, "460.8·p1·q1 + 241.85·f1·q1 + 148.4·y1·q1 + 66.2·v·q1")
	if got.Size() != 4 {
		t.Fatalf("abstracted size = %d, want 4", got.Size())
	}
	for _, wm := range want.Monomials() {
		var vars []Var
		for _, vp := range wm.Vars() {
			for i := int32(0); i < vp.Pow; i++ {
				vars = append(vars, vp.Var)
			}
		}
		g := got.Coeff(vars...)
		if math.Abs(g-wm.Coeff) > 1e-9 {
			t.Errorf("coefficient of %s = %v, want %v", wm.String(vb), g, wm.Coeff)
		}
	}
	// Granularity drops from 7 (p1,f1,y1,v,m1,m3 — wait, 6) to 5.
	if g := p.Granularity(); g != 6 {
		t.Errorf("original granularity = %d, want 6", g)
	}
	if g := got.Granularity(); g != 5 {
		t.Errorf("abstracted granularity = %d, want 5", g)
	}
}

func TestSubstituteExponentsDoNotMergeAcrossPowers(t *testing.T) {
	vb := NewVocab()
	a, b, g := vb.Var("a"), vb.Var("b"), vb.Var("g")
	// a^2 and b should NOT merge when both map to g (g^2 vs g^1).
	p := FromMonomials(NewMonomialPows(1, VarPow{a, 2}), NewMonomial(1, b))
	q := p.Substitute(map[Var]Var{a: g, b: g})
	if q.Size() != 2 {
		t.Errorf("size after subst = %d, want 2 (g^2 and g must stay distinct)", q.Size())
	}
	// But a^2 and b^2 should merge into 2·g^2.
	p2 := FromMonomials(NewMonomialPows(1, VarPow{a, 2}), NewMonomialPows(1, VarPow{b, 2}))
	q2 := p2.Substitute(map[Var]Var{a: g, b: g})
	if q2.Size() != 1 {
		t.Errorf("size after subst = %d, want 1", q2.Size())
	}
	if got := q2.Coeff(g, g); got != 2 {
		t.Errorf("coeff of g^2 = %v, want 2", got)
	}
}

func TestSubstituteMergesVarsWithinMonomial(t *testing.T) {
	vb := NewVocab()
	a, b, g := vb.Var("a"), vb.Var("b"), vb.Var("g")
	p := FromMonomials(NewMonomial(3, a, b))
	q := p.Substitute(map[Var]Var{a: g, b: g})
	if got := q.Coeff(g, g); got != 3 {
		t.Errorf("a·b -> g^2: coeff = %v, want 3", got)
	}
}

func TestAddMulScale(t *testing.T) {
	vb := NewVocab()
	p := MustParse(vb, "2·a + 3·b")
	q := MustParse(vb, "a + 4")
	sum := p.Add(q)
	if want := MustParse(vb, "3·a + 3·b + 4"); !sum.Equal(want) {
		t.Errorf("Add = %s", sum.String(vb))
	}
	prod := p.Mul(q)
	if want := MustParse(vb, "2·a^2 + 3·a·b + 8·a + 12·b"); !prod.Equal(want) {
		t.Errorf("Mul = %s", prod.String(vb))
	}
	sc := p.Scale(2)
	if want := MustParse(vb, "4·a + 6·b"); !sc.Equal(want) {
		t.Errorf("Scale = %s", sc.String(vb))
	}
}

func TestEvalLinearity(t *testing.T) {
	vb := NewVocab()
	a, b := vb.Var("a"), vb.Var("b")
	p := MustParse(vb, "2·a + 3·b")
	q := MustParse(vb, "a·b + 1")
	val := map[Var]float64{a: 2, b: -1}
	if got, want := p.Add(q).Eval(val), p.Eval(val)+q.Eval(val); math.Abs(got-want) > 1e-12 {
		t.Errorf("Eval(p+q) = %v, want %v", got, want)
	}
	if got, want := p.Mul(q).Eval(val), p.Eval(val)*q.Eval(val); math.Abs(got-want) > 1e-12 {
		t.Errorf("Eval(p·q) = %v, want %v", got, want)
	}
}

func TestSetMeasures(t *testing.T) {
	vb := NewVocab()
	s := NewSet(vb)
	s.Add("P1", MustParse(vb, "220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3"))
	s.Add("P2", MustParse(vb, "77.9·b1·m1 + 80.5·b1·m3 + 52.2·e·m1 + 56.5·e·m3 + 69.7·b2·m1 + 100.65·b2·m3"))
	if s.Size() != 14 {
		t.Errorf("|P|_M = %d, want 14 (Example 13)", s.Size())
	}
	if s.Granularity() != 9 {
		t.Errorf("|P|_V = %d, want 9 (p1,f1,y1,v,b1,b2,e,m1,m3)", s.Granularity())
	}
	if s.MaxPolySize() != 8 || s.MinPolySize() != 6 {
		t.Errorf("max/min poly size = %d/%d, want 8/6", s.MaxPolySize(), s.MinPolySize())
	}
	if s.MeanPolySize() != 7 {
		t.Errorf("mean poly size = %v, want 7", s.MeanPolySize())
	}
}

func TestParseErrors(t *testing.T) {
	vb := NewVocab()
	for _, bad := range []string{"+", "2·", "a ^ x", "a^0", "a b$", "2 +"} {
		if _, err := Parse(vb, bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
	for _, good := range []string{"", "0", "a", "-a + b", "1.5e2·a", "a^3·b"} {
		if _, err := Parse(vb, good); err != nil {
			t.Errorf("Parse(%q) failed: %v", good, err)
		}
	}
}

// TestParseRefusesExponentOverflow: a repeated variable whose exponents
// sum past 2^31−1 is refused. Parse used to hand it to NewMonomialPows,
// whose int32 sum wrapped 2·p1^(2^31−1)·p1^(2^31−1) to 2·p1^−2, printed as
// 2·p1; NewMonomialPows now refuses the wrap too.
func TestParseRefusesExponentOverflow(t *testing.T) {
	vb := NewVocab()
	for _, bad := range []string{"2*p1^2147483647*p1^2147483647", "p1^2147483647·p1", "x + y^2000000000·y^200000000"} {
		if p, err := Parse(vb, bad); err == nil {
			t.Errorf("Parse(%q) = %s, want an error", bad, p.String(vb))
		} else if !strings.Contains(err.Error(), "out of range") {
			t.Errorf("Parse(%q): error %q does not say why", bad, err)
		}
	}
	if p, err := Parse(vb, "p1^2147483646·p1"); err != nil || p.Size() != 1 || p.Monomials()[0].Pow(vb.Var("p1")) != math.MaxInt32 {
		t.Errorf("p1^2147483646·p1 = %v, %v; want p1^2147483647", p, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewMonomialPows wrapped an exponent sum past 2^31−1 instead of panicking")
		}
	}()
	x := vb.Var("x")
	NewMonomialPows(1, VarPow{x, math.MaxInt32}, VarPow{x, 1})
}

func TestParsePrintRoundTrip(t *testing.T) {
	vb := NewVocab()
	p := MustParse(vb, "2·a·b + 3·c^2 - 0.5·a + 7")
	q := MustParse(vb, p.String(vb))
	if !p.Equal(q) {
		t.Errorf("round trip: %s != %s", p.String(vb), q.String(vb))
	}
}

func TestCodecRoundTrip(t *testing.T) {
	vb := NewVocab()
	s := NewSet(vb)
	s.Add("zip 10001", MustParse(vb, "220.8·p1·m1 + 240·p1·m3 - 3·v"))
	s.Add("", MustParse(vb, "77.9·b1·m1^2 + 0.125"))
	var buf testBuffer
	if err := Encode(&buf, s); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("decoded %d polys, want %d", got.Len(), s.Len())
	}
	for i := range s.Len() {
		// Vocab ids are preserved because names are written in intern order.
		if !got.Poly(i).Equal(s.Poly(i)) {
			t.Errorf("poly %d: %s != %s", i, got.Poly(i).String(got.Vocab), s.Poly(i).String(vb))
		}
		if got.Tags[i] != s.Tags[i] {
			t.Errorf("tag %d: %q != %q", i, got.Tags[i], s.Tags[i])
		}
	}
	if n := EncodedSize(s); n != buf.written {
		t.Errorf("EncodedSize = %d, Encode wrote %d", n, buf.written)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	var buf testBuffer
	buf.Write([]byte("NOPE----------------"))
	if _, err := Decode(&buf); err == nil {
		t.Error("Decode of garbage succeeded")
	}
}

type testBuffer struct {
	data    []byte
	written int
}

func (b *testBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	b.written += len(p)
	return len(p), nil
}

func (b *testBuffer) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, errEOF
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

var errEOF = eofError{}

type eofError struct{}

func (eofError) Error() string { return "EOF" }

// randomPoly builds a random polynomial over nv variables for property tests.
func randomPoly(rng *rand.Rand, vb *Vocab, nv, terms int) *Polynomial {
	vars := make([]Var, nv)
	for i := range vars {
		vars[i] = vb.Var("x" + itoa(i))
	}
	p := NewPolynomial()
	for i := 0; i < terms; i++ {
		n := rng.Intn(3) + 1
		vs := make([]Var, n)
		for j := range vs {
			vs[j] = vars[rng.Intn(nv)]
		}
		p.AddTerm(float64(rng.Intn(9)+1), vs...)
	}
	return p
}

// Property: substitution never increases |P|_M or |P|_V.
func TestQuickSubstituteShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vb := NewVocab()
		p := randomPoly(r, vb, 6, 12)
		g := vb.Var("g")
		subst := map[Var]Var{}
		for _, v := range p.Vars() {
			if r.Intn(2) == 0 {
				subst[v] = g
			}
		}
		q := p.Substitute(subst)
		return q.Size() <= p.Size() && q.Granularity() <= p.Granularity()
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: evaluation commutes with substitution when the valuation assigns
// every group member the group value (uniform scenarios are exact, §1).
func TestQuickEvalCommutesWithUniformSubstitution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vb := NewVocab()
		p := randomPoly(r, vb, 5, 10)
		g := vb.Var("g")
		subst := map[Var]Var{}
		for _, v := range p.Vars() {
			if r.Intn(2) == 0 {
				subst[v] = g
			}
		}
		gval := float64(r.Intn(5)) / 2
		val := map[Var]float64{g: gval}
		valFull := map[Var]float64{}
		for _, v := range p.Vars() {
			if _, grouped := subst[v]; grouped {
				valFull[v] = gval
			} else {
				x := float64(r.Intn(7)) / 3
				valFull[v] = x
				val[v] = x
			}
		}
		a := p.Eval(valFull)
		b := p.Substitute(subst).Eval(val)
		return math.Abs(a-b) <= 1e-6*(1+math.Abs(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: codec round-trips random sets exactly.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vb := NewVocab()
		s := NewSet(vb)
		for i := 0; i < r.Intn(4)+1; i++ {
			s.Add("t"+itoa(i), randomPoly(r, vb, 4, r.Intn(8)+1))
		}
		var buf testBuffer
		if err := Encode(&buf, s); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil || got.Len() != s.Len() {
			return false
		}
		for i := range s.Len() {
			if !got.Poly(i).Equal(s.Poly(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestResidueKey(t *testing.T) {
	vb := NewVocab()
	a, b, c := vb.Var("a"), vb.Var("b"), vb.Var("c")
	m1 := NewMonomial(2, a, c)
	m2 := NewMonomial(5, b, c)
	r1, ok1 := residueKey(m1.Key(), a)
	r2, ok2 := residueKey(m2.Key(), b)
	if !ok1 || !ok2 {
		t.Fatal("residueKey reported variable missing")
	}
	if r1 != r2 {
		t.Errorf("residues of a·c (drop a) and b·c (drop b) differ: %q vs %q", r1, r2)
	}
	if _, ok := residueKey(m1.Key(), b); ok {
		t.Error("residueKey found b in a·c")
	}
	// Exponent of the dropped variable must be preserved in the residue.
	m3 := NewMonomialPows(1, VarPow{a, 2}, VarPow{c, 1})
	m4 := NewMonomialPows(1, VarPow{b, 1}, VarPow{c, 1})
	r3, _ := residueKey(m3.Key(), a)
	r4, _ := residueKey(m4.Key(), b)
	if r3 == r4 {
		t.Error("a^2·c and b·c produced equal residues; exponents must distinguish them")
	}
}
