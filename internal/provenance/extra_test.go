package provenance

import (
	"math"
	"strings"
	"testing"
)

func TestVocabAllAndSortedNames(t *testing.T) {
	vb := NewVocab()
	vb.Vars("zeta", "alpha", "mid")
	all := vb.All()
	if len(all) != 3 || vb.Name(all[0]) != "zeta" {
		t.Errorf("All = %v", all)
	}
	sorted := vb.SortedNames()
	if strings.Join(sorted, ",") != "alpha,mid,zeta" {
		t.Errorf("SortedNames = %v", sorted)
	}
}

func TestMonomialStringRendering(t *testing.T) {
	vb := NewVocab()
	a, b := vb.Var("a"), vb.Var("b")
	m := NewMonomialPows(2.5, VarPow{a, 1}, VarPow{b, 3})
	if got := m.String(vb); got != "2.5·a·b^3" {
		t.Errorf("String = %q", got)
	}
	c := NewMonomial(7)
	if got := c.String(vb); got != "7" {
		t.Errorf("constant String = %q", got)
	}
}

func TestPolynomialCloneIsDeep(t *testing.T) {
	vb := NewVocab()
	a := vb.Var("a")
	p := FromMonomials(NewMonomial(1, a))
	q := p.Clone()
	q.AddTerm(5, a)
	if p.Coeff(a) != 1 {
		t.Errorf("Clone is shallow: original coeff %v", p.Coeff(a))
	}
	if q.Coeff(a) != 6 {
		t.Errorf("clone coeff %v", q.Coeff(a))
	}
}

func TestSetCloneIsDeep(t *testing.T) {
	vb := NewVocab()
	s := NewSet(vb)
	s.Add("x", MustParse(vb, "2·a"))
	c := s.Clone()
	c.Add("y", MustParse(vb, "b"))
	if s.Size() != 1 || s.Len() != 1 || c.Len() != 2 {
		t.Errorf("Set clone is shallow: size %d, %d and %d polynomials", s.Size(), s.Len(), c.Len())
	}
}

func TestCoeffOfMissingMonomial(t *testing.T) {
	vb := NewVocab()
	a, b := vb.Var("a"), vb.Var("b")
	p := FromMonomials(NewMonomial(2, a))
	if got := p.Coeff(b); got != 0 {
		t.Errorf("Coeff of absent monomial = %v", got)
	}
	if got := p.Coeff(); got != 0 {
		t.Errorf("Coeff of absent constant = %v", got)
	}
}

func TestEmptyPolynomialBehaviour(t *testing.T) {
	p := NewPolynomial()
	if p.Size() != 0 || p.Granularity() != 0 {
		t.Error("empty polynomial has nonzero measures")
	}
	vb := NewVocab()
	if got := p.String(vb); got != "0" {
		t.Errorf("empty String = %q", got)
	}
	if got := p.Eval(nil); got != 0 {
		t.Errorf("empty Eval = %v", got)
	}
	var zero *Polynomial
	if zero.Size() != 0 {
		t.Error("nil polynomial Size != 0")
	}
}

func TestSubstituteIdentityIsNoop(t *testing.T) {
	vb := NewVocab()
	p := MustParse(vb, "2·a·b + 3·c")
	q := p.Substitute(nil)
	if !p.Equal(q) {
		t.Error("nil substitution changed the polynomial")
	}
	a, _ := vb.Lookup("a")
	q2 := p.Substitute(map[Var]Var{a: a})
	if !p.Equal(q2) {
		t.Error("identity substitution changed the polynomial")
	}
}

func TestScaleZeroGivesZeroPolynomial(t *testing.T) {
	vb := NewVocab()
	p := MustParse(vb, "2·a + 3")
	if got := p.Scale(0).Size(); got != 0 {
		t.Errorf("Scale(0) size = %d, want 0 (terms cancel)", got)
	}
}

func TestEvalWithExplicitZero(t *testing.T) {
	vb := NewVocab()
	a, b := vb.Var("a"), vb.Var("b")
	p := FromMonomials(NewMonomial(5, a), NewMonomial(7, b))
	// Assigning 0 kills a's monomial (tuple-deletion reading).
	if got := p.Eval(map[Var]float64{a: 0}); math.Abs(got-7) > 1e-12 {
		t.Errorf("Eval with a=0: %v, want 7", got)
	}
}

func TestFormatSet(t *testing.T) {
	vb := NewVocab()
	s := NewSet(vb)
	s.Add("first", MustParse(vb, "2·a"))
	s.Add("", MustParse(vb, "3"))
	out := FormatSet(s)
	if !strings.Contains(out, "first: 2·a") {
		t.Errorf("FormatSet = %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Errorf("FormatSet lines = %d", len(lines))
	}
}

func TestParseExponentInCoefficientPosition(t *testing.T) {
	vb := NewVocab()
	p := MustParse(vb, "2·a^2·b")
	a, _ := vb.Lookup("a")
	b, _ := vb.Lookup("b")
	if got := p.Coeff(a, a, b); got != 2 {
		t.Errorf("coeff of a^2·b = %v", got)
	}
}

func TestLargeExponentEval(t *testing.T) {
	vb := NewVocab()
	a := vb.Var("a")
	p := FromMonomials(NewMonomialPows(1, VarPow{a, 10}))
	if got := p.Eval(map[Var]float64{a: 2}); got != 1024 {
		t.Errorf("a^10 at a=2 = %v", got)
	}
}
