package provenance

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestParseLinear: Parse reads its input once. Its lexer used to convert
// the whole rest of the input to runes on every peek, so a 110 KB
// polynomial took 13.7 s (a 2-vCPU AMD EPYC VM, Go 1.24.0) and a 1 MiB add
// line, the server's and the gateway's line limit, would hold the
// session's exclusive lock for about 20 minutes. A 64 KB polynomial must
// parse within a bound a quadratic lexer misses by far and a linear one
// meets under the race detector on a slow machine.
func TestParseLinear(t *testing.T) {
	var sb strings.Builder
	n := 0
	for ; sb.Len() < 64<<10; n++ {
		if n > 0 {
			sb.WriteString(" + ")
		}
		sb.WriteString(strconv.Itoa(1+n%97) + ".5·pl" + strconv.Itoa(n%128) + "·m" + strconv.Itoa(1+n%12) + "·c" + strconv.Itoa(n))
	}
	start := time.Now()
	p, err := Parse(NewVocab(), sb.String())
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("parsing %d bytes took %v, want at most 1s", sb.Len(), elapsed)
	}
	if err != nil || p.Size() != n {
		t.Fatalf("Parse: %d terms, %v; want %d terms", p.Size(), err, n)
	}
}

// TestParseKernelMatchesParse: ParseKernel lays out the terms a map
// polynomial holds when each monomial of the text is added with AddTerm in
// the order it appears — repeated monomials merged, zero sums dropped,
// factors in canonical form — as Polynomial.Compile lays them out, and so
// does Parse's polynomial.
func TestParseKernelMatchesParse(t *testing.T) {
	vb := NewVocab()
	v := vb.Var
	big := 1e300
	inf := big * big
	for _, tc := range []struct {
		src   string
		terms func(p *Polynomial)
	}{
		{"", func(p *Polynomial) {}},
		{"3", func(p *Polynomial) { p.AddTerm(3) }},
		{"2·x·y + 3*y*x - 5·x^2·y + x·x·y", func(p *Polynomial) {
			p.AddTerm(2, v("x"), v("y"))
			p.AddTerm(3, v("y"), v("x"))
			p.AddTerm(-5, v("x"), v("x"), v("y"))
			p.AddTerm(1, v("x"), v("x"), v("y"))
		}},
		{"x - x + y", func(p *Polynomial) { p.AddTerm(1, v("x")); p.AddTerm(-1, v("x")); p.AddTerm(1, v("y")) }},
		{"1e300*1e300*x - 1e300*1e300*x + z", func(p *Polynomial) {
			p.AddTerm(inf, v("x"))
			p.AddTerm(-inf, v("x"))
			p.AddTerm(1, v("z"))
		}},
		{"-x + -2*y - -3*x", func(p *Polynomial) { p.AddTerm(-1, v("x")); p.AddTerm(-2, v("y")); p.AddTerm(3, v("x")) }},
		{"b·a + a·b + c + 0*d", func(p *Polynomial) {
			p.AddTerm(1, v("b"), v("a"))
			p.AddTerm(1, v("a"), v("b"))
			p.AddTerm(1, v("c"))
			p.AddTerm(0, v("d"))
		}},
		{"q^3*p + p*q*q*q", func(p *Polynomial) {
			p.AddTerm(1, v("q"), v("q"), v("q"), v("p"))
			p.AddTerm(1, v("p"), v("q"), v("q"), v("q"))
		}},
	} {
		want := NewPolynomial()
		tc.terms(want)
		k, err := ParseKernel(vb, tc.src)
		if err != nil {
			t.Fatalf("ParseKernel(%q): %v", tc.src, err)
		}
		if d := sameArrays(DumpCompiled(k), DumpCompiled(want.Compile())); d != "" {
			t.Errorf("%q: kernel's %s differ from the map polynomial's", tc.src, d)
		}
		if d := sameArrays(DumpCompiled(MustParse(vb, tc.src).Compile()), DumpCompiled(want.Compile())); d != "" {
			t.Errorf("%q: Parse's %s differ from the map polynomial's", tc.src, d)
		}
	}
	if _, err := ParseKernel(vb, "2·x +"); err == nil {
		t.Error(`ParseKernel("2·x +") parsed`)
	}
}

// sameArrays names the first term array two dumps disagree on, comparing
// coefficients by their bits.
func sameArrays(got, want *CompiledDump) string {
	if len(got.Coeffs) != len(want.Coeffs) {
		return "coefficients"
	}
	for i := range got.Coeffs {
		if got.Coeffs[i] != want.Coeffs[i] && (got.Coeffs[i] == got.Coeffs[i] || want.Coeffs[i] == want.Coeffs[i]) {
			return "coefficients"
		}
	}
	for name, pair := range map[string][2][]int32{"PolyOff": {got.PolyOff, want.PolyOff}, "FactOff": {got.FactOff, want.FactOff}, "Pows": {got.Pows, want.Pows}} {
		if !equalInt32(pair[0], pair[1]) {
			return name
		}
	}
	if len(got.Vars) != len(want.Vars) {
		return "Vars"
	}
	for i := range got.Vars {
		if got.Vars[i] != want.Vars[i] {
			return "Vars"
		}
	}
	return ""
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
