package provenance

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// kernelDiff describes the first difference between two float kernels'
// term arrays, tags, largest variable and exponent flag, comparing
// coefficients by Float64bits; "" when they are identical.
func kernelDiff(got, want *Compiled) string {
	g, w := DumpCompiled(got), DumpCompiled(want)
	switch {
	case !slices.Equal(g.PolyOff, w.PolyOff):
		return fmt.Sprintf("PolyOff %v, want %v", g.PolyOff, w.PolyOff)
	case !slices.Equal(g.FactOff, w.FactOff):
		return fmt.Sprintf("FactOff %v, want %v", g.FactOff, w.FactOff)
	case !slices.Equal(g.Vars, w.Vars):
		return fmt.Sprintf("Vars %v, want %v", g.Vars, w.Vars)
	case !slices.Equal(g.Pows, w.Pows):
		return fmt.Sprintf("Pows %v, want %v", g.Pows, w.Pows)
	case !slices.Equal(g.Tags, w.Tags):
		return fmt.Sprintf("Tags %q, want %q", g.Tags, w.Tags)
	case got.maxVar != want.maxVar || got.allPow1 != want.allPow1:
		return fmt.Sprintf("maxVar %d allPow1 %v, want %d %v", got.maxVar, got.allPow1, want.maxVar, want.allPow1)
	}
	for i := range w.Coeffs {
		if math.Float64bits(g.Coeffs[i]) != math.Float64bits(w.Coeffs[i]) {
			return fmt.Sprintf("coefficient %d is %x, want %x", i, math.Float64bits(g.Coeffs[i]), math.Float64bits(w.Coeffs[i]))
		}
	}
	return ""
}

// polysDiff describes the first term where the set's polynomials differ
// from want's maps, comparing coefficients by Float64bits; "" when they
// are identical.
func polysDiff(s *Set, want []*Polynomial) string {
	if s.Len() != len(want) {
		return fmt.Sprintf("%d vs %d polynomials", s.Len(), len(want))
	}
	for i, w := range want {
		got := s.Poly(i)
		if got.Size() != w.Size() {
			return fmt.Sprintf("polynomial %d: %d vs %d terms", i, got.Size(), w.Size())
		}
		for k, c := range got.terms {
			if x, ok := w.terms[k]; !ok || math.Float64bits(x) != math.Float64bits(c) {
				return fmt.Sprintf("polynomial %d: term %x: %v vs %v (present %v)", i, k, c, x, ok)
			}
		}
	}
	return ""
}

// granularityOf is |P|_V of map polynomials, counted from their keys.
func granularityOf(ps []*Polynomial) int {
	seen := map[Var]bool{}
	for _, p := range ps {
		for _, v := range p.Vars() {
			seen[v] = true
		}
	}
	return len(seen)
}

// TestSetBuilderMatchesAddMonomial feeds random sorted terms — repeated
// keys, sums that cancel to exactly zero, ±1e16 sums that cancel in one
// order only, empty polynomials, constant terms — to a SetBuilder and
// checks the set against AddMonomial's merges of the same terms in the
// same order, its kernel against the one Set.Add flattens those maps into,
// and its VarCount against the maps' variables. In a quarter of the seeds
// one term is a zero or NaN coefficient, or a key below the one before
// it, which the builder must merge the same way.
func TestSetBuilderMatchesAddMonomial(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vb := NewVocab()
		vars := vb.Vars("a", "b", "c", "d", "e")
		coeffs := []float64{1, -1, 2, -2, 0.5, 3}
		if rng.Intn(3) == 0 {
			coeffs = []float64{1, 1e16, -1e16}
		}
		type term struct {
			key   MonomialKey
			coeff float64
		}
		var polys [][]term
		for pi, n := 0, rng.Intn(5); pi < n; pi++ {
			var ts []term
			for i, n := 0, rng.Intn(12); i < n; i++ {
				var vs []Var
				for _, v := range vars {
					if rng.Intn(3) == 0 {
						vs = append(vs, v)
					}
				}
				m := NewMonomial(coeffs[rng.Intn(len(coeffs))], vs...)
				ts = append(ts, term{m.Key(), m.Coeff})
			}
			slices.SortStableFunc(ts, func(a, b term) int { return strings.Compare(string(a.key), string(b.key)) })
			polys = append(polys, ts)
		}
		if pi := len(polys) - 1; seed%4 == 3 && pi >= 0 && len(polys[pi]) > 0 {
			ts := polys[pi]
			i := rng.Intn(len(ts))
			switch rng.Intn(3) {
			case 0:
				ts[i].coeff = 0
			case 1:
				ts[i].coeff = math.NaN()
			default:
				if j := slices.IndexFunc(ts, func(tm term) bool { return tm.key > ts[0].key }); j > 0 {
					ts[0], ts[j] = ts[j], ts[0]
				}
			}
		}
		want := make([]*Polynomial, len(polys))
		flat := NewSet(vb)
		b := NewSetBuilder(vb, len(polys), 0, 0) // too small: the arrays must grow
		tags := make([]string, len(polys))
		for pi, ts := range polys {
			p := NewPolynomial()
			b.Poly()
			for _, tm := range ts {
				p.AddMonomial(Monomial{Coeff: tm.coeff, vars: parseKey(tm.key)})
				b.Term([]byte(tm.key), tm.coeff, parseKey(tm.key))
			}
			tags[pi] = fmt.Sprintf("P%d", pi)
			want[pi] = p
			flat.Add(tags[pi], p)
		}
		got := b.Set(tags)
		if diff := polysDiff(got, want); diff != "" {
			t.Fatalf("seed %d: builder vs AddMonomial: %s", seed, diff)
		}
		if diff := kernelDiff(got.Compiled(), flat.Compiled()); diff != "" {
			t.Fatalf("seed %d: built kernel vs the maps flattened: %s", seed, diff)
		}
		if g, w := got.VarCount(), granularityOf(want); g != w {
			t.Fatalf("seed %d: VarCount %d, the maps' variables %d", seed, g, w)
		}
	}
}

// TestDecodeSeedsKernel: a set Encode wrote decodes into the kernel it was
// encoded from, and one with a term Encode never writes (descending pairs)
// into the kernel its map form flattens into.
func TestDecodeSeedsKernel(t *testing.T) {
	s := randomSet(t, 7, 30, 20, true)
	data := encodeSet(t, s)
	got, err := DecodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Compiled().Vocab != got.Vocab {
		t.Fatal("a decoded set's kernel is over another vocabulary")
	}
	if diff := kernelDiff(got.Compiled(), s.Compiled()); diff != "" {
		t.Fatalf("decoded kernel vs the source's: %s", diff)
	}
	if got.VarCount() != s.VarCount() {
		t.Fatalf("VarCount %d, source's %d", got.VarCount(), s.VarCount())
	}
	slow := rawSet([]string{"a", "b"}, func(b []byte) []byte {
		b = append(b, 1, 0, 2)
		b = term(b, 1, VarPow{1, 1})
		return term(b, 2, VarPow{2, 1}, VarPow{1, 1}) // descending pairs
	})
	got, err = DecodeBytes(slow)
	if err != nil {
		t.Fatal(err)
	}
	vb := NewVocab()
	want := NewSet(vb)
	want.Add("", MustParse(vb, "a + 2*a*b"))
	if diff := kernelDiff(got.Compiled(), want.Compiled()); diff != "" {
		t.Fatalf("descending pairs: %s", diff)
	}
	if got.VarCount() != 2 {
		t.Fatalf("VarCount %d, want 2", got.VarCount())
	}
}

// TestRestoreSetRejectsRepeatedVariable: a dump term that lists one
// variable twice is refused. RestoreSet used to rebuild x^(2^31−1) ·
// x^(2^31−1) through NewMonomialPows, whose int32 sum wraps to x^−2, while
// the kernel kept both factors; a descending pair is refused too.
func TestRestoreSetRejectsRepeatedVariable(t *testing.T) {
	vb := NewVocab()
	vb.Vars("x", "y")
	for _, tc := range []struct {
		name string
		vars []Var
		pows []int32
	}{
		{"repeated", []Var{1, 1}, []int32{math.MaxInt32, math.MaxInt32}},
		{"repeated, small exponents", []Var{2, 2}, []int32{1, 1}},
		{"descending", []Var{2, 1}, []int32{1, 1}},
	} {
		d := &CompiledDump{
			PolyOff: []int32{0, 1},
			Coeffs:  []float64{1},
			FactOff: []int32{0, 2},
			Vars:    tc.vars,
			Pows:    tc.pows,
			Tags:    []string{""},
		}
		if s, err := RestoreSet(vb, d); err == nil {
			t.Errorf("%s: RestoreSet accepted the dump, restoring %s", tc.name, s.Poly(0).String(vb))
		} else if !strings.Contains(err.Error(), "strictly ascending") {
			t.Errorf("%s: error %q does not say why", tc.name, err)
		}
	}
}

// TestRestoreSetRejectsUnorderedTerms: a dump polynomial whose terms are
// out of key order, or repeat a key, is refused. RestoreSet used to accept
// 2·x^2 + x, whose kernel the compatibility check and compression then
// read out of the order they rely on.
func TestRestoreSetRejectsUnorderedTerms(t *testing.T) {
	vb := NewVocab()
	vb.Vars("x", "y")
	for _, tc := range []struct {
		name   string
		coeffs []float64
		vars   []Var
		pows   []int32
	}{
		{"descending keys", []float64{2, 1}, []Var{1, 1}, []int32{2, 1}},
		{"descending keys, other variables", []float64{1, 1}, []Var{2, 1}, []int32{1, 1}},
		{"repeated key", []float64{1, 1}, []Var{1, 1}, []int32{1, 1}},
	} {
		d := &CompiledDump{
			PolyOff: []int32{0, 2},
			Coeffs:  tc.coeffs,
			FactOff: []int32{0, 1, 2},
			Vars:    tc.vars,
			Pows:    tc.pows,
			Tags:    []string{""},
		}
		if s, err := RestoreSet(vb, d); err == nil {
			t.Errorf("%s: RestoreSet accepted the dump, restoring %s", tc.name, s.Poly(0).String(vb))
		} else if !strings.Contains(err.Error(), "ascending key order") {
			t.Errorf("%s: error %q does not say why", tc.name, err)
		}
	}
	ok := &CompiledDump{PolyOff: []int32{0, 2}, Coeffs: []float64{1, 2}, FactOff: []int32{0, 1, 2}, Vars: []Var{1, 1}, Pows: []int32{1, 2}, Tags: []string{""}}
	if _, err := RestoreSet(vb, ok); err != nil {
		t.Errorf("x + 2·x^2 in key order: %v", err)
	}
}
