package provenance

import (
	"bytes"
	"encoding/binary"
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

// setDiff describes the first term where two sets differ, comparing
// coefficients by Float64bits; "" when they are identical.
func setDiff(a, b *Set) string {
	if a.Len() != b.Len() || strings.Join(a.Tags, "\x00") != strings.Join(b.Tags, "\x00") || len(a.Tags) != len(b.Tags) {
		return fmt.Sprintf("%d vs %d polynomials or different tags", a.Len(), b.Len())
	}
	for i := range a.Polys {
		if a.Polys[i].Size() != b.Polys[i].Size() {
			return fmt.Sprintf("polynomial %d: %d vs %d terms", i, a.Polys[i].Size(), b.Polys[i].Size())
		}
		for k, c := range a.Polys[i].terms {
			if w, ok := b.Polys[i].terms[k]; !ok || math.Float64bits(w) != math.Float64bits(c) {
				return fmt.Sprintf("polynomial %d: term %x: %v vs %v (present %v)", i, k, c, w, ok)
			}
		}
	}
	return ""
}

// TestSetBuilderMatchesAddMonomial feeds random sorted terms — repeated
// keys, sums that cancel to exactly zero, ±1e16 sums that cancel in one
// order only, empty polynomials, constant terms — to a SetBuilder and
// checks the set against AddMonomial's merges of the same terms in the
// same order, its seeded kernel against a fresh Compile of its maps, and
// its VarCount against Granularity. In a quarter of the seeds one term is
// made one Term must not take into the kernel (a zero or NaN coefficient,
// or a key below the one before it): the maps must still match, and the
// set must arrive without a kernel or memo.
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
		ordered := true
		if pi := len(polys) - 1; seed%4 == 3 && pi >= 0 && len(polys[pi]) > 0 {
			ts := polys[pi]
			i := rng.Intn(len(ts))
			switch rng.Intn(3) {
			case 0:
				ts[i].coeff = 0
				ordered = false
			case 1:
				ts[i].coeff = math.NaN()
				ordered = false
			default:
				if j := slices.IndexFunc(ts, func(tm term) bool { return tm.key > ts[0].key }); j > 0 {
					ts[0], ts[j] = ts[j], ts[0]
					ordered = false
				}
			}
		}
		want := NewSet(vb)
		b := NewSetBuilder(vb, len(polys), 0, 0) // too small: the arrays must grow
		tags := make([]string, len(polys))
		for pi, ts := range polys {
			p := NewPolynomial()
			b.Poly(len(ts))
			for _, tm := range ts {
				p.AddMonomial(Monomial{Coeff: tm.coeff, vars: parseKey(tm.key)})
				b.Term([]byte(tm.key), tm.coeff, parseKey(tm.key))
			}
			tags[pi] = fmt.Sprintf("P%d", pi)
			want.Add(tags[pi], p)
		}
		got := b.Set(tags)
		if diff := setDiff(got, want); diff != "" {
			t.Fatalf("seed %d: builder vs AddMonomial: %s", seed, diff)
		}
		if !ordered {
			if got.compiled != nil || got.varMarks != nil {
				t.Fatalf("seed %d: a set with a term off the ordered path arrived with a kernel or memo", seed)
			}
			continue
		}
		if got.compiled == nil {
			t.Fatalf("seed %d: the built set arrived without a kernel", seed)
		}
		if diff := kernelDiff(got.compiled, got.Compile()); diff != "" {
			t.Fatalf("seed %d: seeded kernel vs Compile: %s", seed, diff)
		}
		if g, w := got.VarCount(), want.Granularity(); g != w {
			t.Fatalf("seed %d: VarCount %d, Granularity %d", seed, g, w)
		}
	}
}

// canonicalInput reports whether every term of the encoded set takes
// DecodeBytes's ascending path: strictly ascending pairs, a non-zero,
// non-NaN coefficient, and a key not below the one before it in its
// polynomial (an equal one merges into it). It checks nothing else; call
// it on inputs that decode.
func canonicalInput(data []byte) bool {
	d := decoder{data: data, off: len(codecMagic) + 1}
	nvars, _ := d.uvarint()
	for i := uint64(0); i < nvars; i++ {
		d.bytes()
	}
	npolys, _ := d.uvarint()
	for i := uint64(0); i < npolys; i++ {
		d.bytes()
		nterms, _ := d.uvarint()
		var prev []byte
		for t := uint64(0); t < nterms; t++ {
			coeff := math.Float64frombits(binary.LittleEndian.Uint64(data[d.off:]))
			d.off += 8
			nvp, _ := d.uvarint()
			var key []byte
			last := int64(0)
			for j := uint64(0); j < nvp; j++ {
				v, _ := d.varint()
				pw, _ := d.uvarint()
				if v <= last {
					return false
				}
				last = v
				key = AppendKey(key, []VarPow{{Var: Var(v), Pow: int32(pw)}})
			}
			if coeff == 0 || math.IsNaN(coeff) || (t > 0 && bytes.Compare(key, prev) < 0) {
				return false
			}
			prev = key
		}
	}
	return true
}

// TestDecodeSeedsKernel: a set Encode wrote decodes with its kernel and
// VarCount memo in place, equal to a fresh compile of its maps; a set with
// a term Encode never writes decodes without either, to build lazily.
func TestDecodeSeedsKernel(t *testing.T) {
	s := randomSet(t, 7, 30, 20, true)
	data := encodeSet(t, s)
	got, err := DecodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.compiled == nil || got.varMarks == nil || got.compiled.Vocab != got.Vocab {
		t.Fatal("a set Encode wrote decoded without its kernel or memo, or with a kernel over another vocabulary")
	}
	if diff := kernelDiff(got.compiled, got.Compile()); diff != "" {
		t.Fatalf("seeded kernel vs Compile: %s", diff)
	}
	if diff := kernelDiff(got.compiled, s.Compile()); diff != "" {
		t.Fatalf("seeded kernel vs the source's: %s", diff)
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
	if got.compiled != nil || got.varMarks != nil {
		t.Fatal("a set with descending pairs decoded with a kernel or memo")
	}
	if got.VarCount() != 2 || got.Compiled().Size() != 2 {
		t.Fatalf("lazy VarCount %d and kernel size %d, want 2 and 2", got.VarCount(), got.Compiled().Size())
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
			t.Errorf("%s: RestoreSet accepted the dump, rebuilding %s", tc.name, s.Polys[0].String(vb))
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
			t.Errorf("%s: RestoreSet accepted the dump, rebuilding %s", tc.name, s.Polys[0].String(vb))
		} else if !strings.Contains(err.Error(), "ascending key order") {
			t.Errorf("%s: error %q does not say why", tc.name, err)
		}
	}
	ok := &CompiledDump{PolyOff: []int32{0, 2}, Coeffs: []float64{1, 2}, FactOff: []int32{0, 1, 2}, Vars: []Var{1, 1}, Pows: []int32{1, 2}, Tags: []string{""}}
	if _, err := RestoreSet(vb, ok); err != nil {
		t.Errorf("x + 2·x^2 in key order: %v", err)
	}
}
