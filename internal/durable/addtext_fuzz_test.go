package durable

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"provabs/internal/abstree"
	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/session"
)

// addTextNames are the variables FuzzAddText's polynomials draw from: the
// fixture's six, and two it lacks, which grow the vocabulary past the
// index.
var addTextNames = []string{"p1", "f1", "y1", "v", "m1", "m3", "n0", "n1"}

// addTextNumbers are the coefficient factors: zeros drop terms, and
// 1e300·1e300 overflows to infinities whose sums are NaN.
var addTextNumbers = []float64{1, 2, 0.5, 3.25, 1e300, 7, 0, 2.5}

// addTextCase decodes fuzz bytes into an add line and the polynomial the
// map path builds from the same terms: each term's coefficient is
// multiplied out as Parse multiplies it and added with AddMonomial.
func addTextCase(vb *provenance.Vocab, data []byte) (string, *provenance.Polynomial) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var sb strings.Builder
	p := provenance.NewPolynomial()
	for t := range 1 + next()%6 {
		coeff, sign := 1.0, 1.0
		switch {
		case t == 0 && next()%4 == 0:
			sb.WriteString("-")
			coeff = -1
		case t > 0 && next()%2 == 1:
			sb.WriteString(" - ")
			sign = -1
		case t > 0:
			sb.WriteString(" + ")
		}
		var pairs []provenance.VarPow
		for i := range 1 + next()%2 {
			if i > 0 {
				sb.WriteString("*")
			}
			n := addTextNumbers[next()%len(addTextNumbers)]
			sb.WriteString(strconv.FormatFloat(n, 'g', -1, 64))
			coeff *= n
		}
		for range next() % 4 {
			name, pow := addTextNames[next()%len(addTextNames)], 1+next()%3
			sb.WriteString([]string{"*", "·", " * "}[next()%3] + name)
			if pow > 1 {
				sb.WriteString("^" + strconv.Itoa(pow))
			}
			pairs = append(pairs, provenance.VarPow{Var: vb.Var(name), Pow: int32(pow)})
		}
		p.AddMonomial(provenance.NewMonomialPows(coeff*sign, pairs...))
	}
	return sb.String(), p
}

// addTextFixture is the session-test fixture with its inverted index and
// baseline built, compressed on the month tree or not.
func addTextFixture(t *testing.T, compress bool) *session.Engine {
	t.Helper()
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	set.Add("zip 10001", provenance.MustParse(vb,
		"220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3"))
	set.Add("zip 10002", provenance.MustParse(vb, "100·p1·m1 + 50·f1·m3 + 25·y1·m1"))
	e, err := session.Open(set, abstree.MustForest(abstree.MustParseTree("Year(q1(m1,m3))")))
	if err != nil {
		t.Fatal(err)
	}
	if compress {
		if _, err := e.Compress(7); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.WhatIf(hypo.NewScenario().Set("p1", 2)); err != nil {
		t.Fatal(err)
	}
	return e
}

// freshDump compiles members plus p from scratch, tagged as a session's
// set, and dumps it with a freshly built index and baseline.
func freshDump(vb *provenance.Vocab, tags []string, members []*provenance.Polynomial) *provenance.CompiledDump {
	s := provenance.NewSet(vb)
	for i, m := range members {
		s.Add(tags[i], m)
	}
	return provenance.DumpCompiled(s.Compile())
}

func membersOf(s *provenance.Set) []*provenance.Polynomial {
	out := make([]*provenance.Polynomial, s.Len())
	for i := range out {
		out[i] = s.Poly(i)
	}
	return out
}

// sameDump reports the first array two dumps disagree on, coefficients and
// baselines compared by their bits.
func sameDump(got, want *provenance.CompiledDump) string {
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	switch {
	case !slices.Equal(got.PolyOff, want.PolyOff) || !slices.Equal(got.FactOff, want.FactOff):
		return "offsets"
	case !slices.Equal(bits(got.Coeffs), bits(want.Coeffs)):
		return "coefficients"
	case !slices.Equal(got.Vars, want.Vars) || !slices.Equal(got.Pows, want.Pows):
		return "factors"
	case !slices.Equal(got.Tags, want.Tags):
		return "tags"
	case !slices.Equal(bits(got.Baseline), bits(want.Baseline)):
		return "baseline"
	case !slices.Equal(got.VarTermOff, want.VarTermOff) || !slices.Equal(got.VarPolyOff, want.VarPolyOff) ||
		!slices.Equal(got.VarPolyIDs, want.VarPolyIDs) || !slices.Equal(got.VarPolyTerms, want.VarPolyTerms):
		return "index"
	}
	return ""
}

// FuzzAddText checks an add line's array path (Engine.ParseKernel and
// AddText: a one-polynomial kernel, abstracted by the array image, sort
// and merge, appended with the index and baseline patched) against the map
// path it replaced (a map polynomial summed with AddMonomial, abstracted
// by Polynomial.Substitute, and compiled with the set from scratch): the
// source and active kernels, their index lists and baselines, and the WAL
// add record's bytes and replay.
func FuzzAddText(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 1, 2, 0, 1, 4, 0, 5, 0, 0, 0, 3, 0, 1, 1})
	f.Add([]byte{5, 0, 1, 4, 4, 1, 0, 0, 1, 4, 4, 1, 0, 1, 1, 4, 4, 2, 4, 1, 0})
	f.Add([]byte{4, 1, 2, 6, 2, 4, 2, 1, 1, 0, 2, 7, 0, 0, 1, 0, 3, 2, 5, 2, 2, 0, 1, 6, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, compress := range []bool{false, true} {
			e := addTextFixture(t, compress)
			vb := e.Source().Vocab
			src, want := addTextCase(vb, data)
			sources, actives := membersOf(e.Source()), membersOf(e.Active())
			tags := append(slices.Clone(e.Source().Tags), "new")

			k, err := e.ParseKernel(src)
			if err != nil {
				t.Fatalf("ParseKernel(%q): %v", src, err)
			}
			if got, want := appendAddRecord(nil, 1, "new", k), appendAddRecord(nil, 1, "new", want.Compile()); !slices.Equal(got, want) {
				t.Fatalf("%q: WAL record %x, the map path's %x", src, got, want)
			}
			rec, err := decodeRecord(appendAddRecord(nil, 1, "new", k))
			if err != nil {
				t.Fatal(err)
			}
			var pb provenance.PolyBuilder
			replayed, err := buildKernel(&pb, rec.terms, vb)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := provenance.DumpCompiled(replayed), provenance.DumpCompiled(k); sameDump(got, want) != "" {
				t.Fatalf("%q: replayed record's %s differ from the parsed kernel's", src, sameDump(got, want))
			}

			if err := e.AddText("new", src); err != nil {
				t.Fatalf("AddText(%q): %v", src, err)
			}
			if d := sameDump(provenance.DumpCompiled(e.Source().Compiled()), freshDump(vb, tags, append(sources, want))); d != "" {
				t.Fatalf("%q (compressed %v): source kernel's %s differ from the map path's", src, compress, d)
			}
			image := want
			if comp := e.Compression(); comp != nil {
				image = want.Substitute(comp.Subst)
			}
			if d := sameDump(provenance.DumpCompiled(e.Active().Compiled()), freshDump(vb, tags, append(actives, image))); d != "" {
				t.Fatalf("%q (compressed %v): active kernel's %s differ from the map path's", src, compress, d)
			}
		}
	})
}
