package provenance

import (
	"math/rand"
	"slices"
	"testing"
)

// randomAppendPoly builds one pseudo-random polynomial over vars (possibly empty,
// possibly with exponents > 1), mirroring randomDeltaSet's term shape.
func randomAppendPoly(rng *rand.Rand, vars []Var, maxTerms int, withPows bool) *Polynomial {
	p := NewPolynomial()
	for t := rng.Intn(maxTerms + 1); t > 0; t-- {
		var vs []Var
		for n := 1 + rng.Intn(4); n > 0; n-- {
			v := vars[rng.Intn(len(vars))]
			vs = append(vs, v)
			if withPows && rng.Intn(3) == 0 {
				vs = append(vs, v) // repeat accumulates into the exponent
			}
		}
		p.AddTerm(0.25+rng.Float64(), vs...)
	}
	return p
}

// compilePolys compiles polys into one float kernel, for Append.
func compilePolys(polys []*Polynomial) *Compiled {
	c, _ := CompilePolys[float64, Float](Float{}, polys) // Float.FromCoeff never fails
	return c
}

// TestAppendEquivalence is the incremental-compile acceptance test: across
// seeds, exponents, empty polynomials and index/baseline warm-up states,
// evaluating an appended Compiled must be bit-identical per polynomial to a
// fresh Compile of the whole set — on the full path and on the delta path
// (whose inverted index and baseline are patched, not rebuilt).
func TestAppendEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		withPows := seed%2 == 0
		nVars := 3 + rng.Intn(16)
		s := randomDeltaSet(t, rng, nVars, 1+rng.Intn(10), 6, withPows)
		vars := s.Vocab.All()

		c := s.Compile()
		// Warm seeds append onto a built index and baseline (the patch
		// path); their new polynomials must stay inside the compiled
		// vocabulary, so restrict to variables at or below MaxVar.
		warm := seed%3 != 0
		if warm {
			var usable []Var
			for _, v := range vars {
				if v <= c.MaxVar() {
					usable = append(usable, v)
				}
			}
			if len(usable) == 0 {
				warm = false
			} else {
				vars = usable
				c.NewDeltaEval()
				c.Baseline()
			}
		}

		// Append in a few chunks, including an empty polynomial.
		var extra []*Polynomial
		var tags []string
		for i := 0; i < 3+rng.Intn(4); i++ {
			p := randomAppendPoly(rng, vars, 6, withPows)
			if i == 1 {
				p = NewPolynomial()
			}
			extra = append(extra, p)
			tags = append(tags, "x"+itoa(i))
			s.Add(tags[i], p)
		}
		for lo := 0; lo < len(extra); {
			hi := lo + 1 + rng.Intn(len(extra)-lo)
			if !c.Append(compilePolys(extra[lo:hi]), tags[lo:hi]) {
				t.Fatalf("seed %d: Append declined within the compiled vocabulary", seed)
			}
			lo = hi
		}

		fresh := s.Compile()
		if c.Len() != fresh.Len() || c.Size() != fresh.Size() {
			t.Fatalf("seed %d: appended len/size %d/%d != fresh %d/%d",
				seed, c.Len(), c.Size(), fresh.Len(), fresh.Size())
		}

		all := s.Vars()
		if len(all) == 0 {
			continue // degenerate seed: every polynomial came up empty
		}
		delta := c.NewDeltaEval()
		counts := []int{0, 1, 1 + rng.Intn(len(all)), len(all)}
		for _, k := range counts {
			touched, val := touchedScenario(rng, fresh, all, k)
			want := fresh.Eval(val, nil)
			got := c.Eval(val, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d k=%d poly %d: appended Eval %v != fresh %v (bit-identity)",
						seed, k, i, got[i], want[i])
				}
			}
			dgot := delta.Eval(touched, val, nil)
			for i := range want {
				if dgot[i] != want[i] {
					t.Fatalf("seed %d k=%d poly %d: appended EvalDelta %v != fresh Eval %v (patched index)",
						seed, k, i, dgot[i], want[i])
				}
			}
		}
	}
}

// TestAppendVocabGrowth: once the inverted index and baseline are built,
// appending polynomials with variables beyond the indexed vocabulary
// patches both — the index grows rows for the new variables — into
// exactly what a fresh compile builds, and delta answers on the new
// variables match a full evaluation.
func TestAppendVocabGrowth(t *testing.T) {
	vb := NewVocab()
	s := NewSet(vb)
	s.Add("a", MustParse(vb, "2·x·y + 3·y"))
	c := s.Compile()
	c.NewDeltaEval()
	c.Baseline()
	grown := []*Polynomial{MustParse(vb, "5·brandnew"), MustParse(vb, "x·later^2 + 1"), NewPolynomial()}
	if !c.Append(compilePolys(grown), []string{"b", "c", "d"}) {
		t.Fatal("Append declined variables beyond the indexed vocabulary")
	}
	for i, p := range grown {
		s.Add([]string{"b", "c", "d"}[i], p)
	}
	if c.Len() != 4 || c.ValuationLen() != int(vb.Var("later"))+1 {
		t.Fatalf("appended compiled len %d, valuation %d", c.Len(), c.ValuationLen())
	}
	got, want := DumpCompiled(c), DumpCompiled(s.Compile())
	for name, pair := range map[string][2][]int32{
		"VarTermOff":   {got.VarTermOff, want.VarTermOff},
		"VarPolyOff":   {got.VarPolyOff, want.VarPolyOff},
		"VarPolyIDs":   {got.VarPolyIDs, want.VarPolyIDs},
		"VarPolyTerms": {got.VarPolyTerms, want.VarPolyTerms},
	} {
		if !slices.Equal(pair[0], pair[1]) {
			t.Errorf("patched %s %v, fresh build %v", name, pair[0], pair[1])
		}
	}
	if !slices.Equal(got.Baseline, want.Baseline) {
		t.Errorf("patched baseline %v, fresh %v", got.Baseline, want.Baseline)
	}
	val := c.NewValuation()
	val[vb.Var("brandnew")], val[vb.Var("later")] = 3, 2
	touched := []Var{vb.Var("brandnew"), vb.Var("later")}
	if d, full := c.EvalDelta(touched, val, nil), c.Eval(val, nil); !slices.Equal(d, full) || full[1] != 15 || full[2] != 5 {
		t.Fatalf("delta answers %v, full %v, want [.. 15 5 0]", d, full)
	}
}

// TestDropIndex: DropIndex discards a kernel's inverted index and
// baseline, so Append patches neither; the next delta evaluation builds
// both afresh, equal to a fresh compile's.
func TestDropIndex(t *testing.T) {
	vb := NewVocab()
	s := NewSet(vb)
	s.Add("a", MustParse(vb, "2·x·y + 3·y"))
	c := s.Compiled()
	c.NewDeltaEval()
	c.Baseline()
	c.DropIndex()
	s.Add("b", MustParse(vb, "5·z + x^2"))
	if c.varTerms != nil || c.baseline != nil {
		t.Fatal("Append patched an index or baseline DropIndex discarded")
	}
	val := c.NewValuation()
	val[vb.Var("z")] = 2
	if got, want := c.EvalDelta([]Var{vb.Var("z")}, val, nil), c.Eval(val, nil); !slices.Equal(got, want) {
		t.Fatalf("delta answers %v after DropIndex, full %v", got, want)
	}
	got, want := DumpCompiled(c), DumpCompiled(s.Compile())
	if !slices.Equal(got.VarPolyIDs, want.VarPolyIDs) || !slices.Equal(got.VarTermOff, want.VarTermOff) || !slices.Equal(got.Baseline, want.Baseline) {
		t.Fatalf("rebuilt index %v %v and baseline %v, a fresh compile's %v %v %v",
			got.VarTermOff, got.VarPolyIDs, got.Baseline, want.VarTermOff, want.VarPolyIDs, want.Baseline)
	}
}

// TestEvalFromEquivalence drives the chained-delta kernel across seeds:
// starting from a random valuation, walk a chain of random single- and
// multi-variable changes; every step's EvalFrom (seeded by the previous
// step's answers) must be bit-identical to a fresh full Eval of the new
// valuation.
func TestEvalFromEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		withPows := seed%2 == 1
		s := randomDeltaSet(t, rng, 3+rng.Intn(16), 1+rng.Intn(10), 6, withPows)
		c := s.Compile()
		all := s.Vars()
		if len(all) == 0 {
			continue // degenerate seed: every polynomial came up empty
		}
		delta := c.NewDeltaEval()

		val := c.NewValuation()
		prev := c.Eval(val, nil) // identity answers
		for step := 0; step < 20; step++ {
			k := 1 + rng.Intn(3)
			diff := make([]Var, 0, k)
			for i := 0; i < k; i++ {
				v := all[rng.Intn(len(all))]
				if int(v) >= len(val) {
					continue
				}
				diff = append(diff, v)
				if rng.Intn(4) == 0 {
					val[v] = 1 // back to identity: still a change from before
				} else {
					val[v] = 0.1 + 2*rng.Float64()
				}
			}
			got := delta.EvalFrom(diff, val, prev, nil)
			want := c.Eval(val, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d poly %d: EvalFrom %v != Eval %v (bit-identity)",
						seed, step, i, got[i], want[i])
				}
			}
			prev = got
		}
	}
}

// TestAppendTags checks Tags stay aligned through appends (answers carry
// the right labels after Add).
func TestAppendTags(t *testing.T) {
	vb := NewVocab()
	s := NewSet(vb)
	s.Add("first", MustParse(vb, "1·x"))
	c := s.Compiled()
	s.Add("second", MustParse(vb, "2·x"))
	s.Add("third", MustParse(vb, "3·x"))
	if got := s.Compiled(); got != c {
		t.Fatal("Add rebuilt instead of appending")
	}
	if len(c.Tags) != 3 || c.Tags[1] != "second" || c.Tags[2] != "third" {
		t.Fatalf("Tags after append = %v", c.Tags)
	}
}
