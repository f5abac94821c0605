package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/provenance"
	"provabs/internal/telco"
	"provabs/internal/treegen"
)

// randomCompressInstance builds a random compatible instance covering what
// the packed table must get right: one to three trees, a leaf of every tree
// that never occurs in P, exponents on tree and foreign variables, constant
// terms, and coefficients that cancel to exactly zero (±1, ±2) or only
// almost (0.1 + 0.2 − 0.3) when merged. Every third instance draws from
// {1, ±1e16} instead, whose merged sums cancel in some summation orders
// only (1 + 1e16 − 1e16 is 0, 1e16 − 1e16 + 1 is 1).
func randomCompressInstance(rng *rand.Rand) (*provenance.Set, *abstree.Forest) {
	vb := provenance.NewVocab()
	nTrees := 1 + rng.Intn(3)
	trees := make([]*abstree.Tree, nTrees)
	leaves := make([][]string, nTrees)
	for ti := range trees {
		leaves[ti] = make([]string, 2+rng.Intn(6))
		for i := range leaves[ti] {
			leaves[ti][i] = fmt.Sprintf("t%dl%d", ti, i)
		}
		trees[ti] = randomTree(rng, fmt.Sprintf("T%d", ti), leaves[ti])
	}
	foreign := []string{"o1", "o2", "o3"}
	coeffs := []float64{1, -1, 2, -2, 0.1, 0.2, -0.3, 0.7, -0.7, 3}
	if rng.Intn(3) == 0 {
		coeffs = []float64{1, 1e16, -1e16}
	}
	s := provenance.NewSet(vb)
	for pi, n := 0, 1+rng.Intn(4); pi < n; pi++ {
		p := provenance.NewPolynomial()
		for i, terms := 0, 2+rng.Intn(14); i < terms; i++ {
			var pows []provenance.VarPow
			for ti := range trees {
				if rng.Intn(3) > 0 {
					l := leaves[ti][rng.Intn(len(leaves[ti])-1)] // the last leaf stays out of P
					pows = append(pows, provenance.VarPow{Var: vb.Var(l), Pow: int32(1 + rng.Intn(2))})
				}
			}
			if rng.Intn(2) == 0 {
				pows = append(pows, provenance.VarPow{Var: vb.Var(foreign[rng.Intn(len(foreign))]), Pow: int32(1 + rng.Intn(2))})
			}
			p.AddMonomial(provenance.NewMonomialPows(coeffs[rng.Intn(len(coeffs))], pows...))
		}
		s.Add(fmt.Sprintf("P%d", pi), p)
	}
	return s, abstree.MustForest(trees...)
}

// randomTree builds a random tree over the leaves by recursive partition,
// naming internal nodes prefix.0, prefix.1, ….
func randomTree(rng *rand.Rand, prefix string, leaves []string) *abstree.Tree {
	id := 0
	var build func(names []string) abstree.Spec
	build = func(names []string) abstree.Spec {
		if len(names) == 1 {
			return abstree.Leaf(names[0])
		}
		spec := abstree.Spec{Label: fmt.Sprintf("%s.%d", prefix, id)}
		id++
		parts := 2 + rng.Intn(min(len(names), 3)-1)
		for len(names) > 0 {
			n := 1 + rng.Intn(len(names)-parts+1)
			if parts == 1 {
				n = len(names)
			}
			spec.Children = append(spec.Children, build(names[:n]))
			names, parts = names[n:], parts-1
		}
		return spec
	}
	return abstree.MustTree(build(leaves))
}

// checkCompressParity runs every packed strategy on (s, f) and the
// string-keyed oracles on (so, fo) — an independent copy of the same
// instance, so that the vocabularies, which selection grows with
// meta-variables, must stay equal too — and reports any difference.
func checkCompressParity(t *testing.T, name string, s *provenance.Set, f *abstree.Forest, so *provenance.Set, fo *abstree.Forest, B int) {
	t.Helper()
	same := func(what string, got, want *Result) {
		t.Helper()
		if g, w := strings.Join(got.VVS.Labels(), ","), strings.Join(want.VVS.Labels(), ","); g != w ||
			got.ML != want.ML || got.VL != want.VL || got.Adequate != want.Adequate {
			t.Fatalf("%s B=%d %s: packed {%s} ML=%d VL=%d adequate=%v, oracle {%s} ML=%d VL=%d adequate=%v",
				name, B, what, g, got.ML, got.VL, got.Adequate, w, want.ML, want.VL, want.Adequate)
		}
	}
	abstracted := func(what string, comp *Compression, res *Result, want *Result) {
		t.Helper()
		same(what+" compressor", &Result{VVS: comp.VVS, ML: comp.ML, VL: comp.VL, Adequate: comp.Adequate}, res)
		own := substitutePolys(s, comp.VVS.Subst(s.Vocab))
		if diff := kernelDiff(comp.Abstracted, s.Tags, own); diff != "" {
			t.Fatalf("%s B=%d %s: %s", name, B, what, diff)
		}
		if diff := bitDiff(comp.Abstracted, own); diff != "" {
			t.Fatalf("%s B=%d %s: Abstracted differs from the map Substitute: %s", name, B, what, diff)
		}
		if diff := bitDiff(comp.Abstracted, substitutePolys(so, want.VVS.Subst(so.Vocab))); diff != "" {
			t.Fatalf("%s B=%d %s: Abstracted differs from the oracle's: %s", name, B, what, diff)
		}
	}
	for _, tie := range []bool{true, false} {
		opts := GreedyOptions{TieBreakML: tie}
		got, err := GreedyVVSOpts(s, f, B, opts)
		if err != nil {
			t.Fatalf("%s B=%d: greedy: %v", name, B, err)
		}
		want, err := oracleGreedy(so, fo, B, opts)
		if err != nil {
			t.Fatalf("%s B=%d: oracle greedy: %v", name, B, err)
		}
		same(fmt.Sprintf("greedy tie-break-ML=%v", tie), got, want)
		if tie {
			comp, err := GreedyCompressor().Compress(s, f, B)
			if err != nil {
				t.Fatalf("%s B=%d: greedy compressor: %v", name, B, err)
			}
			abstracted("greedy", comp, got, want)
		}
	}
	got, err := OptimalVVS(s, f.Trees[0], B)
	if err != nil {
		t.Fatalf("%s B=%d: optimal: %v", name, B, err)
	}
	want, err := oracleOptimal(so, fo.Trees[0], B)
	if err != nil {
		t.Fatalf("%s B=%d: oracle optimal: %v", name, B, err)
	}
	same("optimal", got, want)
	comp, err := OptimalCompressor().Compress(s, abstree.MustForest(f.Trees[0]), B)
	if err != nil {
		t.Fatalf("%s B=%d: optimal compressor: %v", name, B, err)
	}
	abstracted("optimal", comp, got, want)
	if g, w := s.Vocab.SortedNames(), so.Vocab.SortedNames(); strings.Join(g, ",") != strings.Join(w, ",") || s.Vocab.Len() != so.Vocab.Len() {
		t.Fatalf("%s B=%d: vocabularies diverged: %v vs %v", name, B, g, w)
	}
}

// bitDiff describes the first term where the set's polynomials differ
// from want's maps, comparing coefficients by Float64bits; "" when they
// are identical.
func bitDiff(a *provenance.Set, want []*provenance.Polynomial) string {
	if a.Len() != len(want) {
		return fmt.Sprintf("%d vs %d polynomials", a.Len(), len(want))
	}
	for i, w := range want {
		bits := make(map[provenance.MonomialKey]uint64, w.Size())
		for k, c := range w.Terms() {
			bits[k] = math.Float64bits(c)
		}
		got := a.Poly(i)
		if got.Size() != w.Size() {
			return fmt.Sprintf("polynomial %d: %d vs %d terms", i, got.Size(), w.Size())
		}
		for k, c := range got.Terms() {
			if x, ok := bits[k]; !ok || x != math.Float64bits(c) {
				return fmt.Sprintf("polynomial %d: term %x: %x vs %x (present %v)", i, k, math.Float64bits(c), x, ok)
			}
		}
	}
	return ""
}

// substitutePolys is P↓S on the map form, polynomial by polynomial
// (Polynomial.Substitute): the map-based Set.Substitute, kept as the
// oracle the compressors' abstracted sets are checked against.
func substitutePolys(s *provenance.Set, subst map[provenance.Var]provenance.Var) []*provenance.Polynomial {
	out := polysOf(s)
	for i, p := range out {
		out[i] = p.Substitute(subst)
	}
	return out
}

// kernelDiff checks the abstracted set's kernel against want's maps
// flattened by Set.Add — arrays, coefficients by Float64bits, and largest
// variable — its vocabulary and tags against the source's, and its
// VarCount against want's variables. It describes the first failure, or
// returns "".
func kernelDiff(abs *provenance.Set, tags []string, want []*provenance.Polynomial) string {
	flat := provenance.NewSet(abs.Vocab)
	for i, p := range want {
		flat.Add(tags[i], p)
	}
	if vars, g := abs.VarCount(), flat.Granularity(); vars != g {
		return fmt.Sprintf("VarCount %d, the oracle's variables %d", vars, g)
	}
	k, fresh := abs.Compiled(), flat.Compiled()
	got, w := provenance.DumpCompiled(k), provenance.DumpCompiled(fresh)
	switch {
	case k.Vocab != abs.Vocab || strings.Join(k.Tags, "\x00") != strings.Join(tags, "\x00") || strings.Join(abs.Tags, "\x00") != strings.Join(tags, "\x00"):
		return "the kernel's vocabulary or tags are not the source's"
	case !slices.Equal(got.PolyOff, w.PolyOff) || !slices.Equal(got.FactOff, w.FactOff):
		return fmt.Sprintf("kernel offsets %v %v, the oracle's %v %v", got.PolyOff, got.FactOff, w.PolyOff, w.FactOff)
	case !slices.Equal(got.Vars, w.Vars) || !slices.Equal(got.Pows, w.Pows):
		return fmt.Sprintf("kernel factors %v^%v, the oracle's %v^%v", got.Vars, got.Pows, w.Vars, w.Pows)
	case k.MaxVar() != fresh.MaxVar():
		return fmt.Sprintf("kernel MaxVar %d, the oracle's %d", k.MaxVar(), fresh.MaxVar())
	}
	for i := range w.Coeffs {
		if math.Float64bits(got.Coeffs[i]) != math.Float64bits(w.Coeffs[i]) {
			return fmt.Sprintf("kernel coefficient %d is %x, the oracle's %x", i, math.Float64bits(got.Coeffs[i]), math.Float64bits(w.Coeffs[i]))
		}
	}
	return ""
}

// TestPackedCompressMatchesOracle: on 500 random instances, greedy (both
// tie-breaks) and optimal (on the first tree) pick the VVS, ML, VL and
// adequacy the string-keyed oracles pick, at B = 1, a random bound and
// B = |P|, and the compressors' abstracted sets are Float64bits-identical
// to Substitute's and arrive compiled, their kernels identical to a fresh
// compile's.
func TestPackedCompressMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, f := randomCompressInstance(rand.New(rand.NewSource(seed)))
		so, fo := randomCompressInstance(rand.New(rand.NewSource(seed)))
		n := max(s.Size(), 1)
		for _, B := range []int{1, 1 + rng.Intn(n), n} {
			checkCompressParity(t, fmt.Sprintf("seed %d", seed), s, f, so, fo, B)
		}
	}
}

// FuzzCompressParity drives the same parity check from a fuzzed instance
// seed and bound.
func FuzzCompressParity(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint16(seed*7))
	}
	f.Fuzz(func(t *testing.T, seed int64, b uint16) {
		s, forest := randomCompressInstance(rand.New(rand.NewSource(seed)))
		so, fo := randomCompressInstance(rand.New(rand.NewSource(seed)))
		checkCompressParity(t, fmt.Sprintf("seed %d", seed), s, forest, so, fo, 1+int(b)%max(s.Size(), 1))
	})
}

// TestPackedCompressTelcoM checks greedy parity at perfbench's largest
// set-up: telco-m, the Table 2 type 1 plans tree 2×64 plus the quarter
// tree, B = |P|/2, on the set built in code and on the set as the server
// receives it (Encode, then DecodeBytes, which seeds its kernel).
func TestPackedCompressTelcoM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds telco-m (230k monomials) twice")
	}
	build := func() (*provenance.Set, *abstree.Forest) {
		s, err := telco.SyntheticProvenance(telco.Config{Customers: 20000, Zips: 2000, Plans: 128, Months: 12, Seed: 1000})
		if err != nil {
			t.Fatal(err)
		}
		plans, err := telco.PlansTree(treegen.Shape{Type: 1, Fanouts: []int{2, 64}})
		if err != nil {
			t.Fatal(err)
		}
		return s, abstree.MustForest(plans, telco.QuarterTree())
	}
	so, fo := build()
	B := so.Size() / 2
	want, err := oracleGreedy(so, fo, B, GreedyOptions{TieBreakML: true})
	if err != nil {
		t.Fatal(err)
	}
	oracle := substitutePolys(so, want.VVS.Subst(so.Vocab))
	s, f := build()
	var buf bytes.Buffer
	if err := provenance.Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	decoded, err := provenance.DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name string
		s    *provenance.Set
	}{{"built", s}, {"decoded", decoded}} {
		comp, err := GreedyCompressor().Compress(in.s, f, B)
		if err != nil {
			t.Fatal(err)
		}
		got := &Result{VVS: comp.VVS, ML: comp.ML, VL: comp.VL, Adequate: comp.Adequate}
		if g, w := strings.Join(got.VVS.Labels(), ","), strings.Join(want.VVS.Labels(), ","); g != w ||
			got.ML != want.ML || got.VL != want.VL || got.Adequate != want.Adequate {
			t.Fatalf("%s: packed {%s} ML=%d VL=%d adequate=%v, oracle {%s} ML=%d VL=%d adequate=%v",
				in.name, g, got.ML, got.VL, got.Adequate, w, want.ML, want.VL, want.Adequate)
		}
		if diff := bitDiff(comp.Abstracted, oracle); diff != "" {
			t.Fatalf("%s: Abstracted differs from the oracle's: %s", in.name, diff)
		}
		if diff := kernelDiff(comp.Abstracted, in.s.Tags, oracle); diff != "" {
			t.Fatalf("%s: %s", in.name, diff)
		}
	}
}

// TestAbstractedVarCountSeeded: the variable count a compress response
// reports comes from the variable marks the abstraction's builder fills,
// so on a fresh Compression.Abstracted VarCount equals Granularity and
// allocates nothing. AllocsPerRun's warm-up call and each run read a
// compression of their own, so every call is a set's first.
func TestAbstractedVarCountSeeded(t *testing.T) {
	const runs = 5
	s, plans, _ := example13(t)
	for _, c := range []Compressor{GreedyCompressor(), OptimalCompressor()} {
		fresh := make([]*provenance.Set, 0, runs+1)
		for range runs + 1 {
			comp, err := c.Compress(s, abstree.MustForest(plans), 9)
			if err != nil {
				t.Fatal(err)
			}
			fresh = append(fresh, comp.Abstracted)
		}
		counts := make([]int, 0, runs+1)
		allocs := testing.AllocsPerRun(runs, func() {
			counts = append(counts, fresh[len(counts)].VarCount())
		})
		if allocs != 0 && !raceEnabled {
			t.Errorf("%s: the first VarCount of a fresh abstracted set allocated %v times", c.Name(), allocs)
		}
		for i, got := range counts {
			if want := fresh[i].Granularity(); got != want {
				t.Errorf("%s: VarCount %d, Granularity %d", c.Name(), got, want)
			}
		}
	}
}

// TestCompressionElapsedCoversBuild: Elapsed is read after the abstracted
// set exists, so time spent building it counts.
func TestCompressionElapsedCoversBuild(t *testing.T) {
	s, plans, _ := example13(t)
	const build = 20 * time.Millisecond
	comp, err := timed("greedy", s, func() (*Result, *provenance.Set, error) {
		res, err := GreedyVVSOpts(s, abstree.MustForest(plans), 9, GreedyOptions{TieBreakML: true})
		if err != nil {
			return nil, nil, err
		}
		abs := s.Substitute(res.VVS.Subst(s.Vocab))
		time.Sleep(build) // stands in for a slow build
		return res, abs, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Elapsed < build {
		t.Errorf("Elapsed = %v, shorter than the %v build", comp.Elapsed, build)
	}
}

// TestGreedySumsMergesInCurrentKeyOrder pins the order greedy adds merged
// coefficients in: ascending current key, as re-substituting the current
// abstraction after every promotion did, not source-key order. Promoting A
// turns x1·l3, x2·l2, x3·l1 into l3·A, l2·A, l1·A, whose keys sort in the
// reverse order; promoting B then merges them, and 1 + 1e16 − 1e16 cancels
// to exactly 0 where the source order −1e16 + 1e16 + 1 leaves 1. The
// abstracted set is built in one substitution from the source, so it keeps
// that 1.
func TestGreedySumsMergesInCurrentKeyOrder(t *testing.T) {
	vb := provenance.NewVocab()
	x, l := vb.Vars("x1", "x2", "x3"), vb.Vars("l1", "l2", "l3")
	s := provenance.NewSet(vb)
	p := provenance.NewPolynomial()
	p.AddTerm(-1e16, x[0], l[2])
	p.AddTerm(1e16, x[1], l[1])
	p.AddTerm(1, x[2], l[0])
	s.Add("P", p)
	f := abstree.MustForest(abstree.MustParseTree("A(x1,x2,x3)"), abstree.MustParseTree("B(l1,l2,l3)"))
	comp, err := GreedyCompressor().Compress(s, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(comp.VVS.Labels(), ","); got != "A,B" || comp.ML != 3 || !comp.Adequate {
		t.Errorf("greedy {%s} ML=%d adequate=%v, want {A,B} ML=3 adequate=true", got, comp.ML, comp.Adequate)
	}
	want, err := oracleGreedy(s, f, 1, GreedyOptions{TieBreakML: true})
	if err != nil {
		t.Fatal(err)
	}
	if want.ML != 3 {
		t.Errorf("string-keyed oracle ML=%d, want 3", want.ML)
	}
	a, b := vb.Var("A"), vb.Var("B")
	if got := comp.Abstracted.Poly(0); got.Size() != 1 || got.Coeff(a, b) != 1 {
		t.Errorf("abstracted %s, want 1·A·B", got.String(vb))
	}
}
