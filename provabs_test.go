package provabs_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"provabs"
)

// The facade must support the complete paper workflow end to end.
func TestFacadeRoundTrip(t *testing.T) {
	vb := provabs.NewVocab()
	set := provabs.NewSet(vb)
	set.Add("10001", provabs.MustParse(vb,
		"220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3"))

	forest, err := provabs.NewForest(provabs.MustParseTree("Year(q1(m1,m3))"))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := provabs.Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Compress(4, provabs.WithStrategy(provabs.StrategyOptimal))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Adequate {
		t.Fatal("expected adequate abstraction at B=4")
	}
	compressed := res.VVS.Apply(set)
	if compressed.Size() != 4 {
		t.Errorf("compressed size = %d, want 4", compressed.Size())
	}
	if got := provabs.MonomialLoss(set, res.VVS); got != 4 {
		t.Errorf("ML = %d, want 4", got)
	}
	if got := provabs.VariableLoss(set, res.VVS); got != 1 {
		t.Errorf("VL = %d, want 1", got)
	}

	// Uniform what-if on the meta-variable is exact.
	got, err := provabs.NewScenario().Set("q1", 0.8).Eval(compressed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := provabs.NewScenario().Set("m1", 0.8).Set("m3", 0.8).Eval(set)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-want[0]) > 1e-9 {
		t.Errorf("compressed scenario %v != original %v", got[0], want[0])
	}

	// Codec round trip preserves sizes.
	var buf bytes.Buffer
	if err := provabs.Encode(&buf, compressed); err != nil {
		t.Fatal(err)
	}
	if provabs.EncodedSize(compressed) != buf.Len() {
		t.Error("EncodedSize mismatch")
	}
	back, err := provabs.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != compressed.Size() || back.Granularity() != compressed.Granularity() {
		t.Error("decoded sizes differ")
	}
}

func TestFacadeGreedyAndBrute(t *testing.T) {
	vb := provabs.NewVocab()
	set := provabs.NewSet(vb)
	set.Add("P1", provabs.MustParse(vb, "2·a1·x + 3·a2·x + 4·b1·x + 5·b2·x"))
	f, err := provabs.NewForest(
		provabs.MustParseTree("A(a1,a2)"),
		provabs.MustParseTree("B(b1,b2)"),
	)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := provabs.Open(set, f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := eng.Compress(2, provabs.WithStrategy(provabs.StrategyGreedy))
	if err != nil {
		t.Fatal(err)
	}
	bf, err := eng.Compress(2, provabs.WithStrategy(provabs.StrategyBruteForce))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Adequate || !bf.Adequate {
		t.Errorf("greedy adequate=%v brute adequate=%v", g.Adequate, bf.Adequate)
	}
	if g.VL != bf.VL {
		t.Errorf("greedy VL %d != optimal VL %d on this symmetric instance", g.VL, bf.VL)
	}
}

func TestFacadeSummarizeAndOnline(t *testing.T) {
	vb := provabs.NewVocab()
	set := provabs.NewSet(vb)
	for i := 0; i < 4; i++ {
		set.Add(fmt.Sprintf("g%d", i), provabs.MustParse(vb,
			fmt.Sprintf("%d·a1·x + %d·a2·x + %d·a3·x + %d·a4·x", i+1, i+2, i+3, i+4)))
	}
	f, err := provabs.NewForest(provabs.MustParseTree("A(AL(a1,a2),AR(a3,a4))"))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := provabs.Open(set, f)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := eng.Compress(8, provabs.WithStrategy(provabs.StrategySummarize),
		provabs.WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !sres.Adequate {
		t.Errorf("summarize inadequate: %+v", sres)
	}
	ores, err := eng.Compress(8, provabs.WithStrategy(provabs.StrategyOnline),
		provabs.WithSamplingFraction(0.5), provabs.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if !ores.Adequate {
		t.Errorf("online compress missed the bound: %d", ores.Abstracted.Size())
	}
}

// The compiled batch path: the Engine compiles once and WhatIfBatch
// evaluates many scenarios against it, with tagged results identical to
// per-scenario Eval.
func TestFacadeCompiledBatch(t *testing.T) {
	vb := provabs.NewVocab()
	set := provabs.NewSet(vb)
	set.Add("10001", provabs.MustParse(vb, "220.8·p1·m1 + 240·p1·m3"))
	set.Add("10002", provabs.MustParse(vb, "127.4·f1·m1 + 114.45·f1·m3"))
	eng, err := provabs.Open(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []*provabs.Scenario{
		provabs.NewScenario().Set("m1", 0.8),
		provabs.NewScenario().Set("m3", 1.2).Set("f1", 0.5),
		provabs.NewScenario(),
	}
	rows, err := eng.WhatIfBatch(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range scenarios {
		want, err := sc.Eval(set)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Abs(rows[i][j].Value-want[j]) > 1e-9 {
				t.Errorf("scenario %d poly %d: batch %v, eval %v", i, j, rows[i][j].Value, want[j])
			}
		}
	}
	if rows[0][0].Tag != "10001" || rows[0][1].Tag != "10002" {
		t.Errorf("tags = %q, %q", rows[0][0].Tag, rows[0][1].Tag)
	}
}

// TestFacadeRegistry drives the multi-session registry through the public
// facade: named sessions with independent engines, aggregate stats and
// lifecycle errors.
func TestFacadeRegistry(t *testing.T) {
	mkSet := func(tag string) *provabs.Set {
		vb := provabs.NewVocab()
		set := provabs.NewSet(vb)
		set.Add(tag, provabs.MustParse(vb, "220.8·p1·m1 + 240·p1·m3"))
		return set
	}
	reg := provabs.OpenRegistry()
	forest, err := provabs.NewForest(provabs.MustParseTree("Year(q1(m1,m3))"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := reg.Create("a", mkSet("pa"), forest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("b", mkSet("pb"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("a", mkSet("dup"), nil); !errors.Is(err, provabs.ErrSessionExists) {
		t.Errorf("duplicate Create: %v, want ErrSessionExists", err)
	}

	// The sessions are independent engines: compressing one leaves the
	// other's provenance untouched, and both answer what-ifs.
	if _, err := a.Engine().Compress(1); err != nil {
		t.Fatal(err)
	}
	if st := a.Engine().Stats(); !st.Compressed || st.Monomials != 1 {
		t.Errorf("session a stats = %+v, want compressed to 1 monomial", st)
	}
	b, err := reg.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	if st := b.Engine().Stats(); st.Compressed || st.Monomials != 2 {
		t.Errorf("session b stats = %+v, want uncompressed 2 monomials", st)
	}
	if _, err := a.Engine().WhatIf(provabs.NewScenario().Set("q1", 0.5)); err != nil {
		t.Errorf("session a on meta-variable: %v", err)
	}
	if _, err := b.Engine().WhatIf(provabs.NewScenario().Set("m1", 0.5)); err != nil {
		t.Errorf("session b on month: %v", err)
	}

	agg := reg.Stats()
	if agg.Sessions != 2 || agg.Totals.Scenarios != 2 || agg.Totals.Compiles != 2 {
		t.Errorf("aggregate = %d sessions / %d scenarios / %d compiles, want 2/2/2",
			agg.Sessions, agg.Totals.Scenarios, agg.Totals.Compiles)
	}
	if agg.PerSession["a"].Scenarios != 1 || agg.PerSession["b"].Scenarios != 1 {
		t.Errorf("per-session scenarios = %+v, want 1 each", agg.PerSession)
	}
	if err := reg.Close("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("b"); !errors.Is(err, provabs.ErrSessionNotFound) {
		t.Errorf("Get after Close: %v, want ErrSessionNotFound", err)
	}
}

func TestFromLabels(t *testing.T) {
	f, err := provabs.NewForest(provabs.MustParseTree("A(a1,a2)"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := provabs.FromLabels(f, "A")
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != 1 {
		t.Errorf("VVS size = %d", v.Size())
	}
	if _, err := provabs.FromLabels(f, "nope"); err == nil {
		t.Error("unknown label accepted")
	}
}

// ExampleStrategyOptimal demonstrates the quickstart workflow from the
// package documentation with the paper's Algorithm 1.
func ExampleStrategyOptimal() {
	vb := provabs.NewVocab()
	set := provabs.NewSet(vb)
	set.Add("zip 10001", provabs.MustParse(vb, "220.8·p1·m1 + 240·p1·m3"))
	forest, _ := provabs.NewForest(provabs.MustParseTree("Year(q1(m1,m3))"))
	eng, _ := provabs.Open(set, forest)
	res, _ := eng.Compress(1, provabs.WithStrategy(provabs.StrategyOptimal))
	compressed := res.VVS.Apply(set)
	fmt.Println(compressed.Polys[0].String(vb))
	answers, _ := provabs.NewScenario().Set("q1", 0.8).Eval(compressed)
	fmt.Printf("%.2f\n", answers[0])
	// Output:
	// 460.8·p1·q1
	// 368.64
}

// TestFacadeSemirings drives the public semiring surface end to end: parse
// a kind, evaluate the same provenance under several carriers, and stream
// in a non-float one.
func TestFacadeSemirings(t *testing.T) {
	vb := provabs.NewVocab()
	set := provabs.NewSet(vb)
	set.Add("q", provabs.MustParse(vb, "2·a·b + 3·c"))
	eng, err := provabs.Open(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k, err := provabs.ParseSemiring("bool"); err != nil || k != provabs.SemiringBool {
		t.Fatalf("ParseSemiring(bool) = %v, %v", k, err)
	}
	if _, err := provabs.ParseSemiring("galois"); err == nil {
		t.Error("unknown semiring name accepted")
	}
	if ks := provabs.Semirings(); len(ks) == 0 || ks[0] != provabs.SemiringFloat {
		t.Errorf("Semirings() = %v, want float first", ks)
	}

	sc := provabs.NewScenario().Set("a", 0).Set("c", 0)
	alive, err := eng.WhatIfIn(provabs.SemiringBool, sc)
	if err != nil {
		t.Fatal(err)
	}
	if alive[0].Value != false {
		t.Errorf("bool what-if = %v, want false (both derivations deleted)", alive[0].Value)
	}
	counts, err := eng.WhatIfBatchIn(provabs.SemiringCount,
		[]*provabs.Scenario{provabs.NewScenario().Set("a", 2).Set("b", 1).Set("c", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0][0].Value != int64(2*2*1+3*1) {
		t.Errorf("count what-if = %v, want 7", counts[0][0].Value)
	}

	in := make(chan *provabs.Scenario, 2)
	in <- provabs.NewScenario().Set("a", 1).Set("b", 4).Set("c", 100)
	in <- provabs.NewScenario().Set("c", 0)
	close(in)
	var got []provabs.ValueStreamResult
	for r := range eng.StreamIn(context.Background(), provabs.SemiringTropical, in) {
		if r.Err != nil {
			t.Fatalf("stream result %d: %v", r.Index, r.Err)
		}
		got = append(got, r)
	}
	if len(got) != 2 {
		t.Fatalf("stream yielded %d results, want 2", len(got))
	}
	if v := got[0].Row.Values.([]float64)[0]; v != 5.0 { // min(1+4, 100)
		t.Errorf("tropical stream answer 0 = %v, want 5", v)
	}
	if st := eng.Stats(); st.Semirings["tropical"].Scenarios != 2 {
		t.Errorf("tropical scenario counter = %+v", st.Semirings)
	}
}
