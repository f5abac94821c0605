package provabs_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"provabs"
	"provabs/internal/core"
	"provabs/internal/sampling"
	"provabs/internal/summarize"
)

func engineFixture(t testing.TB) (*provabs.Vocab, *provabs.Set, *provabs.Forest) {
	t.Helper()
	vb := provabs.NewVocab()
	set := provabs.NewSet(vb)
	set.Add("10001", provabs.MustParse(vb,
		"220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3"))
	forest, err := provabs.NewForest(provabs.MustParseTree("Year(q1(m1,m3))"))
	if err != nil {
		t.Fatal(err)
	}
	return vb, set, forest
}

// TestEngineRoundTrip is the package documentation's session lifecycle:
// Open, Compress, WhatIf — with the what-if exact for the group-uniform
// scenario.
func TestEngineRoundTrip(t *testing.T) {
	_, set, forest := engineFixture(t)
	eng, err := provabs.Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := eng.Compress(4)
	if err != nil {
		t.Fatal(err)
	}
	if !comp.Adequate || comp.Abstracted.Size() != 4 {
		t.Fatalf("compress: adequate=%v size=%d, want adequate at 4", comp.Adequate, comp.Abstracted.Size())
	}
	answers, err := eng.WhatIf(provabs.NewScenario().Set("q1", 0.8))
	if err != nil {
		t.Fatal(err)
	}
	want, err := provabs.NewScenario().Set("m1", 0.8).Set("m3", 0.8).Eval(set)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(answers[0].Value-want[0]) > 1e-9 {
		t.Errorf("engine what-if %v != original %v", answers[0].Value, want[0])
	}
	if answers[0].Tag != "10001" {
		t.Errorf("tag = %q, want 10001", answers[0].Tag)
	}
}

// TestEngineStrategyParityWithFreeFunctions is the acceptance table: every
// strategy through the facade's Engine.Compress(B, WithStrategy(...)) and
// its re-exported options agrees with the algorithm's own free function.
func TestEngineStrategyParityWithFreeFunctions(t *testing.T) {
	const B = 4
	cases := []struct {
		name string
		opts []provabs.CompressOption
		free func(set *provabs.Set, forest *provabs.Forest) (ml, vl int, adequate bool)
	}{
		{
			name: "optimal",
			opts: []provabs.CompressOption{provabs.WithStrategy(provabs.StrategyOptimal)},
			free: func(set *provabs.Set, forest *provabs.Forest) (int, int, bool) {
				res, err := core.OptimalVVS(set, forest.Trees[0], B)
				if err != nil {
					t.Fatal(err)
				}
				return res.ML, res.VL, res.Adequate
			},
		},
		{
			name: "greedy",
			opts: []provabs.CompressOption{provabs.WithStrategy(provabs.StrategyGreedy)},
			free: func(set *provabs.Set, forest *provabs.Forest) (int, int, bool) {
				res, err := core.GreedyVVS(set, forest, B)
				if err != nil {
					t.Fatal(err)
				}
				return res.ML, res.VL, res.Adequate
			},
		},
		{
			name: "brute",
			opts: []provabs.CompressOption{provabs.WithStrategy(provabs.StrategyBruteForce)},
			free: func(set *provabs.Set, forest *provabs.Forest) (int, int, bool) {
				res, err := core.BruteForceVVS(set, forest, B, 0)
				if err != nil {
					t.Fatal(err)
				}
				return res.ML, res.VL, res.Adequate
			},
		},
		{
			name: "summarize",
			opts: []provabs.CompressOption{
				provabs.WithStrategy(provabs.StrategySummarize), provabs.WithTimeout(time.Minute)},
			free: func(set *provabs.Set, forest *provabs.Forest) (int, int, bool) {
				res, err := summarize.Summarize(set, forest, B, summarize.Options{Timeout: time.Minute})
				if err != nil {
					t.Fatal(err)
				}
				return res.ML, res.VL, res.Adequate
			},
		},
		{
			name: "online",
			opts: []provabs.CompressOption{
				provabs.WithStrategy(provabs.StrategyOnline),
				provabs.WithSamplingFraction(1), provabs.WithSeed(9)},
			free: func(set *provabs.Set, forest *provabs.Forest) (int, int, bool) {
				res, err := sampling.OnlineCompress(set, forest, B, sampling.Options{Fraction: 1, Seed: 9})
				if err != nil {
					t.Fatal(err)
				}
				return set.Size() - res.Abstracted.Size(),
					set.Granularity() - res.Abstracted.Granularity(), res.FullAdequate
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, set, forest := engineFixture(t)
			wantML, wantVL, wantAdequate := tc.free(set, forest)

			_, set2, forest2 := engineFixture(t)
			eng, err := provabs.Open(set2, forest2)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := eng.Compress(B, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if comp.ML != wantML || comp.VL != wantVL || comp.Adequate != wantAdequate {
				t.Errorf("engine ML/VL/Adequate = %d/%d/%v, free function %d/%d/%v",
					comp.ML, comp.VL, comp.Adequate, wantML, wantVL, wantAdequate)
			}
		})
	}
}

// TestEngineAddThenBatch is the facade-level incremental-compile pin: every
// WhatIfBatch after an Add must see the new polynomial, and an Add-heavy
// Add+WhatIf loop must never trigger a recompilation — the compiled form is
// extended in place (Compiles stays at 1).
func TestEngineAddThenBatch(t *testing.T) {
	vb, set, forest := engineFixture(t)
	eng, err := provabs.Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := eng.WhatIfBatch([]*provabs.Scenario{provabs.NewScenario()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows[0]) != 1 {
		t.Fatalf("baseline answers = %d, want 1", len(rows[0]))
	}
	for i := 0; i < 8; i++ {
		eng.Add(fmt.Sprintf("1000%d", i+2), provabs.MustParse(vb, "7·p1·m1 + 3·p1·m3"))
		rows, err = eng.WhatIfBatch([]*provabs.Scenario{provabs.NewScenario()})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows[0]) != i+2 || rows[0][i+1].Value != 10 {
			t.Fatalf("after Add %d: %d answers (%+v), want %d with last = 10",
				i+1, len(rows[0]), rows[0], i+2)
		}
	}
	if st := eng.Stats(); st.Compiles != 1 || st.Added != 8 {
		t.Errorf("Compiles = %d, Added = %d; want the Add+WhatIf loop to append in place (1 compile, 8 adds)",
			st.Compiles, st.Added)
	}
}

// ExampleOpen demonstrates the session lifecycle from the package
// documentation.
func ExampleOpen() {
	vb := provabs.NewVocab()
	set := provabs.NewSet(vb)
	set.Add("zip 10001", provabs.MustParse(vb, "220.8·p1·m1 + 240·p1·m3"))
	forest, _ := provabs.NewForest(provabs.MustParseTree("Year(q1(m1,m3))"))
	eng, _ := provabs.Open(set, forest)
	comp, _ := eng.Compress(1) // StrategyAuto: optimal on a single tree
	fmt.Println(comp.Abstracted.Polys[0].String(vb))
	answers, _ := eng.WhatIf(provabs.NewScenario().Set("q1", 0.8))
	fmt.Printf("%.2f\n", answers[0].Value)
	// Output:
	// 460.8·p1·q1
	// 368.64
}
