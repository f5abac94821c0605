package session

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/core"
	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/sampling"
	"provabs/internal/semiring"
	"provabs/internal/summarize"
)

// fixture returns the paper's running-example provenance (Example 2,
// extended with a second polynomial) and the quarter tree.
func fixture(t testing.TB) (*provenance.Set, *abstree.Forest) {
	t.Helper()
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	set.Add("zip 10001", provenance.MustParse(vb,
		"220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 + "+
			"75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3"))
	set.Add("zip 10002", provenance.MustParse(vb,
		"100·p1·m1 + 50·f1·m3 + 25·y1·m1"))
	forest, err := abstree.NewForest(abstree.MustParseTree("Year(q1(m1,m3))"))
	if err != nil {
		t.Fatal(err)
	}
	return set, forest
}

func TestOpenValidates(t *testing.T) {
	set, forest := fixture(t)
	if _, err := Open(nil, forest); err == nil {
		t.Fatal("Open(nil set) succeeded, want error")
	}
	if _, err := Open(set, nil); err != nil {
		t.Fatalf("Open with nil forest: %v", err)
	}
	// A forest whose meta-variable collides with a provenance variable is
	// incompatible and must be rejected at Open time.
	bad, err := abstree.NewForest(abstree.MustParseTree("p1(m1,m3)"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(set, bad); err == nil {
		t.Fatal("Open with incompatible forest succeeded, want error")
	}
}

func TestCompressWithoutForestErrors(t *testing.T) {
	set, _ := fixture(t)
	e, err := Open(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compress(4); err == nil {
		t.Fatal("Compress without forest succeeded, want error")
	}
}

// TestCompressStrategyParity asserts, table-driven, that every strategy
// routed through the Engine produces the same selection as the
// pre-Engine entry point it unifies.
func TestCompressStrategyParity(t *testing.T) {
	// B=7 is the tightest feasible bound of the fixture: collapsing q1
	// merges the 8 monomials of zip 10001 into 4 and rewrites (without
	// merging) the 3 of zip 10002.
	const B = 7
	cases := []struct {
		strategy Strategy
		opts     []CompressOption
		legacy   func(s *provenance.Set, f *abstree.Forest) (ml, vl int, adequate bool, size int)
	}{
		{
			strategy: StrategyOptimal,
			legacy: func(s *provenance.Set, f *abstree.Forest) (int, int, bool, int) {
				res, err := core.OptimalVVS(s, f.Trees[0], B)
				if err != nil {
					t.Fatal(err)
				}
				return res.ML, res.VL, res.Adequate, res.VVS.Apply(s).Size()
			},
		},
		{
			strategy: StrategyGreedy,
			legacy: func(s *provenance.Set, f *abstree.Forest) (int, int, bool, int) {
				res, err := core.GreedyVVS(s, f, B)
				if err != nil {
					t.Fatal(err)
				}
				return res.ML, res.VL, res.Adequate, res.VVS.Apply(s).Size()
			},
		},
		{
			strategy: StrategyBruteForce,
			legacy: func(s *provenance.Set, f *abstree.Forest) (int, int, bool, int) {
				res, err := core.BruteForceVVS(s, f, B, 0)
				if err != nil {
					t.Fatal(err)
				}
				return res.ML, res.VL, res.Adequate, res.VVS.Apply(s).Size()
			},
		},
		{
			strategy: StrategySummarize,
			opts:     []CompressOption{WithTimeout(time.Minute)},
			legacy: func(s *provenance.Set, f *abstree.Forest) (int, int, bool, int) {
				res, err := summarize.Summarize(s, f, B, summarize.Options{Timeout: time.Minute})
				if err != nil {
					t.Fatal(err)
				}
				return res.ML, res.VL, res.Adequate, res.Abstracted.Size()
			},
		},
		{
			strategy: StrategyOnline,
			opts:     []CompressOption{WithSamplingFraction(1), WithSeed(42)},
			legacy: func(s *provenance.Set, f *abstree.Forest) (int, int, bool, int) {
				res, err := sampling.OnlineCompress(s, f, B, sampling.Options{Fraction: 1, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				return s.Size() - res.Abstracted.Size(), s.Granularity() - res.Abstracted.Granularity(),
					res.FullAdequate, res.Abstracted.Size()
			},
		},
	}
	for _, tc := range cases {
		t.Run(string(tc.strategy), func(t *testing.T) {
			set, forest := fixture(t)
			wantML, wantVL, wantAdequate, wantSize := tc.legacy(set, forest)

			set2, forest2 := fixture(t)
			e, err := Open(set2, forest2)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := e.Compress(B, append([]CompressOption{WithStrategy(tc.strategy)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if comp.Strategy != string(tc.strategy) {
				t.Errorf("Strategy = %q, want %q", comp.Strategy, tc.strategy)
			}
			if comp.ML != wantML || comp.VL != wantVL || comp.Adequate != wantAdequate {
				t.Errorf("ML/VL/Adequate = %d/%d/%v, legacy %d/%d/%v",
					comp.ML, comp.VL, comp.Adequate, wantML, wantVL, wantAdequate)
			}
			if got := comp.Abstracted.Size(); got != wantSize {
				t.Errorf("Abstracted.Size = %d, legacy %d", got, wantSize)
			}
			// The substitution must reproduce the abstracted set exactly.
			resub := set2.Substitute(comp.Subst)
			if resub.Size() != comp.Abstracted.Size() || resub.Granularity() != comp.Abstracted.Granularity() {
				t.Errorf("Subst reapplied: %d/%d monomials/vars, want %d/%d",
					resub.Size(), resub.Granularity(), comp.Abstracted.Size(), comp.Abstracted.Granularity())
			}
		})
	}
}

func TestStrategyAuto(t *testing.T) {
	set, forest := fixture(t)
	e, err := Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := e.Compress(4)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Strategy != string(StrategyOptimal) {
		t.Errorf("auto on single tree chose %q, want optimal", comp.Strategy)
	}
}

func TestOptimalRejectsForest(t *testing.T) {
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	set.Add("a", provenance.MustParse(vb, "1·x1·y1 + 2·x2·y2"))
	forest, err := abstree.NewForest(
		abstree.MustParseTree("X(x1,x2)"), abstree.MustParseTree("Y(y1,y2)"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compress(2, WithStrategy(StrategyOptimal)); err == nil {
		t.Fatal("optimal on a two-tree forest succeeded, want error")
	}
}

func TestWhatIfUnknownVariable(t *testing.T) {
	set, _ := fixture(t)
	e, err := Open(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.WhatIf(hypo.NewScenario().Set("no_such_var", 2)); err == nil {
		t.Fatal("WhatIf with unknown variable succeeded, want error")
	}
	if _, err := e.WhatIfBatch([]*hypo.Scenario{hypo.NewScenario().Set("nope", 1)}); err == nil {
		t.Fatal("WhatIfBatch with unknown variable succeeded, want error")
	}
}

// TestWhatIfBatchTags: WhatIfBatch and WhatIfBatchIn, in float and in
// count, tag every row with the set's tags, with values bit-identical to
// hypo.EvalBatch on the same kernel.
func TestWhatIfBatchTags(t *testing.T) {
	set := chainFixture() // natural coefficients: compiles under counting too
	e, err := Open(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	scs := []*hypo.Scenario{
		hypo.NewScenario().Set("a", 2).Set("m", 3),
		hypo.NewScenario().Set("b", 0).Set("n", 5),
		hypo.NewScenario(),
	}
	floats, err := hypo.EvalBatch(e.Compiled(), scs, hypo.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	countKernel, err := provenance.CompileSet[int64](semiring.Counting{}, set)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := hypo.EvalBatch(countKernel, scs, hypo.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// check compares answer j of row i; a float must match bit for bit.
	check := func(path string, i, j int, tag string, got, want any) {
		t.Helper()
		same := got == want
		if f, ok := want.(float64); ok {
			g, isFloat := got.(float64)
			same = isFloat && math.Float64bits(g) == math.Float64bits(f)
		}
		if tag != set.Tags[j] || !same {
			t.Errorf("%s row %d answer %d = (%q, %v), want (%q, %v)", path, i, j, tag, got, set.Tags[j], want)
		}
	}

	rows, err := e.WhatIfBatch(scs)
	if err != nil || len(rows) != len(scs) {
		t.Fatalf("WhatIfBatch = %d rows, %v; want %d", len(rows), err, len(scs))
	}
	for i, row := range rows {
		if len(row) != set.Len() {
			t.Fatalf("WhatIfBatch row %d has %d answers, want %d", i, len(row), set.Len())
		}
		for j, a := range row {
			check("WhatIfBatch", i, j, a.Tag, a.Value, floats[i][j])
		}
	}
	for _, tc := range []struct {
		kind semiring.Kind
		want func(i, j int) any
	}{
		{semiring.KindFloat, func(i, j int) any { return floats[i][j] }},
		{semiring.KindCount, func(i, j int) any { return counts[i][j] }},
	} {
		path := "WhatIfBatchIn(" + tc.kind.String() + ")"
		rows, err := e.WhatIfBatchIn(tc.kind, scs)
		if err != nil || len(rows) != len(scs) {
			t.Fatalf("%s = %d rows, %v; want %d", path, len(rows), err, len(scs))
		}
		for i, row := range rows {
			if len(row) != set.Len() {
				t.Fatalf("%s row %d has %d answers, want %d", path, i, len(row), set.Len())
			}
			for j, a := range row {
				check(path, i, j, a.Tag, a.Value, tc.want(i, j))
			}
		}
	}
}

// TestWhatIfBatchReusesCompiled is the compile-once guarantee: any number
// of evaluations triggers exactly one compilation, and a second one appears
// only after compression changes the active set.
func TestWhatIfBatchReusesCompiled(t *testing.T) {
	set, forest := fixture(t)
	e, err := Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	scs := []*hypo.Scenario{
		hypo.NewScenario().Set("m1", 0.5),
		hypo.NewScenario().Set("m3", 1.5),
	}
	for i := 0; i < 10; i++ {
		if _, err := e.WhatIfBatch(scs); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Compiles != 1 {
		t.Fatalf("after 10 batches: Compiles = %d, want 1", st.Compiles)
	}
	if _, err := e.Compress(4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := e.WhatIf(hypo.NewScenario().Set("q1", 0.8)); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Compiles != 2 {
		t.Fatalf("after compress + 10 what-ifs: Compiles = %d, want 2", st.Compiles)
	}
	if st.Scenarios != 30 {
		t.Errorf("Scenarios = %d, want 30", st.Scenarios)
	}
}

// TestLargeExponentWhatIf: a set holding x^(2^31−1) answers its first
// what-if within 50 ms, in the float semiring (the fused loop) and in the
// counting one (the generic loop). Both evaluators used to multiply once
// per unit of exponent: about 2^31 multiplies, seconds per evaluation.
func TestLargeExponentWhatIf(t *testing.T) {
	const bound = 50 * time.Millisecond
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	set.Add("big", provenance.MustParse(vb, "3·x^2147483647 + 2·y"))
	e, err := Open(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ans, err := e.WhatIf(hypo.NewScenario().Set("x", 1-1e-9))
	if took := time.Since(start); took > bound {
		t.Errorf("the first float what-if took %v, bound %v", took, bound)
	}
	if err != nil {
		t.Fatal(err)
	}
	if want := 3*math.Pow(1-1e-9, math.MaxInt32) + 2; math.Abs(ans[0].Value-want) > 1e-6*want {
		t.Errorf("3·x^(2^31−1) + 2 at x = 1−1e-9 is %v, want %v", ans[0].Value, want)
	}
	start = time.Now()
	counted, err := e.WhatIfIn(semiring.KindCount, hypo.NewScenario().Set("y", 0))
	if took := time.Since(start); took > bound {
		t.Errorf("the first counting what-if took %v, bound %v", took, bound)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := counted[0].Value; got != int64(3) {
		t.Errorf("counting answer %v, want 3", got)
	}
}

// TestAddInvalidatesCompiled is the ROADMAP regression: a polynomial added
// after evaluation (and after compression) must be visible to the next
// WhatIfBatch without an explicit recompile.
func TestAddInvalidatesCompiled(t *testing.T) {
	set, forest := fixture(t)
	vb := set.Vocab
	e, err := Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	baseline := []*hypo.Scenario{hypo.NewScenario()}
	rows, err := e.WhatIfBatch(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows[0]) != 2 {
		t.Fatalf("baseline answers = %d, want 2", len(rows[0]))
	}

	e.Add("zip 10003", provenance.MustParse(vb, "10·p1·m1 + 20·p1·m3"))
	rows, err = e.WhatIfBatch(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows[0]) != 3 {
		t.Fatalf("after Add: answers = %d, want 3", len(rows[0]))
	}
	if got := rows[0][2]; got.Tag != "zip 10003" || got.Value != 30 {
		t.Fatalf("new polynomial answered %q=%v, want \"zip 10003\"=30", got.Tag, got.Value)
	}

	// Same through a compression: the added polynomial is abstracted under
	// the session's substitution and evaluated group-uniformly.
	if _, err := e.Compress(8); err != nil {
		t.Fatal(err)
	}
	e.Add("zip 10004", provenance.MustParse(vb, "1·p1·m1 + 1·p1·m3"))
	rows, err = e.WhatIfBatch([]*hypo.Scenario{hypo.NewScenario().Set("q1", 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows[0]) != 4 {
		t.Fatalf("after compressed Add: answers = %d, want 4", len(rows[0]))
	}
	// 1·p1·q1 + 1·p1·q1 under q1=0.5 (or the uncollapsed equivalent) = 1.
	if got := rows[0][3].Value; got != 1 {
		t.Fatalf("abstracted new polynomial = %v, want 1", got)
	}
	// Source and active stay in lockstep.
	if e.Source().Len() != 4 || e.Active().Len() != 4 {
		t.Fatalf("source/active lengths %d/%d, want 4/4", e.Source().Len(), e.Active().Len())
	}
}

func TestStream(t *testing.T) {
	set, forest := fixture(t)
	e, err := Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compress(4); err != nil {
		t.Fatal(err)
	}
	in := make(chan *hypo.Scenario)
	out := e.StreamIn(context.Background(), semiring.KindFloat, in)
	go func() {
		defer close(in)
		in <- hypo.NewScenario().Set("q1", 0.8)
		in <- hypo.NewScenario().Set("bogus", 1) // semantic error: reported in-band
		in <- hypo.NewScenario().Set("q1", 1.2)
	}()
	var got []ValueStreamResult
	for r := range out {
		got = append(got, r)
	}
	if len(got) != 3 {
		t.Fatalf("stream yielded %d results, want 3", len(got))
	}
	for i, r := range got {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
	}
	if got[0].Err != nil || got[2].Err != nil {
		t.Errorf("valid scenarios errored: %v, %v", got[0].Err, got[2].Err)
	}
	if got[1].Err == nil {
		t.Error("unknown-variable scenario did not report an error")
	}
	if st := e.Stats(); st.Compiles != 1 {
		t.Errorf("stream recompiled: Compiles = %d, want 1", st.Compiles)
	}
}

// TestStreamMicroBatches: scenarios already pending on the input channel are
// drained into one batched evaluation instead of being answered one at a
// time, while arrival order and per-scenario errors are preserved.
func TestStreamMicroBatches(t *testing.T) {
	set, _ := fixture(t)
	e, err := Open(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	in := make(chan *hypo.Scenario, n)
	for i := 0; i < n; i++ {
		if i == 7 {
			in <- hypo.NewScenario().Set("bogus", 1)
			continue
		}
		in <- hypo.NewScenario().Set("m1", 0.5+float64(i)/32)
	}
	close(in)
	// The whole backlog is visible before StreamIn starts, so it must be
	// answered in at most a couple of micro-batches, not 20 singles.
	var got []ValueStreamResult
	for r := range e.StreamIn(context.Background(), semiring.KindFloat, in) {
		got = append(got, r)
	}
	if len(got) != n {
		t.Fatalf("stream yielded %d results, want %d", len(got), n)
	}
	for i, r := range got {
		if r.Index != i {
			t.Fatalf("result %d has index %d (order broken)", i, r.Index)
		}
		if (r.Err != nil) != (i == 7) {
			t.Errorf("result %d: err = %v", i, r.Err)
		}
	}
	if got[7].Err == nil || !strings.Contains(got[7].Err.Error(), "scenario 7") {
		t.Errorf("in-band error %v does not carry the arrival index", got[7].Err)
	}
	st := e.Stats()
	if st.StreamBatches == 0 || st.StreamBatches >= n {
		t.Errorf("StreamBatches = %d, want micro-batching (1..%d)", st.StreamBatches, n-1)
	}
	if st.StreamMaxBatch < 2 {
		t.Errorf("StreamMaxBatch = %d, want >= 2", st.StreamMaxBatch)
	}
	if st.Scenarios != n-1 {
		t.Errorf("Scenarios = %d, want %d (the unresolved one is not evaluated)", st.Scenarios, n-1)
	}
	if st.DeltaEvals+st.ChainedEvals+st.FullEvals != n-1 {
		t.Errorf("DeltaEvals %d + ChainedEvals %d + FullEvals %d != %d evaluated scenarios",
			st.DeltaEvals, st.ChainedEvals, st.FullEvals, n-1)
	}
}

// TestStreamBatchCap: WithStreamBatch bounds how much of a backlog one
// evaluation may drain.
func TestStreamBatchCap(t *testing.T) {
	set, _ := fixture(t)
	e, err := Open(set, nil, WithStreamBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	in := make(chan *hypo.Scenario, n)
	for i := 0; i < n; i++ {
		in <- hypo.NewScenario().Set("m1", 0.5)
	}
	close(in)
	count := 0
	for range e.StreamIn(context.Background(), semiring.KindFloat, in) {
		count++
	}
	if count != n {
		t.Fatalf("stream yielded %d results, want %d", count, n)
	}
	st := e.Stats()
	if st.StreamMaxBatch > 4 {
		t.Errorf("StreamMaxBatch = %d, want <= 4 (WithStreamBatch)", st.StreamMaxBatch)
	}
	if st.StreamBatches < n/4 {
		t.Errorf("StreamBatches = %d, want >= %d with a cap of 4", st.StreamBatches, n/4)
	}
}

// TestStreamBufferedOutput is the slow-consumer regression: with a buffered
// output channel the stream finishes evaluating a whole backlog while the
// consumer reads nothing, instead of blocking after the first result.
func TestStreamBufferedOutput(t *testing.T) {
	set, _ := fixture(t)
	const n = 8
	e, err := Open(set, nil, WithStreamBuffer(n))
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan *hypo.Scenario, n)
	out := e.StreamIn(context.Background(), semiring.KindFloat, in)
	for i := 0; i < n; i++ {
		in <- hypo.NewScenario().Set("m3", 1.1)
	}
	close(in)
	// The deliberately slow reader consumes nothing: all n results must
	// still land in the channel buffer and the stream must close.
	deadline := time.Now().Add(5 * time.Second)
	for len(out) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d results buffered; slow consumer serialized the stream", len(out), n)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < n; i++ {
		r := <-out
		if r.Index != i || r.Err != nil {
			t.Fatalf("result %d = index %d, err %v", i, r.Index, r.Err)
		}
	}
	if _, ok := <-out; ok {
		t.Fatal("stream did not close after the backlog")
	}
}

// TestConcurrentWhatIfBatchAndAdd hammers evaluation and mutation together;
// it exists to fail under -race if the delta path (baseline cache, inverted
// index, counters) or a carrier runtime ever shares mutable state across
// the compile boundary. Float and counting batches run beside Adds and a
// second Compress, which swaps the float runtime's kernel and drops the
// counting one; the set has natural coefficients so counting compiles.
func TestConcurrentWhatIfBatchAndAdd(t *testing.T) {
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	set.Add("zip 10001", provenance.MustParse(vb,
		"220·p1·m1 + 240·p1·m3 + 127·f1·m1 + 114·f1·m3 + 76·y1·m1 + 72·y1·m3 + 42·v·m1 + 24·v·m3"))
	set.Add("zip 10002", provenance.MustParse(vb, "100·p1·m1 + 50·f1·m3 + 25·y1·m1"))
	forest, err := abstree.NewForest(abstree.MustParseTree("Year(q1(m1,m3))"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compress(8); err != nil {
		t.Fatal(err)
	}
	scs := []*hypo.Scenario{
		hypo.NewScenario().Set("q1", 0.8),
		hypo.NewScenario(),
		hypo.NewScenario().Set("p1", 1.5).Set("q1", 0.25),
	}
	counts := []*hypo.Scenario{
		hypo.NewScenario().Set("q1", 2),
		hypo.NewScenario(),
		hypo.NewScenario().Set("p1", 3).Set("q1", 0),
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var err error
				if g%2 == 0 {
					_, err = e.WhatIfBatch(scs)
				} else {
					_, err = e.WhatIfBatchIn(semiring.KindCount, counts)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			e.Add(fmt.Sprintf("added %d", i), provenance.MustParse(vb, "2·p1·m1"))
			if i == 4 {
				if _, err := e.Compress(8); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	wg.Wait()
	st := e.Stats()
	if st.Added != 10 {
		t.Errorf("Added = %d, want 10", st.Added)
	}
	if st.DeltaEvals+st.ChainedEvals+st.FullEvals != st.Scenarios {
		t.Errorf("DeltaEvals %d + ChainedEvals %d + FullEvals %d != Scenarios %d",
			st.DeltaEvals, st.ChainedEvals, st.FullEvals, st.Scenarios)
	}
	if cs, ok := st.Semirings["count"]; ok && cs.DeltaEvals+cs.ChainedEvals+cs.FullEvals != cs.Scenarios {
		t.Errorf("count: DeltaEvals %d + ChainedEvals %d + FullEvals %d != Scenarios %d",
			cs.DeltaEvals, cs.ChainedEvals, cs.FullEvals, cs.Scenarios)
	}
	if e.Active().Len() != 12 {
		t.Errorf("active set holds %d polynomials, want 12", e.Active().Len())
	}
}

func TestStreamCancel(t *testing.T) {
	set, _ := fixture(t)
	e, err := Open(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan *hypo.Scenario) // never written: the stream must still exit
	out := e.StreamIn(ctx, semiring.KindFloat, in)
	cancel()
	select {
	case _, ok := <-out:
		if ok {
			t.Fatal("cancelled stream produced a result")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled stream did not close")
	}
}

func TestParseStrategy(t *testing.T) {
	for name, want := range map[string]Strategy{
		"":          StrategyAuto,
		"auto":      StrategyAuto,
		"opt":       StrategyOptimal,
		"optimal":   StrategyOptimal,
		"greedy":    StrategyGreedy,
		"brute":     StrategyBruteForce,
		"ainy":      StrategySummarize,
		"prox":      StrategySummarize,
		"summarize": StrategySummarize,
		"online":    StrategyOnline,
		"sample":    StrategyOnline,
	} {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy(bogus) succeeded, want error")
	}
}

// BenchmarkEngineWhatIfBatch measures the steady-state session: many
// batches against one cached compilation. A per-call compile would dominate
// this benchmark; the test above pins Compiles to 1.
func BenchmarkEngineWhatIfBatch(b *testing.B) {
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	for i := 0; i < 50; i++ {
		set.Add(fmt.Sprintf("g%d", i), provenance.MustParse(vb,
			fmt.Sprintf("3·x%d·m1 + 5·x%d·m2 + 7·x%d·m3", i, i, i)))
	}
	e, err := Open(set, nil, WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	scs := make([]*hypo.Scenario, 32)
	for i := range scs {
		scs[i] = hypo.NewScenario().Set("m1", 0.5+float64(i)/64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.WhatIfBatch(scs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := e.Stats(); st.Compiles != 1 {
		b.Fatalf("benchmark recompiled: Compiles = %d, want 1", st.Compiles)
	}
}

// TestAddWhatIfLoopCompilesOnce is the incremental-compile acceptance pin:
// an Add-heavy interleaving of Add and WhatIf never recompiles — the
// compiled form (and its delta index, exercised by the sparse scenarios) is
// extended in place — and every answer matches a fresh engine over the same
// provenance.
func TestAddWhatIfLoopCompilesOnce(t *testing.T) {
	set, forest := fixture(t)
	vb := set.Vocab
	e, err := Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	scs := []*hypo.Scenario{
		hypo.NewScenario().Set("m1", 0.5), // sparse: builds and uses the delta index
		hypo.NewScenario().Set("p1", 1.5).Set("m3", 0.25),
	}
	for i := 0; i < 16; i++ {
		if _, err := e.WhatIfBatch(scs); err != nil {
			t.Fatal(err)
		}
		e.Add(fmt.Sprintf("added %d", i), provenance.MustParse(vb,
			fmt.Sprintf("%d·p1·m1 + %d·f1·m3", i+1, 2*i+1)))
	}
	rows, err := e.WhatIfBatch(scs)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Compiles != 1 {
		t.Fatalf("Add+WhatIf loop recompiled: Compiles = %d, want 1 (Added %d)", st.Compiles, st.Added)
	}

	// A fresh engine over an identical set must agree bit-for-bit.
	set2, forest2 := fixture(t)
	for i := 0; i < 16; i++ {
		set2.Add(fmt.Sprintf("added %d", i), provenance.MustParse(set2.Vocab,
			fmt.Sprintf("%d·p1·m1 + %d·f1·m3", i+1, 2*i+1)))
	}
	e2, err := Open(set2, forest2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e2.WhatIfBatch(scs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if len(rows[i]) != len(want[i]) {
			t.Fatalf("scenario %d: %d answers, fresh engine %d", i, len(rows[i]), len(want[i]))
		}
		for j := range want[i] {
			if rows[i][j] != want[i][j] {
				t.Fatalf("scenario %d answer %d: incremental %+v != fresh %+v",
					i, j, rows[i][j], want[i][j])
			}
		}
	}
}

// TestStreamChainedCounterSlowConsumer is the stream-attribution satellite:
// a correlated backlog drained into chained micro-batches must count
// ChainedEvals distinctly from identity-baseline DeltaEvals — and keep
// counting correctly while a slow consumer leaves every result parked in
// the output buffer.
func TestStreamChainedCounterSlowConsumer(t *testing.T) {
	set, _ := fixture(t)
	const n = 16
	e, err := Open(set, nil, WithStreamBuffer(n), WithDeltaCutoff(0.99))
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan *hypo.Scenario, n)
	// Identical assignments: every consecutive diff is empty, so everything
	// after the first scenario of a micro-batch chains.
	for i := 0; i < n; i++ {
		in <- hypo.NewScenario().Set("m1", 0.5)
	}
	close(in)
	out := e.StreamIn(context.Background(), semiring.KindFloat, in)
	// The deliberately slow reader consumes nothing until the stream has
	// buffered the whole backlog.
	deadline := time.Now().Add(5 * time.Second)
	for len(out) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d results buffered", len(out), n)
		}
		time.Sleep(time.Millisecond)
	}
	for r := range out {
		if r.Err != nil {
			t.Fatalf("result %d: %v", r.Index, r.Err)
		}
	}
	st := e.Stats()
	if st.ChainedEvals == 0 {
		t.Errorf("identical-scenario stream recorded no ChainedEvals (delta %d, full %d, batches %d)",
			st.DeltaEvals, st.FullEvals, st.StreamBatches)
	}
	if st.DeltaEvals+st.ChainedEvals+st.FullEvals != st.Scenarios {
		t.Errorf("delta %d + chained %d + full %d != scenarios %d",
			st.DeltaEvals, st.ChainedEvals, st.FullEvals, st.Scenarios)
	}
	// The chain hit rate the stats endpoint advertises: chained evals are a
	// strict subset of evaluated scenarios, at least one per micro-batch
	// chains off a predecessor.
	if st.ChainedEvals > st.Scenarios-st.StreamBatches {
		t.Errorf("ChainedEvals %d exceeds %d scenarios minus %d batch heads",
			st.ChainedEvals, st.Scenarios, st.StreamBatches)
	}
}

// chainFixture returns a set shaped so a correlated stream profits from
// chaining: variable a owns the big polynomial, m the small one. A scenario
// assigning both touches every polynomial (identity-baseline delta =
// recompute everything → full eval), but once a is pinned across the stream
// the consecutive diff is just {m}, whose affected set is only the small
// polynomial — so a chained delta is the only way any scenario after the
// first gets cheap.
func chainFixture() *provenance.Set {
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	set.Add("big", provenance.MustParse(vb, "2·a·b + 3·a·c + 4·a·d + 5·a·e + 6·a·f + 7·a·g"))
	set.Add("small", provenance.MustParse(vb, "m + 2·m·n"))
	return set
}

// TestStreamChainsAcrossMicroBatches is the chain-seed regression: with a
// micro-batch cap of 1 every scenario arrives in its own batch, so chaining
// is only possible if the chain state survives the batch boundary. On a
// correlated stream (a pinned, m stepping) every scenario after the first
// must then delta off its predecessor's answers instead of paying an
// identity-baseline delta — which on this set degenerates to a full eval.
func TestStreamChainsAcrossMicroBatches(t *testing.T) {
	e, err := Open(chainFixture(), nil, WithStreamBatch(1), WithWorkers(1), WithDeltaCutoff(0.99))
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	in := make(chan *hypo.Scenario)
	out := e.StreamIn(context.Background(), semiring.KindFloat, in)
	go func() {
		defer close(in)
		for i := 0; i < n; i++ {
			in <- hypo.NewScenario().Set("a", 0.25).Set("m", 0.5+float64(i)/64)
		}
	}()
	count := 0
	for r := range out {
		if r.Err != nil {
			t.Errorf("result %d errored: %v", r.Index, r.Err)
		}
		count++
	}
	if count != n {
		t.Fatalf("stream yielded %d results, want %d", count, n)
	}
	st := e.Stats()
	if st.StreamBatches != n {
		t.Fatalf("StreamBatches = %d, want %d (cap 1 forces one batch per scenario)", st.StreamBatches, n)
	}
	if st.ChainedEvals < n-1 {
		t.Errorf("ChainedEvals = %d, want >= %d (chain must survive micro-batch boundaries)",
			st.ChainedEvals, n-1)
	}
}

// TestStreamInChainsAcrossMicroBatches: every carrier's stream carries its
// own chain state across micro-batches. On the same correlated stream (a
// pinned, m stepping through values valid in the carrier) each carrier
// chains every scenario after the first, the accounting lands in that
// carrier's own counters, and every row equals the one-at-a-time answer.
func TestStreamInChainsAcrossMicroBatches(t *testing.T) {
	const n = 200
	for _, tc := range []struct {
		kind semiring.Kind
		a    float64
		m    func(i int) float64
	}{
		{semiring.KindFloat, 0.25, func(i int) float64 { return 0.5 + float64(i)/64 }},
		{semiring.KindBool, 1, func(i int) float64 { return float64(i % 2) }},
		{semiring.KindCount, 2, func(i int) float64 { return float64(i % 4) }},
		{semiring.KindTropical, 3, func(i int) float64 { return float64(i % 5) }},
		{semiring.KindMinMax, 2, func(i int) float64 { return float64(i % 5) }},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			e, err := Open(chainFixture(), nil, WithStreamBatch(1), WithDeltaCutoff(0.99))
			if err != nil {
				t.Fatal(err)
			}
			scs := make([]*hypo.Scenario, n)
			for i := range scs {
				scs[i] = hypo.NewScenario().Set("a", tc.a).Set("m", tc.m(i))
			}
			in := make(chan *hypo.Scenario)
			out := e.StreamIn(context.Background(), tc.kind, in)
			go func() {
				defer close(in)
				for _, sc := range scs {
					in <- sc
				}
			}()
			var got []hypo.Row
			for r := range out {
				if r.Err != nil {
					t.Fatalf("result %d errored: %v", r.Index, r.Err)
				}
				got = append(got, r.Row)
			}
			if len(got) != n {
				t.Fatalf("stream yielded %d results, want %d", len(got), n)
			}
			st := e.Stats()
			cs := SemiringStats{Scenarios: st.Scenarios, ChainedEvals: st.ChainedEvals}
			if tc.kind != semiring.KindFloat {
				cs = st.Semirings[tc.kind.String()]
				if st.Scenarios != 0 || st.ChainedEvals != 0 {
					t.Errorf("float counters touched by a %s stream: Scenarios=%d ChainedEvals=%d",
						tc.kind, st.Scenarios, st.ChainedEvals)
				}
			}
			if st.StreamBatches != n {
				t.Fatalf("StreamBatches = %d, want %d (cap 1 forces one batch per scenario)", st.StreamBatches, n)
			}
			if cs.Scenarios != n || cs.ChainedEvals < n-1 {
				t.Errorf("%s: %d scenarios, %d chained; want %d and >= %d (the chain must survive micro-batch boundaries)",
					tc.kind, cs.Scenarios, cs.ChainedEvals, n, n-1)
			}
			ref, err := Open(chainFixture(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, sc := range scs {
				want, err := ref.WhatIfRow(tc.kind, sc)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[i].Values, want.Values) {
					t.Fatalf("scenario %d: streamed %v, one at a time %v", i, got[i].Values, want.Values)
				}
			}
		})
	}
}

// TestStatsVariablesConcurrent races Stats on a fresh session, which
// reads the variable marks the set keeps beside its kernel (run it with
// -race -count=10), and checks the count follows an Add that brings a new
// variable and a Compress that replaces the active set.
func TestStatsVariablesConcurrent(t *testing.T) {
	set, forest := fixture(t)
	want := set.Granularity()
	e, err := Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := e.Stats().Variables; got != want {
				t.Errorf("Stats().Variables = %d, want %d", got, want)
			}
		}()
	}
	wg.Wait()

	e.Add("zip 10003", provenance.MustParse(set.Vocab, "9·p1·m1 + 4·newvar"))
	if got := e.Stats().Variables; got != want+1 {
		t.Fatalf("Stats().Variables after an Add with a new variable = %d, want %d", got, want+1)
	}
	comp, err := e.Compress(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Stats().Variables, comp.Abstracted.Granularity(); got != want {
		t.Fatalf("Stats().Variables after Compress = %d, want the abstracted set's %d", got, want)
	}
	e.Add("zip 10004", provenance.MustParse(set.Vocab, "2·m1 + 3·other"))
	if got, want := e.Stats().Variables, e.Active().Granularity(); got != want {
		t.Fatalf("Stats().Variables after a post-Compress Add = %d, want %d", got, want)
	}
}

// TestCarrierStatsSurviveDrops: a carrier's accounting outlives its
// kernel. Compress drops every non-float kernel, and so does a mirror the
// carrier declines; their scenario counts carry on in Stats.Semirings, and
// the next use compiles the kernel again.
func TestCarrierStatsSurviveDrops(t *testing.T) {
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	set.Add("a", provenance.MustParse(vb, "2·p1·m1 + 3·p1·m3 + f1·m1"))
	set.Add("b", provenance.MustParse(vb, "p1·m3 + 4·f1·m1"))
	e, err := Open(set, abstree.MustForest(abstree.MustParseTree("Year(q1(m1,m3))")))
	if err != nil {
		t.Fatal(err)
	}
	scenario := []*hypo.Scenario{hypo.NewScenario().Set("p1", 2)}
	count := func(want int64) {
		t.Helper()
		if got := e.Stats().Semirings["count"].Scenarios; got != want {
			t.Errorf("count carrier reports %d scenarios, want %d", got, want)
		}
	}
	for range 5 {
		if _, err := e.WhatIfBatchIn(semiring.KindCount, scenario); err != nil {
			t.Fatal(err)
		}
	}
	count(5)
	if _, err := e.Compress(4); err != nil {
		t.Fatal(err)
	}
	count(5)
	rows, err := e.WhatIfBatchIn(semiring.KindCount, scenario)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0][0].Value; got != int64(11) {
		t.Errorf("counting answer after Compress %v, want 5·2 + 1 = 11", got)
	}
	count(6)
	e.Add("c", provenance.MustParse(vb, "0.5·p1")) // no natural multiplicity: the mirror declines
	count(6)
	if _, err := e.WhatIfBatchIn(semiring.KindCount, scenario); err == nil {
		t.Error("a counting what-if over a fractional coefficient succeeded")
	}
	count(6)
}
