package hypo

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/provenance"
)

// randomScenarios builds n scenarios over the set's variable names, each
// assigning a random subset.
func randomScenarios(s *provenance.Set, n int, seed int64) []*Scenario {
	rng := rand.New(rand.NewSource(seed))
	var names []string
	for _, v := range s.Vars() {
		names = append(names, s.Vocab.Name(v))
	}
	out := make([]*Scenario, n)
	for i := range out {
		sc := NewScenario()
		for _, name := range names {
			if rng.Intn(2) == 0 {
				sc.Set(name, float64(rng.Intn(16))/8)
			}
		}
		out[i] = sc
	}
	return out
}

// bigSet builds a set large enough that parallel evaluation is exercised
// meaningfully (and by `go test -race`, which is part of the CI check).
func bigSet(t testing.TB) *provenance.Set {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	vb := provenance.NewVocab()
	var vars []provenance.Var
	for i := 0; i < 64; i++ {
		vars = append(vars, vb.Var("w"+itoa(i)))
	}
	s := provenance.NewSet(vb)
	for i := 0; i < 50; i++ {
		p := provenance.NewPolynomial()
		for j := 0; j < 20; j++ {
			p.AddTerm(float64(rng.Intn(9)+1),
				vars[rng.Intn(len(vars))], vars[rng.Intn(len(vars))])
		}
		s.Add("g"+itoa(i), p)
	}
	return s
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[n:])
}

// TestEvalBatchMatchesSequential: the parallel batch result must equal
// per-scenario sequential evaluation, in scenario order.
func TestEvalBatchMatchesSequential(t *testing.T) {
	s := bigSet(t)
	c := s.Compile()
	scenarios := randomScenarios(s, 37, 3)
	got, err := EvalBatch(c, scenarios, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(scenarios) {
		t.Fatalf("rows = %d, want %d", len(got), len(scenarios))
	}
	for i, sc := range scenarios {
		want, err := sc.Eval(s)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Abs(got[i][j]-want[j]) > 1e-9*(1+math.Abs(want[j])) {
				t.Errorf("scenario %d poly %d: batch %v, sequential %v", i, j, got[i][j], want[j])
			}
		}
	}
	// Worker counts beyond the scenario count and explicit single-worker
	// runs agree too.
	for _, workers := range []int{1, 2, 128} {
		again, err := EvalBatch(c, scenarios, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			for j := range got[i] {
				if got[i][j] != again[i][j] {
					t.Fatalf("workers=%d scenario %d poly %d: %v != %v",
						workers, i, j, again[i][j], got[i][j])
				}
			}
		}
	}
}

// TestEvalBatchValuationReset: a worker's valuation must be restored to the
// identity between scenarios — a scenario must not leak its assignments
// into the next one evaluated by the same worker.
func TestEvalBatchValuationReset(t *testing.T) {
	vb := provenance.NewVocab()
	s := provenance.NewSet(vb)
	s.Add("", provenance.MustParse(vb, "10·a + 100·b"))
	c := s.Compile()
	// Sequential single worker: scenario 0 sets both vars, scenario 1 sets
	// nothing, so any leakage shows up in scenario 1's answer.
	rows, err := EvalBatch(c, []*Scenario{
		NewScenario().Set("a", 0).Set("b", 0),
		NewScenario(),
	}, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != 0 {
		t.Errorf("scenario 0 = %v, want 0", rows[0][0])
	}
	if rows[1][0] != 110 {
		t.Errorf("scenario 1 = %v, want 110 (valuation leaked)", rows[1][0])
	}
}

// TestEvalBatchUnknownVariable: name typos fail up front, before any
// evaluation.
func TestEvalBatchUnknownVariable(t *testing.T) {
	s := bigSet(t)
	c := s.Compile()
	scenarios := []*Scenario{NewScenario().Set("w0", 2), NewScenario().Set("nope", 2)}
	if _, err := EvalBatch(c, scenarios, BatchOptions{}); err == nil {
		t.Error("unknown variable accepted")
	}
}

// TestEvalPolyEachMatchesBatch: the key-only evaluator answers each
// scenario's chosen polynomial bit-identically to the full batch, isolates
// scenarios that fail to resolve at their own slot, leaves no assignment
// behind in its valuation between scenarios, and counts every evaluated
// scenario as a RankedEvals.
func TestEvalPolyEachMatchesBatch(t *testing.T) {
	s := bigSet(t)
	c := s.Compile()
	scenarios := randomScenarios(s, 40, 3)
	scenarios[7] = NewScenario().Set("w1", 2).Set("nope", 1)
	rows, errs := EvalBatchEach(c, scenarios, BatchOptions{Workers: 1})
	var counters BatchCounters
	for _, poly := range []int{0, 17, c.Len() - 1} {
		keys, keyErrs := EvalPolyEach(c, poly, scenarios, &counters)
		for i := range scenarios {
			if (keyErrs[i] == nil) != (errs[i] == nil) {
				t.Fatalf("poly %d scenario %d: key error %v, batch error %v", poly, i, keyErrs[i], errs[i])
			}
			if errs[i] != nil {
				if _, ok := keyErrs[i].(*UnknownVarsError); !ok {
					t.Fatalf("scenario %d: error %T, want *UnknownVarsError", i, keyErrs[i])
				}
				continue
			}
			if math.Float64bits(keys[i]) != math.Float64bits(rows[i][poly]) {
				t.Fatalf("poly %d scenario %d: key %v, batch answer %v", poly, i, keys[i], rows[i][poly])
			}
		}
	}
	if got, want := counters.RankedEvals.Load(), int64(3*(len(scenarios)-1)); got != want {
		t.Errorf("RankedEvals = %d, want %d", got, want)
	}
}

// TestResolveReportsAllUnknowns: every unresolved name is reported at once,
// with the scenario's index — including index 0 of a single-scenario call.
func TestResolveReportsAllUnknowns(t *testing.T) {
	s := bigSet(t)
	c := s.Compile()
	bad := NewScenario().Set("w0", 2).Set("zzz", 1).Set("aaa", 3)
	_, err := EvalBatch(c, []*Scenario{NewScenario().Set("w1", 1), bad}, BatchOptions{})
	if err == nil {
		t.Fatal("unknown variables accepted")
	}
	for _, want := range []string{"scenario 1", `"aaa"`, `"zzz"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	_, err = EvalBatch(c, []*Scenario{bad}, BatchOptions{})
	if err == nil || !strings.Contains(err.Error(), "scenario 0") {
		t.Errorf("single-scenario error %q does not carry index 0", err)
	}
	if got := bad.UnknownVars(s.Vocab); len(got) != 2 || got[0] != "aaa" || got[1] != "zzz" {
		t.Errorf("UnknownVars = %v, want [aaa zzz]", got)
	}
	if got := bad.UnknownVars(s.Vocab); got == nil {
		t.Error("UnknownVars lost the unknowns on a second call")
	}
}

// TestEvalBatchDeltaRouting: sparse scenarios ride the delta path, dense
// ones (and a disabled cutoff) fall back to full evaluation, and both paths
// return bit-identical rows.
func TestEvalBatchDeltaRouting(t *testing.T) {
	s := bigSet(t)
	c := s.Compile()
	sparse := make([]*Scenario, 8)
	for i := range sparse {
		sparse[i] = NewScenario().Set("w"+itoa(i), 0.5)
	}
	dense := randomScenarios(s, 8, 21) // each assigns about half of all vars

	run := func(scs []*Scenario, opts BatchOptions) ([][]float64, *BatchCounters) {
		t.Helper()
		counters := &BatchCounters{}
		opts.Counters = counters
		rows, err := EvalBatch(c, scs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return rows, counters
	}

	// bigSet's variables each occur in many polynomials, so pin the cutoff
	// high enough that a one-variable scenario always qualifies as sparse.
	rows, counters := run(sparse, BatchOptions{Workers: 1, DeltaCutoff: 0.99})
	if got := counters.DeltaEvals.Load(); got != int64(len(sparse)) {
		t.Errorf("sparse batch: DeltaEvals = %d, want %d (FullEvals %d)",
			got, len(sparse), counters.FullEvals.Load())
	}
	full, counters2 := run(sparse, BatchOptions{Workers: 1, DeltaCutoff: -1})
	if got := counters2.FullEvals.Load(); got != int64(len(sparse)) {
		t.Errorf("disabled cutoff: FullEvals = %d, want %d", got, len(sparse))
	}
	for i := range rows {
		for j := range rows[i] {
			if rows[i][j] != full[i][j] {
				t.Fatalf("scenario %d poly %d: delta %v != full %v", i, j, rows[i][j], full[i][j])
			}
		}
	}
	// Every variable of bigSet occurs in many polynomials, so a scenario
	// assigning about half of them affects (nearly) every polynomial.
	_, counters3 := run(dense, BatchOptions{Workers: 1})
	if counters3.FullEvals.Load() == 0 {
		t.Errorf("dense batch never took the full path (delta %d, full %d)",
			counters3.DeltaEvals.Load(), counters3.FullEvals.Load())
	}
}

// TestEvalBatchSharded: with fewer scenarios than workers on a large set,
// evaluation is sharded across the pool and stays bit-identical to the
// sequential result.
func TestEvalBatchSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vb := provenance.NewVocab()
	var vars []provenance.Var
	for i := 0; i < 96; i++ {
		vars = append(vars, vb.Var("w"+itoa(i)))
	}
	s := provenance.NewSet(vb)
	for i := 0; i < 8; i++ {
		p := provenance.NewPolynomial()
		for j := 0; j < 400; j++ {
			p.AddTerm(float64(rng.Intn(9)+1),
				vars[rng.Intn(len(vars))], vars[rng.Intn(len(vars))])
		}
		s.Add("g"+itoa(i), p)
	}
	c := s.Compile()
	scenarios := randomScenarios(s, 2, 13)
	counters := &BatchCounters{}
	got, err := EvalBatch(c, scenarios, BatchOptions{Workers: 4, Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	if counters.ShardedEvals.Load() == 0 {
		t.Errorf("no sharded evals with 2 scenarios on 4 workers over %d terms", c.Size())
	}
	want, err := EvalBatch(c, scenarios, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("scenario %d poly %d: sharded %v != sequential %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestEvalBatchEmpty: zero scenarios is a valid (empty) batch.
func TestEvalBatchEmpty(t *testing.T) {
	c := bigSet(t).Compile()
	rows, err := EvalBatch(c, nil, BatchOptions{})
	if err != nil || len(rows) != 0 {
		t.Errorf("empty batch = %v, %v", rows, err)
	}
}

// TestProjectUniformRoundTrip covers the Project/UniformOn/IsUniformOn
// round trips on a non-uniform scenario: projecting to meta-variables and
// lifting back yields a scenario that is uniform on the groups, projects to
// itself, and averages the original assignments.
func TestProjectUniformRoundTrip(t *testing.T) {
	vb := provenance.NewVocab()
	s := provenance.NewSet(vb)
	s.Add("", provenance.MustParse(vb, "2·m1 + 3·m3 + 5·x"))
	f := abstree.MustForest(abstree.MustParseTree("Year(q1(m1,m3))"))
	v := abstree.MustFromLabels(f, "q1")

	// Non-uniform on the m1/m3 group, plus an out-of-forest variable.
	sc := NewScenario().Set("m1", 0.4).Set("m3", 1.2).Set("x", 2)
	if ok, why := sc.IsUniformOn(v); ok || why == "" {
		t.Fatalf("non-uniform scenario reported uniform (why=%q)", why)
	}

	proj := sc.Project(v)
	if got := proj.Assign["q1"]; math.Abs(got-0.8) > 1e-12 {
		t.Errorf("projected q1 = %v, want mean 0.8", got)
	}
	if got := proj.Assign["x"]; got != 2 {
		t.Errorf("out-of-forest x = %v, want 2 (pass-through)", got)
	}

	// Lifting the projection back to leaves is uniform by construction…
	lifted := proj.UniformOn(v)
	if ok, why := lifted.IsUniformOn(v); !ok {
		t.Errorf("lifted projection not uniform: %s", why)
	}
	if lifted.Assign["m1"] != 0.8 || lifted.Assign["m3"] != 0.8 {
		t.Errorf("lifted = %v, want m1=m3=0.8", lifted.Assign)
	}
	if lifted.Assign["x"] != 2 {
		t.Errorf("lifted x = %v, want 2", lifted.Assign["x"])
	}

	// …and projecting again is a fixed point.
	again := lifted.Project(v)
	if math.Abs(again.Assign["q1"]-0.8) > 1e-12 || again.Assign["x"] != 2 {
		t.Errorf("project∘lift not a fixed point: %v", again.Assign)
	}

	// A uniform scenario survives the full round trip exactly: lift(project)
	// reproduces the original leaf assignments.
	uni := NewScenario().SetAll(0.7, "m1", "m3").Set("x", 3)
	if ok, _ := uni.IsUniformOn(v); !ok {
		t.Fatal("uniform scenario reported non-uniform")
	}
	round := uni.Project(v).UniformOn(v)
	for name, want := range uni.Assign {
		if got := round.Assign[name]; math.Abs(got-want) > 1e-12 {
			t.Errorf("round trip %s = %v, want %v", name, got, want)
		}
	}
}

// TestMaxRelErrorTable is the table-driven satellite: per-component max with
// the denom<1 floor.
func TestMaxRelErrorTable(t *testing.T) {
	cases := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"empty", nil, nil, 0},
		{"equal", []float64{3, 4}, []float64{3, 4}, 0},
		{"relative", []float64{11}, []float64{10}, 0.1},
		{"per-component-max", []float64{11, 30}, []float64{10, 20}, 0.5},
		// |b|=0.5 < 1 floors the divisor at 1: error is |0.7-0.5|/1, not /0.5.
		{"floor-small-denom", []float64{0.7}, []float64{0.5}, 0.2},
		{"floor-zero-denom", []float64{0.25}, []float64{0}, 0.25},
		// Exactly at the floor boundary |b|=1 the true denominator is used.
		{"denom-at-one", []float64{1.5}, []float64{-1}, 2.5},
		{"negative-values", []float64{-12}, []float64{-10}, 0.2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := MaxRelError(tc.a, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("MaxRelError(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
	if _, err := MaxRelError([]float64{1}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestSpeedupBranches pins the Speedup contract: a fraction in [0, 1), with
// the zero-tOrig and negative-savings branches clamped to 0.
func TestSpeedupBranches(t *testing.T) {
	cases := []struct {
		name        string
		tOrig, tAbs time.Duration
		want        float64
	}{
		{"faster", 100, 25, 0.75},
		{"equal", 100, 100, 0},
		{"zero-orig", 0, 50, 0},
		{"negative-orig", -5, 50, 0},
		{"slower-clamps", 10, 1000, 0},
		{"free", 100, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Speedup(tc.tOrig, tc.tAbs)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Speedup(%v, %v) = %v, want %v", tc.tOrig, tc.tAbs, got, tc.want)
			}
		})
	}
}

// correlatedScenarios builds a random-walk stream: every scenario assigns
// the same small variable set, each differing from its predecessor in one
// value — the correlated shape Engine.StreamIn's chained micro-batches target.
func correlatedScenarios(s *provenance.Set, n, width int, seed int64) []*Scenario {
	rng := rand.New(rand.NewSource(seed))
	var names []string
	for _, v := range s.Vars() {
		names = append(names, s.Vocab.Name(v))
	}
	if width > len(names) {
		width = len(names)
	}
	cur := map[string]float64{}
	for _, name := range names[:width] {
		cur[name] = 0.5 + rng.Float64()
	}
	out := make([]*Scenario, n)
	for i := range out {
		name := names[rng.Intn(width)]
		cur[name] = 0.5 + rng.Float64()
		sc := NewScenario()
		for k, v := range cur {
			sc.Set(k, v)
		}
		out[i] = sc
	}
	return out
}

// TestChainedBatchEquivalence: a chained batch (overlap-ordered, each
// scenario delta-evaluated against its predecessor) must be bit-identical
// to the plain batch, across worker counts and scenario shapes.
func TestChainedBatchEquivalence(t *testing.T) {
	s := bigSet(t)
	c := s.Compile()
	for _, tc := range []struct {
		name string
		scs  []*Scenario
	}{
		{"correlated", correlatedScenarios(s, 24, 4, 7)},
		{"random", randomScenarios(s, 24, 8)},
		{"identical", func() []*Scenario {
			scs := make([]*Scenario, 10)
			for i := range scs {
				scs[i] = NewScenario().Set("w1", 0.25)
			}
			return scs
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := EvalBatch(c, tc.scs, BatchOptions{Workers: 1, DeltaCutoff: -1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				counters := &BatchCounters{}
				got, err := EvalBatch(c, tc.scs, BatchOptions{
					Workers: workers, DeltaCutoff: 0.99, Chain: true, Counters: counters})
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							t.Fatalf("workers=%d scenario %d poly %d: chained %v != full %v",
								workers, i, j, got[i][j], want[i][j])
						}
					}
				}
				total := counters.DeltaEvals.Load() + counters.ChainedEvals.Load() + counters.FullEvals.Load()
				if total != int64(len(tc.scs)) {
					t.Fatalf("workers=%d: delta %d + chained %d + full %d != %d scenarios",
						workers, counters.DeltaEvals.Load(), counters.ChainedEvals.Load(),
						counters.FullEvals.Load(), len(tc.scs))
				}
			}
		})
	}
}

// TestChainedBatchCountsChains: on a correlated stream the chained counter
// must actually fire (satellite: chain attribution is distinct from the
// identity-baseline delta count).
func TestChainedBatchCountsChains(t *testing.T) {
	s := bigSet(t)
	c := s.Compile()
	scs := correlatedScenarios(s, 32, 4, 3)
	counters := &BatchCounters{}
	if _, err := EvalBatch(c, scs, BatchOptions{
		Workers: 1, DeltaCutoff: 0.99, Chain: true, Counters: counters}); err != nil {
		t.Fatal(err)
	}
	if counters.ChainedEvals.Load() == 0 {
		t.Errorf("correlated chained batch recorded no ChainedEvals (delta %d, full %d)",
			counters.DeltaEvals.Load(), counters.FullEvals.Load())
	}
}

// TestAdaptiveCutoffLearns: with DeltaCutoff 0 and counters, enough routed
// scenarios must populate both EWMAs (probing guarantees the minority path
// gets samples) and produce a positive learned cutoff; results stay
// bit-identical to the static paths throughout.
func TestAdaptiveCutoffLearns(t *testing.T) {
	s := bigSet(t)
	c := s.Compile()
	sparse := make([]*Scenario, 0, 2*probeInterval+8)
	for i := 0; i < cap(sparse); i++ {
		sparse = append(sparse, NewScenario().Set("w"+itoa(i%8), 0.5))
	}
	counters := &BatchCounters{}
	rows, err := EvalBatch(c, sparse, BatchOptions{Workers: 1, Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	want, err := EvalBatch(c, sparse, BatchOptions{Workers: 1, DeltaCutoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if rows[i][j] != want[i][j] {
				t.Fatalf("scenario %d poly %d: adaptive %v != full %v", i, j, rows[i][j], want[i][j])
			}
		}
	}
	if got := counters.DeltaNsPerTerm(); got <= 0 {
		t.Errorf("DeltaNsPerTerm = %v after %d scenarios, want > 0", got, len(sparse))
	}
	if got := counters.FullNsPerTerm(); got <= 0 {
		t.Errorf("FullNsPerTerm = %v, want > 0 (probing should sample the full path)", got)
	}
	if got := counters.AdaptiveCutoff(); got <= 0 {
		t.Errorf("AdaptiveCutoff = %v, want > 0 once both paths are observed", got)
	}
	if d, f := counters.DeltaEvals.Load(), counters.FullEvals.Load(); d == 0 || f == 0 || d+f != int64(len(sparse)) {
		t.Errorf("delta %d + full %d != %d, want both paths exercised", d, f, len(sparse))
	}
}

// TestIsChainMatchesSearch: when isChain accepts a batch, chainOrder's
// search returns arrival order itself, so skipping it changes no
// evaluation. The batches are walks over four variables, each scenario
// changing up to two of them from the one before, with values that
// include the identity (an assignment of One equals no assignment) and
// repeat, so both the skip and the search are taken.
func TestIsChainMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := []float64{1, 0.5, 2, 0, 3}
	accepted, rejected := 0, 0
	for range 3000 {
		n := 2 + rng.Intn(14)
		cur := [4]float64{1, 1, 1, 1}
		resolved := make([]resolvedScenario[float64], n)
		for i := range resolved {
			for range rng.Intn(3) {
				cur[rng.Intn(4)] = values[rng.Intn(len(values))]
			}
			for v, x := range cur {
				if x != 1 || rng.Intn(2) == 0 { // an identity assignment, or none
					resolved[i].vars = append(resolved[i].vars, provenance.Var(v+1))
					resolved[i].vals = append(resolved[i].vals, x)
				}
			}
		}
		arrival := make([]int, n)
		for i := range arrival {
			arrival[i] = i
		}
		if !isChain(provenance.Float{}, resolved) {
			rejected++
			continue
		}
		accepted++
		if got := chainSearch(provenance.Float{}, resolved, make([]int, n)); !slices.Equal(got, arrival) {
			t.Fatalf("isChain accepted a batch whose search order is %v", got)
		}
	}
	if accepted < 100 || rejected < 100 {
		t.Fatalf("isChain accepted %d batches and rejected %d; the walks should give both", accepted, rejected)
	}
}
