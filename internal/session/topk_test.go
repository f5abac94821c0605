package session

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/provenance"
	"provabs/internal/telco"
)

// rankFixture has natural coefficients, so it compiles under counting as
// well as float. With c unassigned (one), "spread" is 10a + b: a distinct
// key at each of the 49 points of a 7×7 integer grid. "ties" repeats its
// values, so the tie-break by generation index decides.
func rankFixture() *provenance.Set {
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	set.Add("spread", provenance.MustParse(vb, "7·a + b + 3·a·c"))
	set.Add("ties", provenance.MustParse(vb, "a + b + c"))
	return set
}

// squareFixture is rankFixture plus "curve", a key polynomial with a
// squared variable: 7a² + b is distinct at each of the 49 grid points. One
// exponent above 1 sends the whole float kernel down its general loop.
func squareFixture() *provenance.Set {
	set := rankFixture()
	set.Add("curve", provenance.MustParse(set.Vocab, "7·a^2 + b"))
	return set
}

// bruteTopK ranks a statement's scenarios the slow way: every scenario of
// the plan answered one at a time through WhatIfIn, sorted stably by key
// (so ties keep generation order), the first k kept. It also returns the
// scenarios that failed, in generation order, and how many distinct keys
// the sweep produced.
func bruteTopK(t *testing.T, e *Engine, src string) (ranked, failed []QueryRow, distinct int) {
	t.Helper()
	p, _, err := e.compileQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	type candidate struct {
		key float64
		row QueryRow
	}
	var all []candidate
	keys := map[float64]bool{}
	it := p.Iter()
	for i := int64(0); ; i++ {
		sc, ok := it.Next()
		if !ok {
			break
		}
		ans, err := e.WhatIfIn(p.Kind, sc)
		if err != nil {
			failed = append(failed, QueryRow{Index: i, Assign: sc.Assign, Err: err})
			continue
		}
		var key float64
		switch v := ans[p.Order.Index].Value.(type) {
		case float64:
			key = v
		case int64:
			key = float64(v)
		case bool:
			if v {
				key = 1
			}
		default:
			t.Fatalf("%s: answer value %T", src, v)
		}
		keys[key] = true
		all = append(all, candidate{key, QueryRow{Index: i, Assign: sc.Assign, Answers: ans}})
	}
	sort.SliceStable(all, func(i, j int) bool {
		if p.Order.Desc {
			return all[i].key > all[j].key
		}
		return all[i].key < all[j].key
	})
	for _, c := range all[:min(p.Order.K, len(all))] {
		ranked = append(ranked, c.row)
	}
	return ranked, failed, len(keys)
}

// sameFailures checks that rows are exactly the in-band failures want, in
// order.
func sameFailures(got, want []QueryRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d failed rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || got[i].Err == nil || got[i].Answers != nil {
			return fmt.Errorf("failed row %d is scenario %d (err %v), want %d failed", i, got[i].Index, got[i].Err, want[i].Index)
		}
	}
	return nil
}

func sameRows(got, want []QueryRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Err != nil {
			return fmt.Errorf("rank %d: %v", i, g.Err)
		}
		if g.Index != w.Index || !maps.Equal(g.Assign, w.Assign) {
			return fmt.Errorf("rank %d is scenario %d %v, want %d %v", i, g.Index, g.Assign, w.Index, w.Assign)
		}
		if len(g.Answers) != len(w.Answers) {
			return fmt.Errorf("rank %d has %d answers, want %d", i, len(g.Answers), len(w.Answers))
		}
		for j := range w.Answers {
			if g.Answers[j] != w.Answers[j] {
				return fmt.Errorf("rank %d answer %d = %+v, want %+v", i, j, g.Answers[j], w.Answers[j])
			}
		}
	}
	return nil
}

// TestQueryTopKMatchesOneAtATime is the ORDER BY ranking regression: k = 10
// over at least 40 distinct keys, DESC and ASC, float and counting, must
// come back through Query and QueryStream in exactly the order a
// brute-force ranking of one-at-a-time WhatIfIn answers gives, with every
// answer bit-identical. It also covers a LIMIT past the scenario count
// (every scenario wins), LIMIT 1, bool, a SET clause, scenarios failing
// in-band (streamed first, in generation order, and counted by Query) and
// a squared key variable on the general float loop.
func TestQueryTopKMatchesOneAtATime(t *testing.T) {
	open := func(set *provenance.Set) *Engine {
		e, err := Open(set, nil, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	lin, sq := open(rankFixture()), open(squareFixture())
	const grid = "a IN [0:6:1] b IN [0:6:1]"
	cases := []struct {
		e    *Engine
		src  string
		ties bool // the key repeats: fewer than 40 distinct values
	}{
		{lin, grid + " ORDER BY ans[0] DESC LIMIT 10", false},
		{lin, grid + " ORDER BY ans[0] ASC LIMIT 10", false},
		{lin, "SAMPLE 48 a, b, c IN [0:2] SEED 5 ORDER BY ans['spread'] DESC LIMIT 10", false},
		{lin, "SAMPLE 48 a, b, c IN [0:2] SEED 9 ORDER BY ans['spread'] ASC LIMIT 10", false},
		{lin, grid + " ORDER BY ans[1] DESC LIMIT 10", true},
		{lin, grid + " USING count ORDER BY ans[0] DESC LIMIT 10", false},
		{lin, grid + " USING count ORDER BY ans[0] ASC LIMIT 10", false},
		{lin, grid + " USING count ORDER BY ans['ties'] ASC LIMIT 10", true},
		{lin, grid + " ORDER BY ans[0] DESC LIMIT 60", false},
		{lin, grid + " USING count ORDER BY ans[0] ASC LIMIT 60", false},
		{lin, grid + " ORDER BY ans[0] DESC LIMIT 1", false},
		{lin, grid + " ORDER BY ans[1] ASC LIMIT 1", true},
		{lin, "a IN [0:1:1] b IN [0:1:1] c IN [0:1:1] USING bool ORDER BY ans[0] DESC LIMIT 3", true},
		{lin, "a IN [0:1:1] b IN [0:1:1] c IN [0:1:1] USING bool ORDER BY ans['ties'] ASC LIMIT 5", true},
		{lin, "SET c = 2 " + grid + " ORDER BY ans['spread'] DESC LIMIT 10", false},
		{lin, "SET c = 2 " + grid + " USING count ORDER BY ans['spread'] ASC LIMIT 10", false},
		{lin, "a IN [0:6:0.5] b IN [0:6:1] USING count ORDER BY ans[0] DESC LIMIT 10", false},
		{sq, grid + " ORDER BY ans['curve'] DESC LIMIT 10", false},
		{sq, grid + " ORDER BY ans['curve'] ASC LIMIT 10", false},
		{sq, "SAMPLE 48 a, b IN [0:3] SEED 4 ORDER BY ans['curve'] DESC LIMIT 10", false},
	}
	for _, tc := range cases {
		want, failed, distinct := bruteTopK(t, tc.e, tc.src)
		if !tc.ties && distinct < 40 {
			t.Fatalf("%s: only %d distinct keys, the fixture must give at least 40", tc.src, distinct)
		}
		res, err := tc.e.Query(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRows(res.Rows, want); err != nil {
			t.Errorf("Query %s: %v", tc.src, err)
		}
		if res.Errors != int64(len(failed)) {
			t.Errorf("Query %s: %d errors, want %d", tc.src, res.Errors, len(failed))
		}
		info, rows, err := tc.e.QueryStream(context.Background(), tc.src)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []QueryRow
		for row := range rows {
			row.Answers = row.Row.Erase() // the erased view Query builds
			streamed = append(streamed, row)
		}
		if err := info.Err(); err != nil {
			t.Errorf("QueryStream %s: %v", tc.src, err)
		}
		n := min(len(failed), len(streamed))
		if err := sameFailures(streamed[:n], failed); err != nil {
			t.Errorf("QueryStream %s: %v", tc.src, err)
		}
		if err := sameRows(streamed[n:], want); err != nil {
			t.Errorf("QueryStream %s: %v", tc.src, err)
		}
	}
}

// TestRankedStatsAccounting pins a ranked statement's evaluation
// accounting: each scenario that resolves is counted once as a key-only
// (ranked) evaluation, and each winner once more on a full path, so
// delta + chained + full + ranked == scenarios_evaluated still holds —
// at the top level for float, per carrier for count, after Query and
// after QueryStream alike — and Accumulate sums the new counter.
func TestRankedStatsAccounting(t *testing.T) {
	// 13×7 points; under counting the 42 with a fractional a fail in-band.
	const sweep = "a IN [0:6:0.5] b IN [0:6:1]"
	for _, tc := range []struct {
		using   string
		resolve int64
	}{{"", 91}, {" USING count", 49}} {
		e, err := Open(rankFixture(), nil)
		if err != nil {
			t.Fatal(err)
		}
		src := sweep + tc.using + " ORDER BY ans[0] DESC LIMIT 10"
		counters := func() SemiringStats {
			st := e.Stats()
			if tc.using != "" {
				return st.Semirings["count"]
			}
			return SemiringStats{Scenarios: st.Scenarios, DeltaEvals: st.DeltaEvals, ChainedEvals: st.ChainedEvals,
				FullEvals: st.FullEvals, RankedEvals: st.RankedEvals}
		}
		for run := int64(1); run <= 2; run++ {
			if run == 1 {
				if _, err := e.Query(src); err != nil {
					t.Fatal(err)
				}
			} else {
				info, rows, err := e.QueryStream(context.Background(), src)
				if err != nil {
					t.Fatal(err)
				}
				for range rows {
				}
				if err := info.Err(); err != nil {
					t.Fatal(err)
				}
			}
			c := counters()
			if c.RankedEvals != run*tc.resolve || c.DeltaEvals+c.ChainedEvals+c.FullEvals != run*10 {
				t.Errorf("%s run %d: %d ranked and %d full-path evaluations, want %d and %d",
					src, run, c.RankedEvals, c.DeltaEvals+c.ChainedEvals+c.FullEvals, run*tc.resolve, run*10)
			}
			if sum := c.DeltaEvals + c.ChainedEvals + c.FullEvals + c.RankedEvals; sum != c.Scenarios {
				t.Errorf("%s run %d: delta+chained+full+ranked = %d, scenarios_evaluated = %d", src, run, sum, c.Scenarios)
			}
		}
		st := e.Stats()
		var sum Stats
		sum.Accumulate(st)
		sum.Accumulate(st)
		if sum.RankedEvals != 2*st.RankedEvals || sum.Semirings["count"].RankedEvals != 2*st.Semirings["count"].RankedEvals {
			t.Errorf("%s: Accumulate summed ranked_evals to %d (count %d), want twice %d (count %d)", src,
				sum.RankedEvals, sum.Semirings["count"].RankedEvals, st.RankedEvals, st.Semirings["count"].RankedEvals)
		}
	}
}

// TestConcurrentQueryAndAdd runs ranked and unordered sweeps in two
// carriers while Add grows the set. Rows are tagged outside the engine
// lock, so under -race this guards that path; every row's tags must also
// be a prefix of the set's tags at the end.
func TestConcurrentQueryAndAdd(t *testing.T) {
	set := rankFixture()
	polys := make([]*provenance.Polynomial, 20)
	tags := slices.Clone(set.Tags)
	for i := range polys {
		polys[i] = provenance.MustParse(set.Vocab, fmt.Sprintf("%d·a + b", i+1))
		tags = append(tags, fmt.Sprintf("added %d", i))
	}
	e, err := Open(set, nil, WithStreamBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, src := range []string{
		"a IN [0:6:1] b IN [0:6:1] ORDER BY ans[0] DESC LIMIT 10",
		"a IN [0:6:1] b IN [0:6:1] USING count ORDER BY ans[1] ASC LIMIT 10",
		"a IN [0:6:1] b IN [0:6:1] USING count",
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 10 {
				res, err := e.Query(src)
				if err != nil {
					t.Error(err)
					return
				}
				for _, row := range res.Rows {
					for j, a := range row.Answers {
						if a.Tag != tags[j] {
							t.Errorf("%s: row %d answer %d tagged %q, want %q", src, row.Index, j, a.Tag, tags[j])
							return
						}
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, p := range polys {
			e.Add(fmt.Sprintf("added %d", i), p)
		}
	}()
	wg.Wait()
}

// rankForest abstracts rankFixture's a and b into g: Compress(6) keeps
// the leaves, Compress(4) abstracts them, and ranked answers differ.
func rankForest(t *testing.T) *abstree.Forest {
	t.Helper()
	forest, err := abstree.NewForest(abstree.MustParseTree("g(a,b)"))
	if err != nil {
		t.Fatal(err)
	}
	return forest
}

// TestRankedQueryDuringCompress runs ranked statements through Query and
// QueryStream while Compress keeps replacing the active set. A statement
// ranks its keys and evaluates its winners in separate micro-batches, so
// each one must either answer wholly on one set — exactly what an engine
// compressed once to that bound answers — or fail with
// ErrActiveSetReplaced; it must never rank on one set and answer on the
// other. Run it under -race.
func TestRankedQueryDuringCompress(t *testing.T) {
	bounds := []int{6, 4}
	srcs := []string{
		"a IN [0:6:1] b IN [0:6:1] ORDER BY ans[0] DESC LIMIT 5",
		"a IN [0:6:1] b IN [0:6:1] USING count ORDER BY ans['spread'] DESC LIMIT 5",
	}
	// want[src][i] is the statement's result on an engine compressed once
	// to bounds[i]; the two differ, so a mixed row cannot match either.
	want := map[string][][]QueryRow{}
	for _, B := range bounds {
		ref, err := Open(rankFixture(), rankForest(t))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Compress(B); err != nil {
			t.Fatal(err)
		}
		for _, src := range srcs {
			res, err := ref.Query(src)
			if err != nil {
				t.Fatal(err)
			}
			want[src] = append(want[src], res.Rows)
		}
	}
	for _, src := range srcs {
		if sameRows(want[src][0], want[src][1]) == nil {
			t.Fatalf("%s: both bounds answer alike; the test could not see a mixed statement", src)
		}
	}
	e, err := Open(rankFixture(), rankForest(t), WithStreamBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compress(bounds[0]); err != nil {
		t.Fatal(err)
	}
	check := func(src string, rows []QueryRow, err error) {
		if err != nil {
			if !errors.Is(err, ErrActiveSetReplaced) {
				t.Errorf("%s: %v", src, err)
			}
			return
		}
		if sameRows(rows, want[src][0]) != nil && sameRows(rows, want[src][1]) != nil {
			t.Errorf("%s: rows match neither set's answer: %+v", src, rows)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, src := range srcs {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for range 20 {
				res, err := e.Query(src)
				if err != nil {
					check(src, nil, err)
					continue
				}
				check(src, res.Rows, nil)
			}
		}()
		go func() {
			defer wg.Done()
			for range 20 {
				info, rows, err := e.QueryStream(context.Background(), src)
				if err != nil {
					t.Error(err)
					return
				}
				var got []QueryRow
				for row := range rows {
					row.Answers = row.Row.Erase() // the erased view Query builds
					got = append(got, row)
				}
				check(src, got, info.Err())
			}
		}()
	}
	var compressor sync.WaitGroup
	compressor.Add(1)
	go func() {
		defer compressor.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Compress(bounds[i%2]); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(100 * time.Microsecond) // let some statements finish
		}
	}()
	wg.Wait()
	close(stop)
	compressor.Wait()
}

// TestQueryStreamSurfacesSetReplaced lands a Compress between two
// micro-batches of a statement, deterministically: the output channel is
// unbuffered, so the sweep is parked on its first row while the Compress
// runs. The rows of the first micro-batch still arrive; then the stream
// ends and Err reports ErrActiveSetReplaced — for a ranked statement whose
// first micro-batch holds in-band failures as for an unranked one.
func TestQueryStreamSurfacesSetReplaced(t *testing.T) {
	for _, src := range []string{
		"a IN [0.5:6:0.5] b IN [0:6:1] USING count ORDER BY ans[0] DESC LIMIT 3",
		"a IN [0:6:1] b IN [0:6:1]",
	} {
		e, err := Open(rankFixture(), rankForest(t), WithStreamBatch(4), WithStreamBuffer(-1))
		if err != nil {
			t.Fatal(err)
		}
		info, rows, err := e.QueryStream(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		first := <-rows
		if _, err := e.Compress(4); err != nil {
			t.Fatal(err)
		}
		n := 1
		for row := range rows {
			if row.Index != int64(n) {
				t.Errorf("%s: row %d has index %d", src, n, row.Index)
			}
			n++
		}
		if n != 4 || first.Index != 0 {
			t.Errorf("%s: %d rows arrived, want the first micro-batch's 4", src, n)
		}
		if !errors.Is(info.Err(), ErrActiveSetReplaced) {
			t.Errorf("%s: Err() = %v, want ErrActiveSetReplaced", src, info.Err())
		}
		if _, err := e.Query(src); err != nil {
			t.Errorf("%s: the next statement on the new set failed: %v", src, err)
		}
	}
}

// TestTopKNaNLoses pins the ranking of NaN keys: behind every number,
// infinities included, in both directions, and among themselves in
// generation order — whether or not they survive eviction.
func TestTopKNaNLoses(t *testing.T) {
	nan := math.NaN()
	keys := []float64{nan, 2, math.Inf(-1), nan, math.Inf(1), 2, 1}
	for _, desc := range []bool{true, false} {
		order := []int64{4, 1, 5, 6, 2, 0, 3}
		if !desc {
			order = []int64{2, 6, 1, 5, 4, 0, 3}
		}
		for _, k := range []int{3, 6, len(keys)} {
			top := &topK{desc: desc, k: k}
			for i, key := range keys {
				top.offer(key, int64(i), nil)
			}
			var got []int64
			for _, row := range top.ranked() {
				got = append(got, row.index)
			}
			if want := order[:k]; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("desc=%v k=%d: ranked %v, want %v", desc, k, got, want)
			}
		}
	}
}

// TestQueryTopKAllocs guards the ranked sweep's allocation profile: a top-k
// statement ranks on one polynomial per scenario and answers and tags only
// the k rows it returns, so its allocations per scenario must stay under a
// constant that does not grow with the number of polynomials (boxing every
// answer costs one allocation per polynomial per scenario). The k returned
// rows still box k·(polynomials) answers once per statement, so each sweep
// runs enough scenarios to spread them below the bound.
func TestQueryTopKAllocs(t *testing.T) {
	const maxAllocsPerScenario = 100
	set, err := telco.SyntheticProvenance(telco.Config{Customers: 4000, Zips: 1200, Plans: 128, Months: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() < 1000 {
		t.Fatalf("fixture has %d polynomials, want at least 1000", set.Len())
	}
	e, err := Open(set, nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"pl3 IN [0.5:1.5:0.05] pl7 IN [0.5:1.5:0.05] ORDER BY ans[17] DESC LIMIT 10",
		"SAMPLE 400 pl3, pl7, pl11 IN [0.5:1.5] SEED 3 ORDER BY ans[17] ASC LIMIT 10",
	} {
		var scenarios int64
		allocs := testing.AllocsPerRun(1, func() {
			res, err := e.Query(src)
			if err != nil || len(res.Rows) != 10 {
				t.Fatalf("%s: %d rows, err %v", src, len(res.Rows), err)
			}
			scenarios = res.Scenarios
		})
		per := allocs / float64(scenarios)
		t.Logf("%s: %.1f allocations per scenario", src, per)
		if per > maxAllocsPerScenario {
			t.Errorf("%s: %.1f allocations per scenario over %d polynomials, want at most %d",
				src, per, set.Len(), maxAllocsPerScenario)
		}
	}
}

// FuzzQueryTopK differentially checks ranked Query against bruteTopK over
// rankFixture: a random grid or SAMPLE, k, direction, key, carrier and
// micro-batch cap. Scenarios the carrier rejects (a fractional count) must
// fail in-band and be counted, never ranked.
func FuzzQueryTopK(f *testing.F) {
	f.Add(false, uint8(6), uint8(6), uint16(1), uint8(10), true, uint8(0), uint8(0), uint8(63))
	f.Add(true, uint8(40), uint8(0), uint16(7), uint8(3), false, uint8(1), uint8(2), uint8(3))
	f.Add(false, uint8(3), uint8(5), uint16(0), uint8(60), false, uint8(1), uint8(1), uint8(0))
	f.Add(true, uint8(20), uint8(0), uint16(9), uint8(0), true, uint8(2), uint8(3), uint8(7))
	f.Add(false, uint8(7), uint8(2), uint16(0), uint8(5), true, uint8(3), uint8(0), uint8(1))
	kinds := []string{"", " USING count", " USING bool", " USING tropical", " USING minmax"}
	keys := []string{"ans[0]", "ans[1]", "ans['spread']", "ans['ties']"}
	f.Fuzz(func(t *testing.T, sample bool, n, m uint8, seed uint16, k uint8, desc bool, kind, key, batch uint8) {
		gen := fmt.Sprintf("a IN [0:%d:1] b IN [0:%d:0.5]", n%8, m%8)
		if sample {
			gen = fmt.Sprintf("SAMPLE %d a, b, c IN [0:3] SEED %d", 1+int(n)%64, seed)
		}
		dir := "ASC"
		if desc {
			dir = "DESC"
		}
		src := fmt.Sprintf("%s%s ORDER BY %s %s LIMIT %d",
			gen, kinds[int(kind)%len(kinds)], keys[int(key)%len(keys)], dir, 1+int(k)%80)
		e, err := Open(rankFixture(), nil, WithStreamBatch(1+int(batch)%64))
		if err != nil {
			t.Fatal(err)
		}
		want, failed, _ := bruteTopK(t, e, src)
		res, err := e.Query(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if err := sameRows(res.Rows, want); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if res.Errors != int64(len(failed)) {
			t.Fatalf("%s: %d errors, want %d", src, res.Errors, len(failed))
		}
	})
}
