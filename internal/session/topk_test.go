package session

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

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

// bruteTopK ranks a statement's scenarios the slow way: every scenario of
// the plan answered one at a time through WhatIfIn, sorted stably by key
// (so ties keep generation order), the first k kept. It also reports how
// many distinct keys the sweep produced.
func bruteTopK(t *testing.T, e *Engine, src string) ([]QueryRow, int) {
	t.Helper()
	p, err := e.compileQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	type candidate struct {
		key float64
		row QueryRow
	}
	var all []candidate
	distinct := map[float64]bool{}
	it := p.Iter()
	for i := int64(0); ; i++ {
		sc, ok := it.Next()
		if !ok {
			break
		}
		ans, err := e.WhatIfIn(p.Kind, sc)
		if err != nil {
			t.Fatalf("%s: scenario %d: %v", src, i, err)
		}
		var key float64
		switch v := ans[p.Order.Index].Value.(type) {
		case float64:
			key = v
		case int64:
			key = float64(v)
		default:
			t.Fatalf("%s: answer value %T", src, v)
		}
		distinct[key] = true
		all = append(all, candidate{key, QueryRow{Index: i, Assign: sc.Assign, Answers: ans}})
	}
	sort.SliceStable(all, func(i, j int) bool {
		if p.Order.Desc {
			return all[i].key > all[j].key
		}
		return all[i].key < all[j].key
	})
	out := make([]QueryRow, 0, p.Order.K)
	for _, c := range all[:min(p.Order.K, len(all))] {
		out = append(out, c.row)
	}
	return out, len(distinct)
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
// brute-force ranking of one-at-a-time WhatIfIn answers gives.
func TestQueryTopKMatchesOneAtATime(t *testing.T) {
	e, err := Open(rankFixture(), nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	const grid = "a IN [0:6:1] b IN [0:6:1]"
	cases := []struct {
		src  string
		ties bool // the key repeats: fewer than 40 distinct values
	}{
		{grid + " ORDER BY ans[0] DESC LIMIT 10", false},
		{grid + " ORDER BY ans[0] ASC LIMIT 10", false},
		{"SAMPLE 48 a, b, c IN [0:2] SEED 5 ORDER BY ans['spread'] DESC LIMIT 10", false},
		{"SAMPLE 48 a, b, c IN [0:2] SEED 9 ORDER BY ans['spread'] ASC LIMIT 10", false},
		{grid + " ORDER BY ans[1] DESC LIMIT 10", true},
		{grid + " USING count ORDER BY ans[0] DESC LIMIT 10", false},
		{grid + " USING count ORDER BY ans[0] ASC LIMIT 10", false},
		{grid + " USING count ORDER BY ans['ties'] ASC LIMIT 10", true},
	}
	for _, tc := range cases {
		want, distinct := bruteTopK(t, e, tc.src)
		if !tc.ties && distinct < 40 {
			t.Fatalf("%s: only %d distinct keys, the fixture must give at least 40", tc.src, distinct)
		}
		res, err := e.Query(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRows(res.Rows, want); err != nil {
			t.Errorf("Query %s: %v", tc.src, err)
		}
		_, rows, err := e.QueryStream(context.Background(), tc.src)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []QueryRow
		for row := range rows {
			streamed = append(streamed, row)
		}
		if err := sameRows(streamed, want); err != nil {
			t.Errorf("QueryStream %s: %v", tc.src, err)
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
			top := &topK[float64]{desc: desc, k: k, key: rankKey[float64]()}
			for i, key := range keys {
				top.offer(int64(i), nil, nil, []float64{key})
			}
			var got []int64
			for _, row := range top.ranked() {
				got = append(got, row.Index)
			}
			if want := order[:k]; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("desc=%v k=%d: ranked %v, want %v", desc, k, got, want)
			}
		}
	}
}

// TestQueryTopKAllocs guards the ranked sweep's allocation profile: a top-k
// statement holds k raw answer vectors and tags only the k rows it
// returns, so its allocations per scenario must stay under a constant that
// does not grow with the number of polynomials (boxing every answer costs
// one allocation per polynomial per scenario). The k returned rows still
// box k·(polynomials) answers once per statement, so each sweep runs
// enough scenarios to spread them below the bound.
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
