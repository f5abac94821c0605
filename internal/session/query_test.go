package session

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"provabs/internal/hypo"
	"provabs/internal/scenql"
	"provabs/internal/semiring"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// queryFixture opens a deterministic engine over the paper's running
// example: workers pinned to 1 and a static delta cutoff, so EXPLAIN's
// cost model has no machine-dependent fields.
func queryFixture(t *testing.T) *Engine {
	t.Helper()
	set, _ := fixture(t)
	e, err := Open(set, nil, WithWorkers(1), WithDeltaCutoff(0.5))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestQuerySweep(t *testing.T) {
	e := queryFixture(t)
	res, err := e.Query("SET v = 0 p1 IN [0:1:0.5]")
	if err != nil {
		t.Fatal(err)
	}
	if res.Semiring != semiring.KindFloat {
		t.Fatalf("Semiring = %q, want float", res.Semiring)
	}
	if res.Scenarios != 3 || len(res.Rows) != 3 || res.Errors != 0 || res.Truncated {
		t.Fatalf("got scenarios=%d rows=%d errors=%d truncated=%v, want 3 rows clean",
			res.Scenarios, len(res.Rows), res.Errors, res.Truncated)
	}
	for i, row := range res.Rows {
		if row.Index != int64(i) {
			t.Fatalf("row %d has index %d", i, row.Index)
		}
		want := hypo.NewScenario().Set("v", 0).Set("p1", 0.5*float64(i))
		// The generator's answers must match the plain what-if path.
		ref, err := e.WhatIf(want)
		if err != nil {
			t.Fatal(err)
		}
		if len(row.Answers) != len(ref) {
			t.Fatalf("row %d has %d answers, want %d", i, len(row.Answers), len(ref))
		}
		for j := range ref {
			if row.Answers[j].Tag != ref[j].Tag || row.Answers[j].Value != any(ref[j].Value) {
				t.Fatalf("row %d answer %d = %+v, want %+v", i, j, row.Answers[j], ref[j])
			}
		}
		if row.Assign["p1"] != 0.5*float64(i) || row.Assign["v"] != 0 {
			t.Fatalf("row %d assign = %v", i, row.Assign)
		}
	}
}

func TestQueryTopK(t *testing.T) {
	e := queryFixture(t)
	res, err := e.Query("p1 IN [0:1:0.25] f1 IN [0:1:0.25] ORDER BY ans['zip 10001'] DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenarios != 25 || len(res.Rows) != 3 {
		t.Fatalf("got scenarios=%d rows=%d, want 25 and 3", res.Scenarios, len(res.Rows))
	}
	// Brute-force the same sweep and compare the ranked prefix.
	type kv struct {
		p1, f1, val float64
	}
	var all []kv
	for i := 0; i <= 4; i++ {
		for j := 0; j <= 4; j++ {
			p1, f1 := 0.25*float64(i), 0.25*float64(j)
			ans, err := e.WhatIf(hypo.NewScenario().Set("p1", p1).Set("f1", f1))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, kv{p1, f1, ans[0].Value})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].val > all[j].val })
	for i, row := range res.Rows {
		if got := row.Answers[0].Value.(float64); got != all[i].val {
			t.Fatalf("rank %d value = %v, want %v", i, got, all[i].val)
		}
		if i > 0 {
			prev := res.Rows[i-1]
			if prev.Answers[0].Value.(float64) < row.Answers[0].Value.(float64) {
				t.Fatalf("rows not descending at rank %d", i)
			}
			if prev.Answers[0].Value == row.Answers[0].Value && prev.Index > row.Index {
				t.Fatalf("tie at rank %d not broken by generation order", i)
			}
		}
	}
}

func TestQueryOrderAscByIndex(t *testing.T) {
	e := queryFixture(t)
	res, err := e.Query("p1 IN [0:1:0.5] ORDER BY ans[1] ASC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	a := res.Rows[0].Answers[1].Value.(float64)
	b := res.Rows[1].Answers[1].Value.(float64)
	if a > b {
		t.Fatalf("ASC order violated: %v then %v", a, b)
	}
}

func TestQueryLimitAndTruncation(t *testing.T) {
	e := queryFixture(t)
	res, err := e.Query("p1 IN [0:1:0.001] LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenarios != 5 || len(res.Rows) != 5 || res.Truncated {
		t.Fatalf("LIMIT: scenarios=%d rows=%d truncated=%v", res.Scenarios, len(res.Rows), res.Truncated)
	}
	// 2001 points with no LIMIT hits the materialization cap.
	res, err = e.Query("p1 IN [0:1:0.0005]")
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenarios != 2001 || len(res.Rows) != maxQueryRows || !res.Truncated {
		t.Fatalf("cap: scenarios=%d rows=%d truncated=%v, want %d truncated rows",
			res.Scenarios, len(res.Rows), res.Truncated, maxQueryRows)
	}
}

func TestQueryUsingSemiring(t *testing.T) {
	e := queryFixture(t)
	res, err := e.Query("p1 IN [0:1:1] USING bool")
	if err != nil {
		t.Fatal(err)
	}
	if res.Semiring != semiring.KindBool {
		t.Fatalf("Semiring = %q, want bool", res.Semiring)
	}
	for _, row := range res.Rows {
		for _, a := range row.Answers {
			if _, ok := a.Value.(bool); !ok {
				t.Fatalf("answer %v is %T, want bool", a, a.Value)
			}
		}
	}
}

func TestQueryInBandErrors(t *testing.T) {
	// chainFixture has natural coefficients, so it compiles under counting;
	// fractional assignments are still unrepresentable there, so those
	// scenarios fail in-band while the integral ones answer.
	e, err := Open(chainFixture(), nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("m IN [0:2:0.5] USING count")
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenarios != 5 || res.Errors != 2 {
		t.Fatalf("scenarios=%d errors=%d, want 5 and 2", res.Scenarios, res.Errors)
	}
	for _, row := range res.Rows {
		frac := row.Assign["m"] != math.Trunc(row.Assign["m"])
		if frac != (row.Err != nil) {
			t.Fatalf("row %v: fractional=%v but err=%v", row.Assign, frac, row.Err)
		}
	}
}

// TestQueryCarrierCannotCompile: the running example has fractional
// coefficients, so it does not compile under counting. Every scenario then
// fails in-band, ranked or not, through Query and QueryStream alike.
func TestQueryCarrierCannotCompile(t *testing.T) {
	e := queryFixture(t)
	for _, src := range []string{
		"p1 IN [0:2:1] USING count",
		"p1 IN [0:2:1] USING count ORDER BY ans[0] DESC LIMIT 2",
	} {
		res, err := e.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 3 {
			t.Errorf("%s: errors=%d, want 3", src, res.Errors)
		}
		for _, row := range res.Rows {
			if row.Err == nil {
				t.Errorf("%s: row %d answered", src, row.Index)
			}
		}
		_, rows, err := e.QueryStream(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for row := range rows {
			if row.Err == nil || row.Index != int64(n) {
				t.Errorf("%s: streamed row %d = index %d, err %v", src, n, row.Index, row.Err)
			}
			n++
		}
		if n != 3 {
			t.Errorf("%s: streamed %d rows, want 3 in-band failures", src, n)
		}
	}
}

func TestQueryCompileAndParseErrors(t *testing.T) {
	e := queryFixture(t)
	if _, err := e.Query("p1 IN [0:1:"); err == nil {
		t.Fatal("parse error not surfaced")
	} else if _, ok := err.(*scenql.ParseError); !ok {
		t.Fatalf("got %T, want *scenql.ParseError", err)
	}
	if _, err := e.Query("nosuch IN [0:1:0.5]"); err == nil {
		t.Fatal("unknown variable not surfaced")
	} else if _, ok := err.(*scenql.CompileError); !ok {
		t.Fatalf("got %T, want *scenql.CompileError", err)
	}
}

func TestQueryStream(t *testing.T) {
	e := queryFixture(t)
	info, rows, err := e.QueryStream(context.Background(), "p1 IN [0:1:0.25] f1 IN [0:1:0.25]")
	if err != nil {
		t.Fatal(err)
	}
	if info.Scenarios != 25 || info.Explain != nil {
		t.Fatalf("info = %+v, want 25 scenarios and no explain", info)
	}
	n := int64(0)
	for row := range rows {
		if row.Index != n {
			t.Fatalf("row %d arrived with index %d", n, row.Index)
		}
		if row.Err != nil {
			t.Fatalf("row %d failed: %v", n, row.Err)
		}
		n++
	}
	if n != 25 {
		t.Fatalf("streamed %d rows, want 25", n)
	}
}

func TestQueryStreamTopK(t *testing.T) {
	e := queryFixture(t)
	_, rows, err := e.QueryStream(context.Background(),
		"p1 IN [0:1:0.25] ORDER BY ans[0] DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	var got []QueryRow
	for row := range rows {
		got = append(got, row)
	}
	if len(got) != 2 {
		t.Fatalf("streamed %d rows, want the top 2", len(got))
	}
	if got[0].Answers[0].Value.(float64) < got[1].Answers[0].Value.(float64) {
		t.Fatal("top-k stream not descending")
	}
}

func TestQueryStreamCancel(t *testing.T) {
	e, err := Open(chainFixture(), nil, WithStreamBatch(1), WithStreamBuffer(-1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, rows, err := e.QueryStream(ctx, "m IN [0:1:0.001]")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := <-rows; !ok {
			t.Fatal("stream ended before cancellation")
		}
	}
	cancel()
	for range rows { // must drain and close promptly
	}
}

func TestQueryBumpsStats(t *testing.T) {
	e := queryFixture(t)
	if _, err := e.Query("p1 IN [0:1:0.5]"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("EXPLAIN p1 IN [0:1:0.5]"); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Queries; got != 2 {
		t.Fatalf("Stats.Queries = %d, want 2", got)
	}
}

// TestQueryExplainGolden pins the EXPLAIN JSON wire shape. The fixture
// engine is fully deterministic (workers=1, static cutoff, nothing
// evaluated yet, so the EWMA fields are omitted); any change to this tree
// is an API change and must update the golden deliberately
// (go test ./internal/session -run ExplainGolden -update).
func TestQueryExplainGolden(t *testing.T) {
	e := queryFixture(t)
	const stmt = "EXPLAIN SET v = 0.5 p1 IN [0:1:0.5] CROSS (f1,y1) IN {(0,0),(1,1)} " +
		"ORDER BY ans['zip 10001'] DESC LIMIT 3"
	res, err := e.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain == nil || len(res.Rows) != 0 {
		t.Fatalf("EXPLAIN returned rows=%d explain=%v", len(res.Rows), res.Explain)
	}
	got, err := json.MarshalIndent(res.Explain, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "explain_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("EXPLAIN JSON drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// TestQueryExplainRoutes exercises the route predictions the golden file
// pins: on the fixture (11 terms, cutoff 0.5 → threshold 5) the p1 step
// class (3 affected terms) chains, while the seed and the wider cross
// class recompute in full — and with delta routing disabled everything
// goes full.
func TestQueryExplainRoutes(t *testing.T) {
	e := queryFixture(t)
	res, err := e.Query("EXPLAIN SET v = 0.5 p1 IN [0:1:0.5] CROSS (f1,y1) IN {(0,0),(1,1)} " +
		"ORDER BY ans[0] DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	top, ok := res.Explain.Plan.(*scenql.TopKNode)
	if !ok {
		t.Fatalf("plan root is %T, want *TopKNode", res.Explain.Plan)
	}
	eval := top.Input.(*scenql.EvalNode)
	if eval.CostModel.Source != "static" || eval.CostModel.Cutoff != 0.5 {
		t.Fatalf("cost model = %+v, want static 0.5", eval.CostModel)
	}
	routes := map[string]string{}
	for _, r := range eval.Routes {
		routes[r.Class] = r.Route
	}
	want := map[string]string{"seed": "full", "step p1": "chained", "step (f1,y1)": "full"}
	for class, route := range want {
		if routes[class] != route {
			t.Fatalf("route[%q] = %q, want %q (all: %v)", class, routes[class], route, routes)
		}
	}

	off, err := Open(e.set, nil, WithWorkers(1), WithDeltaCutoff(-1))
	if err != nil {
		t.Fatal(err)
	}
	res, err = off.Query("EXPLAIN p1 IN [0:1:0.5]")
	if err != nil {
		t.Fatal(err)
	}
	eval = res.Explain.Plan.(*scenql.EvalNode)
	if eval.CostModel.Source != "disabled" || eval.Chained {
		t.Fatalf("disabled cost model = %+v chained=%v", eval.CostModel, eval.Chained)
	}
	for _, r := range eval.Routes {
		if r.Route != "full" {
			t.Fatalf("route %q = %q with delta disabled, want full", r.Class, r.Route)
		}
	}
}

// TestQueryExplainNonFloat checks EXPLAIN builds against the non-float
// kernel it would execute on: bool is not chainable, so even a routable
// step class reports "delta", never "chained".
func TestQueryExplainNonFloat(t *testing.T) {
	e, err := Open(chainFixture(), nil, WithWorkers(1), WithDeltaCutoff(0.5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("EXPLAIN m IN [0:1:0.5] USING bool")
	if err != nil {
		t.Fatal(err)
	}
	eval, ok := res.Explain.Plan.(*scenql.EvalNode)
	if !ok {
		t.Fatalf("plan root is %T, want *EvalNode", res.Explain.Plan)
	}
	if eval.Semiring != "bool" || eval.Chained {
		t.Fatalf("eval = %+v, want bool and unchained", eval)
	}
	for _, r := range eval.Routes {
		if r.Route == "chained" {
			t.Fatalf("bool route %q chained; bool is not chainable", r.Class)
		}
	}
}

func TestQueryExplainStream(t *testing.T) {
	e := queryFixture(t)
	info, rows, err := e.QueryStream(context.Background(), "EXPLAIN p1 IN [0:1:0.5]")
	if err != nil {
		t.Fatal(err)
	}
	if info.Explain == nil {
		t.Fatal("stream EXPLAIN lost its plan")
	}
	if _, ok := <-rows; ok {
		t.Fatal("EXPLAIN stream emitted a row")
	}
}
