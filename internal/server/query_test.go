package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"provabs/internal/scenql"
	"provabs/internal/session"
)

// postQuery posts one ScenQL statement and decodes the JSON response.
func postQuery(t *testing.T, url, stmt string) (int, map[string]any) {
	t.Helper()
	body, err := json.Marshal(map[string]string{"query": stmt})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("bad response body: %v", err)
	}
	return resp.StatusCode, out
}

func TestQueryEndpoint(t *testing.T) {
	ts, e := newTestServer(t)
	status, out := postQuery(t, ts.URL+"/v1/sessions/default/query", "m1 IN [0:1:0.5] LIMIT 2")
	if status != http.StatusOK {
		t.Fatalf("status = %d: %v", status, out)
	}
	if out["semiring"] != "float" || out["scenarios"] != 2.0 {
		t.Fatalf("header = %v", out)
	}
	rows := out["rows"].([]any)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	row := rows[0].(map[string]any)
	if row["index"] != 0.0 || row["assign"].(map[string]any)["m1"] != 0.0 {
		t.Fatalf("row 0 = %v", row)
	}
	if _, ok := row["answers"].([]any); !ok {
		t.Fatalf("row 0 has no answers: %v", row)
	}
	if st := e.Stats(); st.Queries != 1 {
		t.Errorf("Stats.Queries = %d, want 1", st.Queries)
	}
}

func TestQueryEndpointExplain(t *testing.T) {
	ts, _ := newTestServer(t)
	status, out := postQuery(t, ts.URL+"/v1/sessions/default/query",
		"EXPLAIN m1 IN [0:1:0.5] ORDER BY ans[0] DESC LIMIT 2")
	if status != http.StatusOK {
		t.Fatalf("status = %d: %v", status, out)
	}
	if out["statement"] == nil || out["scenarios"] != 3.0 {
		t.Fatalf("explain = %v", out)
	}
	// A ranked statement evaluates the key per scenario (topk), then only
	// the k winners in full (eval), so the eval node carries no routes.
	eval := out["plan"].(map[string]any)
	if eval["node"] != "eval" || eval["routes"] != nil || eval["cost_model"] == nil {
		t.Fatalf("plan root = %v", eval)
	}
	top := eval["input"].(map[string]any)
	if top["node"] != "topk" || top["key_terms"] == nil {
		t.Fatalf("topk node = %v", top)
	}
}

// TestQueryStatus maps statement failures to HTTP statuses: the client's
// own mistakes are 400, a Compress that overtook the statement is a 409
// the client may retry, and anything else is a 500.
func TestQueryStatus(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{&scenql.ParseError{Msg: "x"}, http.StatusBadRequest},
		{&scenql.CompileError{Msg: "x"}, http.StatusBadRequest},
		{session.ErrActiveSetReplaced, http.StatusConflict},
		{fmt.Errorf("wrapped: %w", session.ErrActiveSetReplaced), http.StatusConflict},
		{errors.New("boom"), http.StatusInternalServerError},
	} {
		if got := queryStatus(tc.err); got != tc.want {
			t.Errorf("queryStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	url := ts.URL + "/v1/sessions/default/query"
	for _, stmt := range []string{
		"m1 IN [0:1:",                // parse error
		"nosuch IN [0:1:0.5]",        // unknown variable
		"m1 IN [0:1:0.5] USING nope", // unknown semiring
	} {
		status, out := postQuery(t, url, stmt)
		if status != http.StatusBadRequest || out["error"] == nil {
			t.Errorf("%q: status=%d body=%v, want 400 with error", stmt, status, out)
		}
	}
}

func TestQueryStreamEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"query": "m1 IN [0:1:0.5] m3 IN [0:1:0.5]"}`
	resp, err := http.Post(ts.URL+"/v1/sessions/default/query/stream",
		"application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	scan := bufio.NewScanner(resp.Body)
	if !scan.Scan() {
		t.Fatal("no header line")
	}
	var header queryStreamHeader
	if err := json.Unmarshal(scan.Bytes(), &header); err != nil {
		t.Fatalf("bad header %q: %v", scan.Text(), err)
	}
	if header.Semiring != "float" || header.Scenarios != 9 {
		t.Fatalf("header = %+v", header)
	}
	var rows []queryRowJSON
	for scan.Scan() {
		var row queryRowJSON
		if err := json.Unmarshal(scan.Bytes(), &row); err != nil {
			t.Fatalf("bad row %q: %v", scan.Text(), err)
		}
		rows = append(rows, row)
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("streamed %d rows, want 9", len(rows))
	}
	for i, row := range rows {
		if row.Index != int64(i) || row.Error != "" || len(row.Answers) == 0 {
			t.Fatalf("row %d = %+v", i, row)
		}
	}
}

func TestQueryStreamEndpointExplain(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/sessions/default/query/stream",
		"application/json", strings.NewReader(`{"query": "EXPLAIN m1 IN [0:1:0.5]"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scan := bufio.NewScanner(resp.Body)
	var lines []string
	for scan.Scan() {
		lines = append(lines, scan.Text())
	}
	if len(lines) != 1 {
		t.Fatalf("EXPLAIN stream wrote %d lines, want 1: %v", len(lines), lines)
	}
	var plan map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &plan); err != nil {
		t.Fatal(err)
	}
	if plan["statement"] == nil || plan["plan"] == nil {
		t.Fatalf("explain line = %v", plan)
	}
}

// TestEncodeAssign pins the hand-rolled assign encoder byte-for-byte to
// encoding/json's map output across float forms and keys that need
// escaping, and checks that a row without assignments omits the member.
func TestEncodeAssign(t *testing.T) {
	for _, assign := range []map[string]float64{
		{"m1": 0, "m3": 1},
		{"b": -0.30000000000000004, "a": 2.5, "zz": 1e21, "q": 3.2e-7},
		{"x": 1e-6, "y": 123456789.125, "neg": -7},
		{"weird \"key\"\\n": 1, "ünïcode": 2, "a<b&c>d": 3},
		{"single": 42},
	} {
		want, err := json.Marshal(assign)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendAssign(nil, assign); string(got) != string(want) {
			t.Errorf("appendAssign(%v) = %s, want %s", assign, got, want)
		}
	}
	if got := AppendQueryLine(nil, session.QueryRow{Index: 3}); string(got) != "{\"index\":3}\n" {
		t.Errorf("row without assignments = %s, want {\"index\":3}", got)
	}
}

// TestStreamEndpointLiteralLines exercises the shared scenario-literal
// parser on the what-if stream: bare "x=1" lines interleave with JSON
// lines, and a malformed literal terminates the stream with a positioned
// error, exactly like malformed JSON.
func TestStreamEndpointLiteralLines(t *testing.T) {
	ts, _ := newTestServer(t)
	body := strings.Join([]string{
		`m1=1, m3=1`,
		`{"assign":{"m1":0,"m3":0}}`,
		`m1 = 0.5 , m3 = 0.5`,
	}, "\n")
	resp, err := http.Post(ts.URL+"/v1/sessions/default/whatif/stream",
		"application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []streamLine
	scan := bufio.NewScanner(resp.Body)
	for scan.Scan() {
		var l streamLine
		if err := json.Unmarshal(scan.Bytes(), &l); err != nil {
			t.Fatalf("bad response line %q: %v", scan.Text(), err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3: %+v", len(lines), lines)
	}
	for i, l := range lines {
		if l.Error != "" || len(l.Answers) == 0 {
			t.Fatalf("line %d = %+v", i, l)
		}
	}

	resp, err = http.Post(ts.URL+"/v1/sessions/default/whatif/stream",
		"application/x-ndjson", strings.NewReader("m1=oops"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed literal status = %d, want 400", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out["error"], "1:4") {
		t.Fatalf("error %q does not carry the literal's position", out["error"])
	}
}
