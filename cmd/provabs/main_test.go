package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"provabs/internal/provenance"
	"provabs/internal/registry"
	"provabs/internal/scenql"
	"provabs/internal/server"
)

// TestParseScenarioLiterals pins the CLI's -set/-sets syntax, which is the
// shared ScenQL scenario-literal parser (the same one the server's stream
// lines use).
func TestParseScenarioLiterals(t *testing.T) {
	sc, err := scenql.ParseAssignments("a=1, b = 0.5 ,c=-2")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"a": 1, "b": 0.5, "c": -2}
	if len(sc.Assign) != len(want) {
		t.Fatalf("Assign = %v, want %v", sc.Assign, want)
	}
	for k, v := range want {
		if sc.Assign[k] != v {
			t.Errorf("Assign[%q] = %v, want %v", k, sc.Assign[k], v)
		}
	}
}

func TestParseScenarioMalformed(t *testing.T) {
	for _, bad := range []string{
		"",      // no assignment at all
		"a",     // missing =value
		"a=",    // empty value
		"a=x",   // non-numeric value
		"a=1,b", // valid then invalid
		"a=1=2", // value with stray =
		"a==2",  // double separator
	} {
		_, err := scenql.ParseAssignments(bad)
		if err == nil {
			t.Errorf("ParseAssignments(%q) succeeded, want error", bad)
			continue
		}
		if _, ok := err.(*scenql.ParseError); !ok {
			t.Errorf("ParseAssignments(%q) returned %T, want a positioned *ParseError", bad, err)
		}
	}
}

// TestCmdQuery drives the query verb end to end in-process: a grid sweep
// with a top-k, the EXPLAIN plan, and the NDJSON mode.
func TestCmdQuery(t *testing.T) {
	pvab := filepath.Join(t.TempDir(), "q.pvab")
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	set.Add("q", provenance.MustParse(vb, "2·a·b + 3·c"))
	if err := writeSet(pvab, set); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() {
		if err := cmdQuery([]string{"-in", pvab,
			"a IN [0:1:0.5] ORDER BY ans[0] DESC LIMIT 2"}); err != nil {
			t.Error(err)
		}
	})
	// DESC on an increasing sweep keeps the last two points, best first.
	if !strings.Contains(out, "#2") || !strings.Contains(out, "2 of 3 scenarios") {
		t.Errorf("query text output:\n%s", out)
	}
	out = captureStdout(t, func() {
		if err := cmdQuery([]string{"-in", pvab, "EXPLAIN a IN [0:1:0.5] USING tropical"}); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, `"node": "generate"`) || !strings.Contains(out, `"semiring": "tropical"`) {
		t.Errorf("explain output:\n%s", out)
	}
	out = captureStdout(t, func() {
		if err := cmdQuery([]string{"-in", pvab, "-json", "a IN [0:1:0.5]"}); err != nil {
			t.Error(err)
		}
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + 3 rows
		t.Fatalf("json mode wrote %d lines, want 4:\n%s", len(lines), out)
	}
	var header struct {
		Semiring  string `json:"semiring"`
		Scenarios int64  `json:"scenarios"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatal(err)
	}
	if header.Semiring != "float" || header.Scenarios != 3 {
		t.Errorf("header = %+v", header)
	}
	if err := cmdQuery([]string{"-in", pvab, "a IN [0:1:"}); err == nil {
		t.Error("malformed statement accepted, want error")
	}
}

// TestCmdQueryJSONMatchesServer: `query -json` prints exactly the bytes
// /query/stream sends for the same statement, through the same appender —
// here with tags that need escaping and a NaN answer (Inf − Inf at
// x = y = 10), which once stopped the command with the JSON encoder's error.
func TestCmdQueryJSONMatchesServer(t *testing.T) {
	pvab := filepath.Join(t.TempDir(), "nan.pvab")
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	set.Add("nan <&>", provenance.MustParse(vb, "1e308·x - 1e308·y"))
	set.Add("q\"uote é", provenance.MustParse(vb, "2·x + y"))
	if err := writeSet(pvab, set); err != nil {
		t.Fatal(err)
	}
	const stmt = "x IN [9:10:1] y IN [10:11:1]"
	out := captureStdout(t, func() {
		if err := cmdQuery([]string{"-in", pvab, "-json", stmt}); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, `"value":"NaN"`) {
		t.Errorf("query -json printed no NaN answer:\n%s", out)
	}

	served, err := readSet(pvab)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	if _, err := reg.Create("q", served, nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg).Handler())
	defer ts.Close()
	body, err := json.Marshal(map[string]string{"query": stmt})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions/q/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	wire, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(wire) {
		t.Errorf("query -json printed\n%s\n/query/stream sent\n%s", out, wire)
	}
}

// TestServeEndToEnd is the acceptance check for the what-if server: build
// the real binary, generate two provenance files, start one `provabs
// serve` process hosting both as named sessions, and drive the v1 API —
// interleaved what-ifs across sessions, a streamed NDJSON batch,
// per-session and aggregate stats.
func TestServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary-level integration test in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "provabs")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	pvabA := filepath.Join(dir, "a.pvab")
	pvabB := filepath.Join(dir, "b.pvab")
	for pvab, seed := range map[string]string{pvabA: "1", pvabB: "7"} {
		gen := exec.Command(bin, "generate", "-dataset", "telco",
			"-customers", "50", "-zips", "5", "-seed", seed, "-out", pvab)
		if out, err := gen.CombinedOutput(); err != nil {
			t.Fatalf("generate: %v\n%s", err, out)
		}
	}

	srv := exec.Command(bin, "serve",
		"-load", "alpha="+pvabA, "-load", "beta="+pvabB,
		"-addr", "127.0.0.1:0",
		"-tree", "Quarters(q1(m1,m2,m3),q2(m4,m5,m6),q3(m7,m8,m9),q4(m10,m11,m12))",
		"-algo", "greedy", "-ratio", "0.6")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()

	// The server prints "serving … on http://ADDR" once it is listening.
	var base string
	scan := bufio.NewScanner(stdout)
	deadline := time.After(30 * time.Second)
	addrCh := make(chan string, 1)
	go func() {
		for scan.Scan() {
			line := scan.Text()
			if i := strings.Index(line, "http://"); i >= 0 {
				addrCh <- strings.Fields(line[i:])[0]
				break
			}
		}
	}()
	select {
	case base = <-addrCh:
	case <-deadline:
		t.Fatal("server did not report its address in time")
	}

	// Stream a small NDJSON batch to session alpha via the v1 route: a
	// quarter-uniform scenario, an erroneous one, and a per-month scenario.
	batch := strings.Join([]string{
		`{"assign":{"q1":0.8}}`,
		`{"assign":{"no_such_variable":1}}`,
		`{"assign":{"m1":0.5,"m2":0.5}}`,
	}, "\n")
	resp, err := http.Post(base+"/v1/sessions/alpha/whatif/stream", "application/x-ndjson", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type line struct {
		Index   int `json:"index"`
		Answers []struct {
			Tag   string  `json:"tag"`
			Value float64 `json:"value"`
		} `json:"answers"`
		Error string `json:"error"`
	}
	var lines []line
	rscan := bufio.NewScanner(resp.Body)
	for rscan.Scan() {
		var l line
		if err := json.Unmarshal(rscan.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", rscan.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := rscan.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("streamed %d result lines, want 3: %+v", len(lines), lines)
	}
	if lines[0].Error != "" || len(lines[0].Answers) == 0 {
		t.Errorf("first scenario: %+v, want answers", lines[0])
	}
	if lines[1].Error == "" {
		t.Errorf("second scenario: %+v, want in-band error", lines[1])
	}
	if lines[2].Error != "" || len(lines[2].Answers) == 0 {
		t.Errorf("third scenario: %+v, want answers", lines[2])
	}

	// Interleave single-scenario what-ifs across both sessions — the
	// steady-state multi-tenant traffic pattern.
	for i := 0; i < 3; i++ {
		for _, name := range []string{"alpha", "beta"} {
			single, err := http.Post(base+"/v1/sessions/"+name+"/whatif", "application/json",
				bytes.NewReader([]byte(`{"assign":{"q1":0.8}}`)))
			if err != nil {
				t.Fatal(err)
			}
			single.Body.Close()
			if single.StatusCode != http.StatusOK {
				t.Fatalf("whatif %s status = %d, want 200", name, single.StatusCode)
			}
		}
	}

	readAll := func(resp *http.Response, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200", resp.Request.URL, resp.StatusCode)
		}
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	// Per-session stats: each session compiled exactly once in steady
	// state, compressed at startup, and only alpha saw the stream.
	type stats struct {
		Compressed bool  `json:"compressed"`
		Scenarios  int64 `json:"scenarios_evaluated"`
		Compiles   int64 `json:"compiles"`
	}
	var alpha, beta stats
	if err := json.Unmarshal([]byte(readAll(http.Get(base+"/v1/sessions/alpha/stats"))), &alpha); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(readAll(http.Get(base+"/v1/sessions/beta/stats"))), &beta); err != nil {
		t.Fatal(err)
	}
	if !alpha.Compressed || !beta.Compressed {
		t.Errorf("sessions report compressed=%v/%v, want both compressed at startup", alpha.Compressed, beta.Compressed)
	}
	// alpha: 2 stream scenarios + 3 interleaved = 5.
	if alpha.Scenarios != 5 {
		t.Errorf("alpha scenarios = %d, want 5", alpha.Scenarios)
	}
	if beta.Scenarios != 3 {
		t.Errorf("beta scenarios = %d, want 3", beta.Scenarios)
	}
	if alpha.Compiles != 1 || beta.Compiles != 1 {
		t.Errorf("compiles = %d/%d, want 1/1 (compile-once per session under interleaved traffic)",
			alpha.Compiles, beta.Compiles)
	}

	// The aggregate view sums the per-session counters.
	var agg struct {
		Sessions int   `json:"sessions"`
		Totals   stats `json:"totals"`
	}
	if err := json.Unmarshal([]byte(readAll(http.Get(base+"/v1/stats"))), &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Sessions != 2 {
		t.Errorf("aggregate sessions = %d, want 2", agg.Sessions)
	}
	if want := alpha.Scenarios + beta.Scenarios; agg.Totals.Scenarios != want {
		t.Errorf("aggregate scenarios = %d, want %d", agg.Totals.Scenarios, want)
	}
	if agg.Totals.Compiles != 2 {
		t.Errorf("aggregate compiles = %d, want 2", agg.Totals.Compiles)
	}

	// Session lifecycle over the wire: delete beta, alpha unaffected.
	del, err := http.NewRequest("DELETE", base+"/v1/sessions/beta", nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete beta status = %d, want 200", delResp.StatusCode)
	}
	gone, err := http.Get(base + "/v1/sessions/beta/stats")
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Errorf("stats after delete = %d, want 404", gone.StatusCode)
	}
	readAll(http.Get(base + "/v1/sessions/alpha/stats"))
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns what
// it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCmdWhatifSemiring runs the whatif command on each wire-selectable
// carrier over a natural-coefficient set: 2·a·b + 3·c.
func TestCmdWhatifSemiring(t *testing.T) {
	pvab := filepath.Join(t.TempDir(), "nat.pvab")
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	set.Add("q", provenance.MustParse(vb, "2·a·b + 3·c"))
	if err := writeSet(pvab, set); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"count": {[]string{"-in", pvab, "-sets", "a=2,b=1,c=0", "-semiring", "count"},
			"             4"}, // 2·2·1 + 3·0
		"bool": {[]string{"-in", pvab, "-sets", "a=0", "-semiring", "bool"},
			"true"}, // c unassigned keeps the identity: derivable
		"tropical": {[]string{"-in", pvab, "-sets", "a=5,b=7,c=100", "-semiring", "tropical"},
			"            12"}, // min(0+5+7, 0+100)
		"minmax": {[]string{"-in", pvab, "-sets", "a=1,b=2,c=5", "-semiring", "minmax"},
			"             5"}, // max(min(1,2), 5)
		"generated": {[]string{"-in", pvab, "-scenarios", "8", "-semiring", "bool"},
			"evaluated 8 scenarios in the bool semiring"},
	} {
		out := captureStdout(t, func() {
			if err := cmdWhatif(tc.args); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		})
		if !strings.Contains(out, tc.want) {
			t.Errorf("%s: output does not contain %q:\n%s", name, tc.want, out)
		}
	}
	if err := cmdWhatif([]string{"-in", pvab, "-sets", "a=1", "-semiring", "galois"}); err == nil {
		t.Error("unknown -semiring accepted, want error")
	}
	// Fractional coefficients are rejected by the natural-coefficient
	// carriers at compile time.
	frac := filepath.Join(t.TempDir(), "frac.pvab")
	vb2 := provenance.NewVocab()
	set2 := provenance.NewSet(vb2)
	set2.Add("q", provenance.MustParse(vb2, "2.5·a"))
	if err := writeSet(frac, set2); err != nil {
		t.Fatal(err)
	}
	if err := cmdWhatif([]string{"-in", frac, "-sets", "a=1", "-semiring", "count"}); err == nil {
		t.Error("fractional coefficients accepted under count, want error")
	}
}
