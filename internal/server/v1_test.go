package server

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"provabs/internal/provenance"
	"provabs/internal/session"
)

// setB64 encodes a provenance set the way POST /v1/sessions expects it
// inline: the binary codec, base64.
func setB64(t *testing.T, set *provenance.Set) string {
	t.Helper()
	var buf bytes.Buffer
	if err := provenance.Encode(&buf, set); err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

func createBody(t *testing.T, name string) string {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"name":           name,
		"provenance_b64": setB64(t, testSet(t)),
		"trees":          []string{"Year(q1(m1,m3))"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func doJSON(t *testing.T, method, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if len(bytes.TrimSpace(raw)) > 0 {
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("%s %s: non-JSON response %q: %v", method, url, raw, err)
		}
	}
	return resp, decoded
}

// TestV1SessionLifecycle drives the full resource lifecycle the README
// documents: create → list → get → compress → whatif → stats → delete.
func TestV1SessionLifecycle(t *testing.T) {
	ts, _ := newRegistryServer(t)

	resp, body := doJSON(t, "POST", ts.URL+"/v1/sessions", createBody(t, "telco"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d, want 201: %v", resp.StatusCode, body)
	}
	if _, hasDefault := body["default"]; body["name"] != "telco" || hasDefault {
		t.Errorf("create response = %v, want name=telco and no default field", body)
	}

	resp, body = doJSON(t, "GET", ts.URL+"/v1/sessions", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	sessions, _ := body["sessions"].([]any)
	if len(sessions) != 1 {
		t.Fatalf("list = %v, want one session", body)
	}

	resp, body = doJSON(t, "GET", ts.URL+"/v1/sessions/telco", "")
	if resp.StatusCode != http.StatusOK || body["name"] != "telco" {
		t.Fatalf("get = %d %v, want 200 telco", resp.StatusCode, body)
	}

	resp, body = doJSON(t, "POST", ts.URL+"/v1/sessions/telco/compress",
		`{"bound":2,"strategy":"greedy"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status = %d: %v", resp.StatusCode, body)
	}
	if body["session"] != "telco" || body["adequate"] != true || body["monomials"] != 2.0 {
		t.Errorf("compress = %v, want adequate 2-monomial run on telco", body)
	}

	resp, body = doJSON(t, "POST", ts.URL+"/v1/sessions/telco/whatif",
		`{"assign":{"q1":0.5}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("whatif status = %d: %v", resp.StatusCode, body)
	}
	if answers, _ := body["answers"].([]any); len(answers) != 1 {
		t.Errorf("whatif answers = %v, want one", body)
	}

	resp, body = doJSON(t, "GET", ts.URL+"/v1/sessions/telco/stats", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var st session.Stats
	raw, _ := json.Marshal(body)
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Compressed || st.Scenarios != 1 || st.Compiles != 1 {
		t.Errorf("stats = %+v, want compressed, 1 scenario, 1 compile", st)
	}

	resp, body = doJSON(t, "DELETE", ts.URL+"/v1/sessions/telco", "")
	if resp.StatusCode != http.StatusOK || body["closed"] != "telco" {
		t.Fatalf("delete = %d %v, want 200 closed=telco", resp.StatusCode, body)
	}
	resp, _ = doJSON(t, "GET", ts.URL+"/v1/sessions/telco", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("get after delete = %d, want 404", resp.StatusCode)
	}
}

func TestV1CreateErrors(t *testing.T) {
	ts, reg := newRegistryServer(t)
	if _, err := reg.Create("taken", testSet(t), nil); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"duplicate name", createBody(t, "taken"), http.StatusConflict},
		{"malformed json", `{"name":`, http.StatusBadRequest},
		{"empty name", createBody(t, ""), http.StatusBadRequest},
		{"reserved character", createBody(t, "a/b"), http.StatusBadRequest},
		{"no source", `{"name":"x"}`, http.StatusBadRequest},
		{"two sources", `{"name":"x","path":"/a","provenance_b64":"AAAA"}`, http.StatusBadRequest},
		{"bad base64", `{"name":"x","provenance_b64":"!!!"}`, http.StatusBadRequest},
		{"path loading disabled", `{"name":"x","path":"file.pvab"}`, http.StatusBadRequest},
		{"bad tree", fmt.Sprintf(`{"name":"x","provenance_b64":%q,"trees":["(("]}`,
			setB64(t, testSet(t))), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := doJSON(t, "POST", ts.URL+"/v1/sessions", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d (%v)", tc.name, resp.StatusCode, tc.status, body)
		}
		if msg, _ := body["error"].(string); msg == "" {
			t.Errorf("%s: no error message in %v", tc.name, body)
		}
	}
	if reg.Len() != 1 {
		t.Errorf("failed creates left %d sessions, want 1", reg.Len())
	}
}

// TestV1CreateFromPath pins the server-side path policy: with a session
// dir configured, relative paths inside it load; absolute and escaping
// paths are rejected, as is everything when the dir is unset (see
// TestV1CreateErrors).
func TestV1CreateFromPath(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "ok.pvab"))
	if err != nil {
		t.Fatal(err)
	}
	if err := provenance.Encode(f, testSet(t)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ts, _ := newRegistryServer(t, WithSessionDir(dir))

	resp, body := doJSON(t, "POST", ts.URL+"/v1/sessions", `{"name":"ok","path":"ok.pvab"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create from path = %d %v, want 201", resp.StatusCode, body)
	}
	for name, path := range map[string]string{
		"absolute":  filepath.Join(dir, "ok.pvab"),
		"traversal": "../ok.pvab",
		"missing":   "nope.pvab",
	} {
		req, err := json.Marshal(map[string]string{"name": "x", "path": path})
		if err != nil {
			t.Fatal(err)
		}
		resp, body := doJSON(t, "POST", ts.URL+"/v1/sessions", string(req))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s path: status = %d, want 400 (%v)", name, resp.StatusCode, body)
		}
	}
}

func TestV1UnknownSession404(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, rt := range []struct{ method, path, body string }{
		{"GET", "/v1/sessions/ghost", ""},
		{"DELETE", "/v1/sessions/ghost", ""},
		{"POST", "/v1/sessions/ghost/whatif", `{"assign":{"m1":1}}`},
		{"POST", "/v1/sessions/ghost/whatif/stream", `{"assign":{"m1":1}}`},
		{"POST", "/v1/sessions/ghost/compress", `{"bound":1}`},
		{"GET", "/v1/sessions/ghost/stats", ""},
	} {
		resp, body := doJSON(t, rt.method, ts.URL+rt.path, rt.body)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status = %d, want 404 (%v)", rt.method, rt.path, resp.StatusCode, body)
		}
	}
	// The unversioned paths name no session, so they are unknown routes
	// even while a session exists.
	for _, rt := range []struct{ method, path, body string }{
		{"POST", "/whatif", `{"assign":{"m1":1}}`},
		{"POST", "/whatif/stream", `{"assign":{"m1":1}}`},
		{"POST", "/compress", `{"bound":1}`},
		{"GET", "/stats", ""},
	} {
		req, err := http.NewRequest(rt.method, ts.URL+rt.path, strings.NewReader(rt.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status = %d, want 404", rt.method, rt.path, resp.StatusCode)
		}
	}
}

// TestMethodNotAllowed sends a wrong method to every route of the surface.
func TestMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, rt := range []struct{ method, path string }{
		{"DELETE", "/v1/sessions"},
		{"POST", "/v1/sessions/default"},
		{"GET", "/v1/sessions/default/whatif"},
		{"GET", "/v1/sessions/default/whatif/stream"},
		{"GET", "/v1/sessions/default/compress"},
		{"POST", "/v1/sessions/default/stats"},
		{"POST", "/v1/stats"},
		{"POST", "/healthz"},
	} {
		req, err := http.NewRequest(rt.method, ts.URL+rt.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status = %d, want 405", rt.method, rt.path, resp.StatusCode)
		}
	}
}

// TestRequestBodyLimits pins the 413 contract on every bounded path.
func TestRequestBodyLimits(t *testing.T) {
	ts, reg := newRegistryServer(t, WithMaxLineBytes(128), WithMaxCreateBytes(256))
	if _, err := reg.Create("default", testSet(t), testForest(t)); err != nil {
		t.Fatal(err)
	}
	// Valid JSON all the way, so the decoder is still reading (not
	// syntax-erroring) when it crosses the byte limit.
	big := `{"assign":{"` + strings.Repeat("m", 300) + `":1}}`
	for _, rt := range []struct{ method, path, body string }{
		{"POST", "/v1/sessions/default/whatif", big},
		{"POST", "/v1/sessions/default/compress", `{"bound":1,"strategy":"` + strings.Repeat("x", 300) + `"}`},
		{"POST", "/v1/sessions", `{"name":"x","provenance_b64":"` + strings.Repeat("A", 300) + `"}`},
	} {
		resp, body := doJSON(t, rt.method, ts.URL+rt.path, rt.body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s: status = %d, want 413 (%v)", rt.method, rt.path, resp.StatusCode, body)
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, "limit") {
			t.Errorf("%s %s: error %q does not mention the limit", rt.method, rt.path, msg)
		}
	}

	// An oversized FIRST stream line still gets a real 413 status …
	resp, body := doJSON(t, "POST", ts.URL+"/v1/sessions/default/whatif/stream", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("stream oversized first line: status = %d, want 413 (%v)", resp.StatusCode, body)
	}
	// … while one arriving mid-stream is reported in-band after the
	// already-computed answers.
	resp2, err := http.Post(ts.URL+"/v1/sessions/default/whatif/stream", "application/x-ndjson",
		strings.NewReader(`{"assign":{"m1":1}}`+"\n"+big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("mid-stream oversized line: status = %d, want 200 + in-band error", resp2.StatusCode)
	}
	var lines []map[string]any
	scan := bufio.NewScanner(resp2.Body)
	for scan.Scan() {
		var l map[string]any
		if err := json.Unmarshal(scan.Bytes(), &l); err != nil {
			t.Fatalf("bad line %q: %v", scan.Text(), err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want answer + terminal error: %v", len(lines), lines)
	}
	if _, ok := lines[0]["answers"]; !ok {
		t.Errorf("first line carries no answers: %v", lines[0])
	}
	if msg, _ := lines[1]["error"].(string); !strings.Contains(msg, "limit") {
		t.Errorf("terminal line = %v, want line-limit error", lines[1])
	}
}

// TestStreamTornDownBySessionClose pins the lifecycle contract: deleting a
// session terminates its in-flight scenario streams. The stream is driven
// over a raw connection because http.Transport buffers small streaming
// request bodies, which would deadlock a pipe-fed request here.
func TestStreamTornDownBySessionClose(t *testing.T) {
	ts, reg := newRegistryServer(t)
	if _, err := reg.Create("default", testSet(t), testForest(t)); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(15 * time.Second))

	// A chunked request that stays open after its first scenario line.
	line := `{"assign":{"m1":1}}` + "\n"
	fmt.Fprintf(conn, "POST /v1/sessions/default/whatif/stream HTTP/1.1\r\n"+
		"Host: test\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n"+
		"%x\r\n%s\r\n", len(line), line)

	// The first answer must arrive while the request body is still open.
	br := bufio.NewReader(conn)
	var got bytes.Buffer
	for !bytes.Contains(got.Bytes(), []byte(`"answers"`)) {
		b, err := br.ReadByte()
		if err != nil {
			t.Fatalf("no first answer (read %q): %v", got.String(), err)
		}
		got.WriteByte(b)
	}

	// Close the session under the live stream; the chunked response must
	// terminate (the "0\r\n\r\n" final chunk) even though the request body
	// never ends.
	if resp, body := doJSON(t, "DELETE", ts.URL+"/v1/sessions/default", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d %v", resp.StatusCode, body)
	}
	for !bytes.Contains(got.Bytes(), []byte("0\r\n\r\n")) {
		b, err := br.ReadByte()
		if err == io.EOF {
			return // server closed the connection outright: also a teardown
		}
		if err != nil {
			t.Fatalf("stream did not terminate after session close (read %q): %v", got.String(), err)
		}
		got.WriteByte(b)
	}
}

// TestAggregateStats pins GET /v1/stats: per-session counters and the
// cross-session totals.
func TestAggregateStats(t *testing.T) {
	ts, reg := newRegistryServer(t)
	for _, name := range []string{"a", "b"} {
		if _, err := reg.Create(name, testSet(t), testForest(t)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if resp, body := doJSON(t, "POST", ts.URL+"/v1/sessions/a/whatif", `{"assign":{"m1":1}}`); resp.StatusCode != 200 {
			t.Fatal(resp.StatusCode, body)
		}
	}
	if resp, body := doJSON(t, "POST", ts.URL+"/v1/sessions/b/whatif", `{"assign":{"m3":2}}`); resp.StatusCode != 200 {
		t.Fatal(resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var agg struct {
		Sessions   int                      `json:"sessions"`
		Totals     session.Stats            `json:"totals"`
		PerSession map[string]session.Stats `json:"per_session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	if agg.Sessions != 2 {
		t.Errorf("sessions = %d, want 2", agg.Sessions)
	}
	if agg.PerSession["a"].Scenarios != 3 || agg.PerSession["b"].Scenarios != 1 {
		t.Errorf("per-session scenarios = %d/%d, want 3/1",
			agg.PerSession["a"].Scenarios, agg.PerSession["b"].Scenarios)
	}
	if agg.Totals.Scenarios != 4 || agg.Totals.Compiles != 2 {
		t.Errorf("totals = %+v, want 4 scenarios / 2 compiles", agg.Totals)
	}
	if agg.Totals.DeltaEvals+agg.Totals.FullEvals != 4 {
		t.Errorf("delta %d + full %d != 4", agg.Totals.DeltaEvals, agg.Totals.FullEvals)
	}
}
