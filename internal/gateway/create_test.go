package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"
)

// wholeCreateBody is createBody as it read a create body before the lift:
// io.ReadAll through http.MaxBytesReader, then json.Unmarshal of the whole
// body. FuzzCreateBody holds createBody to it.
func (g *Gateway) wholeCreateBody(w http.ResponseWriter, r *http.Request) (body []byte, name string, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.opts.MaxCreateBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			g.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("create: request body exceeds the %d-byte limit", tooBig.Limit))
			return nil, "", false
		}
		g.writeError(w, http.StatusBadRequest, fmt.Errorf("create: reading body: %w", err))
		return nil, "", false
	}
	var req createName
	if err := json.Unmarshal(body, &req); err != nil {
		g.writeError(w, http.StatusBadRequest, fmt.Errorf("create: bad request body: %w", err))
		return nil, "", false
	}
	if req.Name == "" {
		g.writeError(w, http.StatusBadRequest, fmt.Errorf("create: the gateway requires a session name to route by"))
		return nil, "", false
	}
	return body, req.Name, true
}

// FuzzCreateBody checks the gateway's read of a create body — one bounded
// read with readBody, the base64 members lifted out before json.Unmarshal
// — against reading it whole. The name, the
// status and the error text must agree, for bodies of declared and of
// unknown length on both sides of the limit; json.Unmarshal still rejects
// trailing bytes, which the server's streaming decoder ignores.
func FuzzCreateBody(f *testing.F) {
	for _, s := range []string{
		`{"name":"a","provenance_b64":"UFZBQgEA","trees":["{x,y}"],"workers":2}`,
		`{"name":"a","snapshot_b64":"UFZTTgE="}`,
		`{"name":"a","provenance_b64":"UFZ\/QgEA","snapshot_b64":"UFZTTgE="}`,
		`{"name":"a","provenance_b64":"UFZBQgEA"}`,
		`{"Name":"a","Provenance_B64":"UFZBQgEA"}`,
		`{"name":"a","provenance_b64":"UFZBQgEA","provenance_b64":"QQ=="}`,
		`{"name":"a","name":"b","provenance_b64":"UFZBQgEA"}`,
		`{"name":"a","provenance_b64":"UFZBQgEA"} trailing`,
		`{"name":"a","trees":[{"provenance_b64":"x"}],"snapshot_b64":7}`,
		`{"name":"","provenance_b64":"UFZBQgEA"}`,
		`{"provenance_b64":"UFZBQgEA"}`,
		`{"name":"a","provenance_b64":"UFZBQgEA",}`,
		`"name"`,
		``,
	} {
		f.Add([]byte(s), int8(0), false)
		f.Add([]byte(s), int8(-3), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, slack int8, unknownLength bool) {
		if len(body) > 600 {
			return // past the first 512-byte read of an unknown length; longer bodies only slow minimizing
		}
		g := &Gateway{opts: Options{
			MaxCreateBytes: max(int64(len(body))+int64(slack), 0),
			Logger:         log.New(io.Discard, "", 0),
		}}
		request := func() *http.Request {
			r := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body))
			if unknownLength {
				r.ContentLength = -1
			}
			return r
		}
		gotW, wantW := httptest.NewRecorder(), httptest.NewRecorder()
		gotBody, gotName, gotOK := g.createBody(gotW, request())
		wantBody, wantName, wantOK := g.wholeCreateBody(wantW, request())
		if gotOK != wantOK || gotName != wantName || !bytes.Equal(gotBody, wantBody) ||
			gotW.Code != wantW.Code || gotW.Body.String() != wantW.Body.String() {
			t.Fatalf("got %v %q %d %q, want %v %q %d %q",
				gotOK, gotName, gotW.Code, gotW.Body, wantOK, wantName, wantW.Code, wantW.Body)
		}
	})
}

// BenchmarkCreateBody times the gateway reading a telco-sized create body
// and the name in it: about 4 MB of base64 beside a name and two trees.
func BenchmarkCreateBody(b *testing.B) {
	b64 := bytes.Repeat([]byte("QUJDREVGR0hJSktMTU5PUFFSU1RVVldYWVo0NTY3"), 4_200_000/40)
	body, err := json.Marshal(map[string]any{
		"name":           "telco-m",
		"provenance_b64": string(b64),
		"trees":          []string{"{a:{b,c}}", "{q1:{m1,m2,m3}}"},
	})
	if err != nil {
		b.Fatal(err)
	}
	g := &Gateway{opts: Options{MaxCreateBytes: 64 << 20, Logger: log.New(io.Discard, "", 0)}}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		r := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body))
		if _, name, ok := g.createBody(httptest.NewRecorder(), r); !ok || name != "telco-m" {
			b.Fatal("createBody failed")
		}
	}
}
