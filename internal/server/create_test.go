package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"provabs/internal/registry"
	"provabs/internal/reqbody"
)

// createBodySeeds are create bodies the lift takes and bodies it must hand
// to encoding/json whole; the gateway's FuzzCreateBody starts from the same
// shapes.
var createBodySeeds = []string{
	`{"name":"a","provenance_b64":"UFZBQgEA","trees":["{x,y}"],"workers":2}`,
	`{"name":"a","snapshot_b64":"UFZTTgE="}`,
	`{"name":"a","provenance_b64":"UFZBQgEA","snapshot_b64":"UFZTTgE="}`,
	`{"name":"a","path":"t.pvab","delta_cutoff":0.5,"stream_buffer":-1}`,
	`{"name":"a","provenance_b64":"UFZ\/QgEA"}`,
	`{"name":"a","provenance_b64":"UFZBQgEA"}`,
	`{"name":"a","Provenance_B64":"UFZBQgEA"}`,
	`{"name":"a","provenance_b64":"UFZBQgEA","provenance_b64":"QQ=="}`,
	`{"NAME":"b","name":"a","provenance_b64":"UFZBQgEA"}`,
	`{"name":"a","provenance_b64":"UFZBQgEA"} trailing`,
	`{"name":"a","provenance_b64":"UFZBQgEA"}{"name":"b"}`,
	`{"name":"a","trees":[{"provenance_b64":"x"}],"provenance_b64":"UFZBQgEA"}`,
	`{"name":"a","provenance_b64":null}`,
	`{"name":"a","provenance_b64":7}`,
	`{"name":7,"provenance_b64":"UFZBQgEA"}`,
	`{"name":"a","provenance_b64":"UFZBQgEA",}`,
	`["name","a"]`,
	` `,
	``,
}

// oneOf is the first of the two strings that is set.
func oneOf(b []byte, s string) string {
	if b != nil {
		return string(b)
	}
	return s
}

// viewOf flattens a decoded request for comparison: the base64 sources as
// strings, wherever they were decoded to.
func viewOf(req *createRequest) createRequest {
	v := *req
	v.ProvenanceB64, v.SnapshotB64 = oneOf(req.provB64, req.ProvenanceB64), oneOf(req.snapB64, req.SnapshotB64)
	v.provB64, v.snapB64 = nil, nil
	return v
}

// FuzzCreateBody checks the server's create decode — one bounded read into
// a buffer sized from Content-Length, the base64 members lifted out, the
// rest through encoding/json — against a json.Decoder streaming the whole
// body through http.MaxBytesReader, as handleCreate decoded it before. The
// request, the status and the error text must agree. The one difference is
// deliberate: a body whose declared length is over the limit is refused
// with 413 before it is read, where the streaming decoder could still have
// decoded a first value that ended inside the limit.
func FuzzCreateBody(f *testing.F) {
	for _, s := range createBodySeeds {
		f.Add([]byte(s), int8(0), false)
		f.Add([]byte(s), int8(-3), true)
	}
	s := New(registry.New(), WithLogger(log.New(&bytes.Buffer{}, "", 0)))
	f.Fuzz(func(t *testing.T, body []byte, slack int8, unknownLength bool) {
		if len(body) > 600 {
			return // past the first 512-byte read of an unknown length; longer bodies only slow minimizing
		}
		limit := max(int64(len(body))+int64(slack), 0)
		request := func() *http.Request {
			r := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body))
			if unknownLength {
				r.ContentLength = -1
			}
			return r
		}

		gotW := httptest.NewRecorder()
		got, err := decodeCreate(reqbody.Read(gotW, request(), limit))
		gotOK := s.decoded(gotW, request(), err, "create request")

		wantW := httptest.NewRecorder()
		var want createRequest
		werr := json.NewDecoder(http.MaxBytesReader(wantW, request().Body, limit)).Decode(&want)
		wantOK := s.decoded(wantW, request(), werr, "create request")

		if !unknownLength && int64(len(body)) > limit {
			var tooBig *http.MaxBytesError
			if !errors.As(err, &tooBig) || gotW.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("declared length %d over the limit %d: got %d %q", len(body), limit, gotW.Code, gotW.Body)
			}
			return
		}
		if gotOK != wantOK || gotW.Code != wantW.Code || gotW.Body.String() != wantW.Body.String() {
			t.Fatalf("got %v %d %q, want %v %d %q", gotOK, gotW.Code, gotW.Body, wantOK, wantW.Code, wantW.Body)
		}
		if gotOK {
			if g := viewOf(got); !reflect.DeepEqual(g, want) {
				t.Fatalf("decoded %+v, want %+v", g, want)
			}
		}
	})
}

// BenchmarkCreateBody times the server reading a telco-sized create body
// (about 4 MB of base64 beside a name and two trees), decoding it, and
// decoding its base64 into the bytes provenance.DecodeBytes would parse.
func BenchmarkCreateBody(b *testing.B) {
	body := benchCreateBody()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		r := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body))
		req, err := decodeCreate(reqbody.Read(nil, r, defaultMaxCreateBytes))
		if err != nil {
			b.Fatalf("decode: %v", err)
		}
		if raw, err := unbase64(req.provB64); err != nil || len(raw) == 0 {
			b.Fatalf("base64: %v", err)
		}
	}
}

// benchCreateBody is a create body shaped like perfbench's telco-m create.
func benchCreateBody() []byte {
	b64 := bytes.Repeat([]byte("QUJDREVGR0hJSktMTU5PUFFSU1RVVldYWVo0NTY3"), 4_200_000/40)
	body, err := json.Marshal(map[string]any{
		"name":           "telco-m",
		"provenance_b64": string(b64),
		"trees":          []string{"{a:{b,c}}", "{q1:{m1,m2,m3}}"},
	})
	if err != nil {
		panic(err)
	}
	return body
}
