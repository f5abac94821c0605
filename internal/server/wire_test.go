package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/registry"
	"provabs/internal/telco"
)

// nanSet's first polynomial is Inf − Inf (NaN) at x = y = 10.
func nanSet() *provenance.Set {
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	set.Add("nan", provenance.MustParse(vb, "1e308·x - 1e308·y"))
	set.Add("ok", provenance.MustParse(vb, "x"))
	return set
}

func postBody(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestNaNAnswers is the regression test for NaN answers, which
// encoding/json refused: a one-shot and a /query document answered 200
// with an empty body, a what-if stream dropped that line and every later
// one, and a query stream ended after its header. NaN is now the string
// "NaN", beside "+Inf"/"-Inf", on every answer endpoint.
func TestNaNAnswers(t *testing.T) {
	reg := registry.New()
	if _, err := reg.Create("n", nanSet(), nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg).Handler())
	defer ts.Close()
	const nanRow = `[{"tag":"nan","value":"NaN"},{"tag":"ok","value":10}]`
	const okRow = `[{"tag":"nan","value":0},{"tag":"ok","value":1}]`
	for _, tc := range []struct{ path, body, want string }{
		{"/whatif", `{"assign":{"x":10,"y":10}}`, `{"answers":` + nanRow + "}\n"},
		{"/whatif/stream", `{"assign":{"x":10,"y":10}}` + "\n" + `{"assign":{"x":1,"y":1}}`,
			`{"index":0,"answers":` + nanRow + "}\n" + `{"index":1,"answers":` + okRow + "}\n"},
		{"/query", `{"query":"CROSS (x,y) IN {(10,10),(1,1)}"}`,
			`{"semiring":"float","scenarios":2,"rows":[` +
				`{"index":0,"assign":{"x":10,"y":10},"answers":` + nanRow + `},` +
				`{"index":1,"assign":{"x":1,"y":1},"answers":` + okRow + "}]}\n"},
		{"/query/stream", `{"query":"CROSS (x,y) IN {(10,10),(1,1)}"}`,
			`{"semiring":"float","scenarios":2}` + "\n" +
				`{"index":0,"assign":{"x":10,"y":10},"answers":` + nanRow + "}\n" +
				`{"index":1,"assign":{"x":1,"y":1},"answers":` + okRow + "}\n"},
	} {
		status, got := postBody(t, ts.URL+"/v1/sessions/n"+tc.path, tc.body)
		if status != http.StatusOK || got != tc.want {
			t.Errorf("%s: status %d, body\n%s\nwant 200, body\n%s", tc.path, status, got, tc.want)
		}
	}
}

// TestBufferedBodiesCarryContentLength: one-shot and /query bodies are
// complete before the status line, so even a body far past net/http's
// chunking buffer goes out with a Content-Length, not chunked.
func TestBufferedBodiesCarryContentLength(t *testing.T) {
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	for i := range 300 {
		set.Add(fmt.Sprintf("zip %05d", 10000+i), provenance.MustParse(vb, fmt.Sprintf("%d·x·y + 0.5·y", i+1)))
	}
	reg := registry.New()
	if _, err := reg.Create("big", set, nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg).Handler())
	defer ts.Close()
	for _, tc := range []struct{ path, body string }{
		{"/v1/sessions/big/whatif", `{"assign":{"x":0.5}}`},
		{"/v1/sessions/big/query", `{"query":"x IN [0:1:0.5]"}`},
		{"/v1/sessions/big/whatif", `{"assign":{"nosuch":1}}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s %s: Content-Length %d, Transfer-Encoding %v, body %d bytes",
				tc.path, tc.body, resp.ContentLength, resp.TransferEncoding, len(raw))
		}
	}
}

// benchRow is n tagged answers in the carrier of vals' type.
func benchRow[T any](n int, val func(int) T) hypo.Row {
	tags := make([]string, n)
	vals := make([]T, n)
	for i := range tags {
		tags[i] = fmt.Sprintf("zip %05d", 10000+i)
		vals[i] = val(i)
	}
	return hypo.RowOf(tags, vals, nil)
}

// splicedRow is row with a baseline from which pct % of its answers,
// spread over the row, differ: it encodes to row's bytes, spliced.
func splicedRow(row hypo.Row, pct int) hypo.Row {
	base := slices.Clone(row.Values.([]float64))
	for j := range base {
		if j*7919%100 < pct {
			base[j] *= 1.1
		}
	}
	row.Base = hypo.NewBaseline(row.Tags, base)
	return row
}

// BenchmarkAnswerEncode appends one-shot bodies of 200 answers (a telco-s
// one-shot) and 2,000 (a telco-m row) into a reused buffer: plain rows in
// two carriers, and the float row spliced from a baseline with 0 %, 22 %
// and 100 % of its answers changed, which encodes to the same bytes.
func BenchmarkAnswerEncode(b *testing.B) {
	for _, n := range []int{200, 2000} {
		float := benchRow(n, func(i int) float64 { return 1234.5678 * float64(i+1) / 7 })
		for _, c := range []struct {
			name string
			row  hypo.Row
		}{
			{"float", float},
			{"count", benchRow(n, func(i int) int64 { return int64(i) * 37 })},
			{"spliced-0", splicedRow(float, 0)},
			{"spliced-22", splicedRow(float, 22)},
			{"spliced-100", splicedRow(float, 100)},
		} {
			b.Run(fmt.Sprintf("%s/%d", c.name, n), func(b *testing.B) {
				b.ReportAllocs()
				var buf []byte
				for i := 0; i < b.N; i++ {
					buf = appendWhatIf(buf[:0], c.row)
				}
				b.SetBytes(int64(len(buf)))
			})
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so a handler
// benchmark counts the handler's own allocations.
type discardWriter struct {
	h http.Header
	n int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// BenchmarkWhatIfHandler runs one-shots through Server.Handler() on an
// uncompressed telco session: telco-s (200 zips, 200 answers) and a
// 2,000-zip set (2,000 answers). The dense one-shot moves a month, which
// every answer depends on; the sparse one moves two plans, as most
// one-shots do, and leaves most answers at the baseline.
func BenchmarkWhatIfHandler(b *testing.B) {
	for _, c := range []struct {
		name string
		zips int
		body string
	}{
		{"answers=200", 200, `{"assign":{"m3":0.8,"pl7":1.1}}`},
		{"answers=2000", 2000, `{"assign":{"m3":0.8,"pl7":1.1}}`},
		{"sparse/answers=200", 200, `{"assign":{"pl7":1.1,"pl42":0.9}}`},
		{"sparse/answers=2000", 2000, `{"assign":{"pl7":1.1,"pl42":0.9}}`},
	} {
		b.Run(c.name, func(b *testing.B) {
			zips := c.zips
			set, err := telco.SyntheticProvenance(telco.Config{Customers: 10 * zips, Zips: zips, Plans: 128, Months: 12, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			reg := registry.New()
			if _, err := reg.Create("t", set, nil); err != nil {
				b.Fatal(err)
			}
			h := New(reg).Handler()
			body := []byte(c.body)
			w := &discardWriter{h: http.Header{}}
			oneShot := func() {
				clear(w.h)
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sessions/t/whatif", bytes.NewReader(body)))
			}
			oneShot() // compile the kernel outside the timed loop
			if w.n == 0 {
				b.Fatal("no response body")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				oneShot()
			}
		})
	}
}
