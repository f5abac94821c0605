package gateway

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"testing"
	"time"

	"provabs/internal/provenance"
	"provabs/internal/telco"
	"provabs/internal/treegen"
)

// hopFixture is one telco-s session in perfbench's shape (2,000
// customers, 200 zips, the 2×64 plans tree plus the quarter tree, greedy
// compression at B = |P|/2) on a real backend behind a gateway, and
// one-shot bodies that move 1–3 of its VVS variables.
type hopFixture struct {
	direct, gateway string // base URLs
	name            string
	bodies          [][]byte
}

func newHopFixture(tb testing.TB) *hopFixture {
	tb.Helper()
	set, err := telco.SyntheticProvenance(telco.Config{Customers: 2000, Zips: 200, Plans: 128, Months: 12})
	if err != nil {
		tb.Fatal(err)
	}
	var enc bytes.Buffer
	if err := provenance.Encode(&enc, set); err != nil {
		tb.Fatal(err)
	}
	plans, err := telco.PlansTree(treegen.Shape{Type: 1, Fanouts: []int{2, 64}})
	if err != nil {
		tb.Fatal(err)
	}
	be := newPoolBackend(tb)
	_, gts := newTestGateway(tb, Options{}, be)
	f := &hopFixture{direct: be.ts.URL, gateway: gts.URL, name: "hop"}
	post := func(path string, body any, want int, out any) {
		raw, err := json.Marshal(body)
		if err != nil {
			tb.Fatal(err)
		}
		resp, err := http.Post(gts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			tb.Fatal(err)
		}
		defer resp.Body.Close()
		got, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			tb.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, got)
		}
		if out != nil {
			if err := json.Unmarshal(got, out); err != nil {
				tb.Fatal(err)
			}
		}
	}
	post("/v1/sessions", map[string]any{
		"name":           f.name,
		"provenance_b64": base64.StdEncoding.EncodeToString(enc.Bytes()),
		"trees":          []string{plans.String(), telco.QuarterTree().String()},
	}, http.StatusCreated, nil)
	var comp struct {
		VVS []string `json:"vvs"`
	}
	post("/v1/sessions/"+f.name+"/compress",
		map[string]any{"bound": set.Size() / 2, "strategy": "greedy"}, http.StatusOK, &comp)
	if len(comp.VVS) == 0 {
		tb.Fatal("compress reported no VVS")
	}
	rng := rand.New(rand.NewSource(1))
	for range 64 {
		assign := map[string]float64{}
		for k := 1 + rng.Intn(3); len(assign) < k && len(assign) < len(comp.VVS); {
			assign[comp.VVS[rng.Intn(len(comp.VVS))]] = 0.5 + float64(rng.Intn(101))/100
		}
		body, err := json.Marshal(map[string]any{"assign": assign})
		if err != nil {
			tb.Fatal(err)
		}
		f.bodies = append(f.bodies, body)
	}
	return f
}

// oneShots returns a function that sends the i-th one-shot to base on one
// keep-alive connection and reads its answer whole.
func (f *hopFixture) oneShots(tb testing.TB, base string) func(i int) {
	tr := &http.Transport{}
	tb.Cleanup(tr.CloseIdleConnections)
	client := &http.Client{Transport: tr}
	url := base + "/v1/sessions/" + f.name + "/whatif"
	var buf bytes.Buffer
	return func(i int) {
		resp, err := client.Post(url, "application/json", bytes.NewReader(f.bodies[i%len(f.bodies)]))
		if err != nil {
			tb.Fatal(err)
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			tb.Fatalf("one-shot via %s: status %d, %v: %.200s", base, resp.StatusCode, err, buf.Bytes())
		}
	}
}

// BenchmarkGatewayHop sends telco-s one-shots from one keep-alive client,
// straight to the backend and through the gateway; the difference is the
// hop's cost per one-shot.
func BenchmarkGatewayHop(b *testing.B) {
	f := newHopFixture(b)
	for _, tc := range []struct{ name, base string }{{"direct", f.direct}, {"gateway", f.gateway}} {
		b.Run(tc.name, func(b *testing.B) {
			shot := f.oneShots(b, tc.base)
			shot(0) // dial before timing
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shot(i)
			}
		})
	}
}

// addStream opens a full-duplex add stream to the fixture's session at
// base and returns a function that sends add line i and waits for its
// ack, with one line in flight, as perfbench's feed sends them.
func (f *hopFixture) addStream(tb testing.TB, base string) func(i int) {
	tb.Helper()
	pr, pw := io.Pipe()
	tb.Cleanup(func() { pw.Close() })
	req, err := http.NewRequest(http.MethodPost, base+"/v1/sessions/"+f.name+"/add", pr)
	if err != nil {
		tb.Fatal(err)
	}
	tr := &http.Transport{}
	tb.Cleanup(tr.CloseIdleConnections)
	resps := make(chan *http.Response, 1)
	go func() {
		resp, err := tr.RoundTrip(req)
		if err != nil {
			pw.CloseWithError(err)
			close(resps)
			return
		}
		resps <- resp
	}()
	var acks *bufio.Reader
	rng := rand.New(rand.NewSource(2))
	return func(i int) {
		line := fmt.Sprintf(`{"tag":"a%06d","poly":"%g*pl%d*m%d + %g*pl%d*m%d"}`+"\n",
			i, float64(100+rng.Intn(60000))/100, rng.Intn(128), 1+rng.Intn(12),
			float64(100+rng.Intn(60000))/100, rng.Intn(128), 1+rng.Intn(12))
		if _, err := io.WriteString(pw, line); err != nil {
			tb.Fatal(err)
		}
		if acks == nil {
			resp, ok := <-resps
			if !ok || resp.StatusCode != http.StatusOK {
				tb.Fatalf("add stream via %s did not open", base)
			}
			tb.Cleanup(func() { resp.Body.Close() })
			acks = bufio.NewReader(resp.Body)
		}
		ack, err := acks.ReadBytes('\n')
		if err != nil || !bytes.HasPrefix(ack, []byte(`{"index":`)) || bytes.Contains(ack, []byte("error")) {
			tb.Fatalf("add line %d via %s: ack %q, %v", i, base, ack, err)
		}
	}
}

// BenchmarkAddStream sends add lines in perfbench's feed shape to the
// telco-s session, its index built, with one line in flight on one
// full-duplex stream, straight to the backend and through the gateway,
// and reports each arm's median latency per line.
func BenchmarkAddStream(b *testing.B) {
	f := newHopFixture(b)
	f.oneShots(b, f.direct)(0) // build the index and baseline
	for _, tc := range []struct{ name, base string }{{"direct", f.direct}, {"gateway", f.gateway}} {
		b.Run(tc.name, func(b *testing.B) {
			add := f.addStream(b, tc.base)
			add(-1) // open the stream before timing
			lat := make([]time.Duration, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := range lat {
				start := time.Now()
				add(i)
				lat[i] = time.Since(start)
			}
			b.StopTimer()
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50-µs/line")
		})
	}
}

// TestGatewayHopAllocs bounds what the gateway adds to a telco-s one-shot:
// the allocations of a one-shot through it, less those of the same
// one-shot sent straight to the backend. They were 123 when every call
// went through net/http's Transport.
func TestGatewayHopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates behind the test's back")
	}
	const maxExtra = 80
	f := newHopFixture(t)
	perShot := func(base string) float64 {
		shot := f.oneShots(t, base)
		for i := range 50 {
			shot(i) // warm the pools
		}
		i := 0
		return testing.AllocsPerRun(200, func() { shot(i); i++ })
	}
	direct, gateway := perShot(f.direct), perShot(f.gateway)
	t.Logf("allocations per one-shot: direct %.1f, through the gateway %.1f", direct, gateway)
	if extra := gateway - direct; extra > maxExtra {
		t.Errorf("the gateway adds %.1f allocations per one-shot, want at most %d", extra, maxExtra)
	}
}
