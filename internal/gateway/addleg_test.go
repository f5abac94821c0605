package gateway

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"provabs/internal/registry"
	"provabs/internal/server"
)

// addStream is one client add stream through the gateway: lines go in on
// a pipe, acks come back on a scanner.
type addStream struct {
	pw     *io.PipeWriter
	cancel context.CancelFunc
	resp   *http.Response
	acks   *bufio.Scanner
	next   int
}

// openAddStream posts an add stream for name with extra request headers
// and sends its first line (response headers flush with the first ack).
func openAddStream(t *testing.T, base, name string, header http.Header) *addStream {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sessions/"+name+"/add", pr)
	if err != nil {
		t.Fatal(err)
	}
	for k, vv := range header {
		req.Header[k] = vv
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	s := &addStream{pw: pw, cancel: cancel}
	go s.send(t, 0)
	if s.resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	if s.resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(s.resp.Body)
		t.Fatalf("add stream: status %d: %s", s.resp.StatusCode, body)
	}
	s.acks = bufio.NewScanner(s.resp.Body)
	t.Cleanup(func() {
		cancel()
		pw.Close()
		s.resp.Body.Close()
	})
	return s
}

func (s *addStream) send(t *testing.T, i int) {
	line := fmt.Sprintf(`{"tag":"add-%d","poly":"%d*p1*m1"}`+"\n", i, i+2)
	if _, err := io.WriteString(s.pw, line); err != nil {
		t.Errorf("sending line %d: %v", i, err)
	}
}

// ack waits for the next line's ack.
func (s *addStream) ack(t *testing.T) {
	t.Helper()
	if !s.acks.Scan() {
		t.Fatalf("ack %d: stream ended: %v", s.next, s.acks.Err())
	}
	var a struct {
		Index *int   `json:"index"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(s.acks.Bytes(), &a); err != nil || a.Index == nil || *a.Index != s.next || a.Error != "" {
		t.Fatalf("ack %d: got %q (%v)", s.next, s.acks.Text(), err)
	}
	s.next++
}

// parkedOnPipe counts goroutines blocked reading an io.Pipe.
func parkedOnPipe() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "io.(*pipe).read(")
}

// TestGatewayAddLegClosedOnClientLoss is the regression test for the add
// leg leak: a client that vanishes mid-stream fails the proxy, which
// cancelled the leg but left its pipe open, so the leg's transport
// goroutine stayed parked reading the pipe forever. The failure now
// closes the pipe: once the handler has returned, no goroutine the stream
// started is left reading one.
func TestGatewayAddLegClosedOnClientLoss(t *testing.T) {
	b1 := newPoolBackend(t)
	g, gts := newTestGateway(t, Options{}, b1)
	const name = "vanish"
	if resp := createSession(t, gts.URL, name, ""); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	before := parkedOnPipe()
	s := openAddStream(t, gts.URL, name, nil)
	s.ack(t)

	// The client vanishes mid-stream. Its own pipe stays open until the
	// gateway's handler has returned: closing it first would end the
	// body cleanly instead.
	s.cancel()
	s.resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for live := 1; live > 0; {
		g.mu.RLock()
		live = len(g.addProxies[name])
		g.mu.RUnlock()
		if time.Now().After(deadline) {
			t.Fatal("the gateway's add handler did not return after the client vanished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.pw.Close() // releases the client transport's own reader of the test pipe
	for {
		n := parkedOnPipe() - before
		if n <= 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) left parked reading a pipe after the handler returned", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// headerRecorder is a pool backend that records the headers of every add
// stream it receives.
type headerRecorder struct {
	*poolBackend
	mu   sync.Mutex
	seen []http.Header
}

func newHeaderRecorder(t *testing.T) *headerRecorder {
	t.Helper()
	reg := registry.New()
	inner := server.New(reg).Handler()
	hr := &headerRecorder{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/add") {
			hr.mu.Lock()
			hr.seen = append(hr.seen, r.Header.Clone())
			hr.mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	hr.poolBackend = &poolBackend{ts: ts, reg: reg}
	return hr
}

func (hr *headerRecorder) addHeaders() []http.Header {
	hr.mu.Lock()
	defer hr.mu.Unlock()
	return append([]http.Header(nil), hr.seen...)
}

// TestGatewayAddLegForwardsHeaders: the add proxy's legs carry the
// client's end-to-end headers, hop-by-hop headers stripped, on the first
// leg and on the leg that resumes the stream on the new holder after a
// live migration.
func TestGatewayAddLegForwardsHeaders(t *testing.T) {
	b1, b2 := newHeaderRecorder(t), newHeaderRecorder(t)
	g, gts := newTestGateway(t, Options{QuiesceTimeout: 5 * time.Second}, b1.poolBackend, b2.poolBackend)
	const name = "traced"
	if resp := createSession(t, gts.URL, name, ""); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	holder, survivor := b1, b2
	if g.placementsSnapshot()[name] == b2.addr() {
		holder, survivor = b2, b1
	}

	s := openAddStream(t, gts.URL, name, http.Header{
		"X-Perfbench-Span":    {"span-7"},
		"X-Request-Id":        {"req-42"},
		"Proxy-Authorization": {"Basic c2VjcmV0"},
	})
	s.ack(t)

	drain, err := http.Post(gts.URL+"/gateway/backends/"+holder.addr()+"/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(drain.Body)
	drain.Body.Close()
	if drain.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d: %s", drain.StatusCode, body)
	}
	s.send(t, 1)
	s.ack(t)

	for _, leg := range []struct {
		name string
		b    *headerRecorder
	}{{"first leg", holder}, {"leg after migration", survivor}} {
		seen := leg.b.addHeaders()
		if len(seen) != 1 {
			t.Fatalf("%s: backend saw %d add streams, want 1", leg.name, len(seen))
		}
		h := seen[0]
		if h.Get("X-Perfbench-Span") != "span-7" || h.Get("X-Request-Id") != "req-42" {
			t.Errorf("%s: end-to-end headers not forwarded: %v", leg.name, h)
		}
		if h.Get("Proxy-Authorization") != "" {
			t.Errorf("%s: hop-by-hop Proxy-Authorization forwarded", leg.name)
		}
		if h.Get("Content-Type") != "application/x-ndjson" {
			t.Errorf("%s: Content-Type = %q", leg.name, h.Get("Content-Type"))
		}
	}
}
