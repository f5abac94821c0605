package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// connCount follows a backend's connections: how many were accepted and
// how many are open.
type connCount struct {
	accepted, open atomic.Int64
}

// newCountingBackend serves h and counts its connections.
func newCountingBackend(t *testing.T, h http.HandlerFunc) (*poolBackend, *connCount) {
	t.Helper()
	cc := &connCount{}
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			cc.accepted.Add(1)
			cc.open.Add(1)
		case http.StateClosed, http.StateHijacked:
			cc.open.Add(-1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return &poolBackend{ts: ts}, cc
}

// idleLen reports how many connections are idle.
func (p *connPool) idleLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// echo answers every call with its method, request-URI and body, so a
// response that reached the wrong caller shows.
func echo(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	fmt.Fprintf(w, "%s %s %s", r.Method, r.URL.RequestURI(), body)
}

// send makes one call through the gateway and returns its status and
// body.
func send(t *testing.T, client *http.Client, method, url string, body []byte, header http.Header) (int, http.Header, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, vv := range header {
		req.Header[k] = vv
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(got)
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGatewayPoolStaleRedial: a backend that drops its idle connections
// between calls costs the next one-shot a redial inside its attempt, not
// a retry or a breaker failure, and the redial is counted.
func TestGatewayPoolStaleRedial(t *testing.T) {
	be, cc := newCountingBackend(t, echo)
	g, gts := newTestGateway(t, Options{}, be)
	url := gts.URL + "/v1/sessions/x/stats"
	for i := range 2 {
		if status, _, body := send(t, http.DefaultClient, http.MethodGet, url, nil, nil); status != http.StatusOK || body != "GET /v1/sessions/x/stats " {
			t.Fatalf("call %d: status %d body %q", i, status, body)
		}
		be.ts.CloseClientConnections()
	}
	if got := g.retries.Load(); got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}
	if state, trips := g.lookup(be.addr()).breaker.snapshot(); state != "closed" || trips != 0 {
		t.Errorf("breaker %s after %d trips, want closed after none", state, trips)
	}
	var backends struct {
		Resilience struct {
			StaleRedials int64 `json:"stale_redials"`
		} `json:"resilience"`
	}
	_, _, raw := send(t, http.DefaultClient, http.MethodGet, gts.URL+"/gateway/backends", nil, nil)
	if err := json.Unmarshal([]byte(raw), &backends); err != nil {
		t.Fatal(err)
	}
	if backends.Resilience.StaleRedials != 1 {
		t.Errorf("stale_redials = %d, want 1: %s", backends.Resilience.StaleRedials, raw)
	}
	if got := cc.accepted.Load(); got != 2 {
		t.Errorf("backend accepted %d connections, want 2", got)
	}
	g.Stop()
	waitFor(t, "Stop to close the pooled connection", func() bool { return cc.open.Load() == 0 })
}

// TestGatewayPoolStall: a backend that stalls on a reused connection,
// before its status line or mid-body, fails the call once AttemptTimeout
// has passed. The stall is not taken for a stale connection: nothing is
// redialled or sent twice. The connection is closed, not pooled, so the
// next call dials afresh.
func TestGatewayPoolStall(t *testing.T) {
	const timeout = 200 * time.Millisecond
	var stalls atomic.Int64
	hungUp := make(chan struct{}, 1)
	be, cc := newCountingBackend(t, func(w http.ResponseWriter, r *http.Request) {
		mode := r.URL.Query().Get("stall")
		if mode == "" {
			echo(w, r)
			return
		}
		stalls.Add(1)
		if mode == "body" {
			w.Header().Set("Content-Length", "100")
			w.Write([]byte("0123456789")) //nolint:errcheck
			w.(http.Flusher).Flush()
		}
		select {
		case <-r.Context().Done():
			hungUp <- struct{}{}
		case <-time.After(10 * time.Second):
		}
	})
	g, gts := newTestGateway(t, Options{
		Retry:            RetryPolicy{MaxAttempts: 1, AttemptTimeout: timeout},
		BreakerThreshold: 100,
	}, be)
	url := gts.URL + "/v1/sessions/x/stats"
	for i, mode := range []string{"status", "body"} {
		if status, _, body := send(t, http.DefaultClient, http.MethodGet, url, nil, nil); status != http.StatusOK {
			t.Fatalf("%s: call before the stall: status %d: %s", mode, status, body)
		}
		start := time.Now()
		status, _, body := send(t, http.DefaultClient, http.MethodGet, url+"?stall="+mode, nil, nil)
		took := time.Since(start)
		if status != http.StatusBadGateway {
			t.Fatalf("%s: stalled call: status %d: %s", mode, status, body)
		}
		if took < timeout || took > 10*timeout {
			t.Errorf("%s: stalled call failed after %v, want about the %v attempt timeout", mode, took, timeout)
		}
		select {
		case <-hungUp:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: the gateway kept the stalled connection open", mode)
		}
		if n := g.lookup(be.addr()).pool.idleLen(); n != 0 {
			t.Fatalf("%s: %d connection(s) pooled after the stalled call", mode, n)
		}
		if got := stalls.Load(); got != int64(i+1) {
			t.Errorf("%s: the backend saw %d stalled calls, want %d", mode, got, i+1)
		}
		if got := g.staleRedials.Load(); got != 0 {
			t.Errorf("%s: stale_redials = %d, want 0", mode, got)
		}
	}
	if status, _, body := send(t, http.DefaultClient, http.MethodGet, url, nil, nil); status != http.StatusOK {
		t.Fatalf("call after the stalls: status %d: %s", status, body)
	}
	if got := cc.accepted.Load(); got != 3 {
		t.Errorf("backend accepted %d connections, want 3: one per stall and one after", got)
	}
}

// TestGatewayPoolClientCancel: a client that gives up mid-call returns at
// once, the gateway hangs up on the backend promptly, its handler
// returns, and no goroutine is left behind.
func TestGatewayPoolClientCancel(t *testing.T) {
	hungUp := make(chan struct{}, 1)
	be, _ := newCountingBackend(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("hold") == "" {
			echo(w, r)
			return
		}
		select {
		case <-r.Context().Done():
			hungUp <- struct{}{}
		case <-time.After(10 * time.Second):
		}
	})
	g, gts := newTestGateway(t, Options{}, be)
	url := gts.URL + "/v1/sessions/x/stats"
	if status, _, _ := send(t, http.DefaultClient, http.MethodGet, url, nil, nil); status != http.StatusOK {
		t.Fatalf("warm-up call: status %d", status)
	}
	before := runtime.NumGoroutine()

	tr := &http.Transport{}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"?hold=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if resp, err := (&http.Client{Transport: tr}).Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("cancelled call answered %d", resp.StatusCode)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("cancelled call returned after %v", took)
	}
	tr.CloseIdleConnections()
	select {
	case <-hungUp:
	case <-time.After(time.Second):
		t.Fatal("the gateway did not hang up on the backend after the client left")
	}
	b := g.lookup(be.addr())
	waitFor(t, "the gateway's handler to return", func() bool { return len(b.inflight) == 0 })
	waitFor(t, "the call's goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
	if n := b.pool.idleLen(); n != 0 {
		t.Errorf("%d connection(s) pooled after the cancelled call", n)
	}
}

// TestGatewayPoolFraming: a client's Expect: 100-continue, a HEAD, an
// interim 103 and a backend's Connection: close each leave the pooled
// connections in step with their responses.
func TestGatewayPoolFraming(t *testing.T) {
	var expects atomic.Int64
	be, cc := newCountingBackend(t, func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Expect") != "" {
			expects.Add(1)
		}
		q := r.URL.Query()
		if q.Get("close") != "" {
			w.Header().Set("Connection", "close")
		}
		if q.Get("hint") != "" {
			w.Header().Set("Link", "</style.css>; rel=preload")
			w.WriteHeader(http.StatusEarlyHints)
		}
		echo(w, r)
	})
	g, gts := newTestGateway(t, Options{}, be)
	stats := gts.URL + "/v1/sessions/x/stats"
	for _, tc := range []struct {
		name     string
		method   string
		url      string
		body     []byte
		header   http.Header
		want     string
		accepted int64
	}{
		{"first call dials", http.MethodGet, stats, nil, nil, "GET /v1/sessions/x/stats ", 1},
		{"expect 100-continue", http.MethodPost, gts.URL + "/v1/sessions/x/whatif", []byte(`{"assign":{}}`),
			http.Header{"Expect": {"100-continue"}}, `POST /v1/sessions/x/whatif {"assign":{}}`, 1},
		{"head", http.MethodHead, stats, nil, nil, "", 1},
		{"after head", http.MethodGet, stats, nil, nil, "GET /v1/sessions/x/stats ", 1},
		{"interim 103", http.MethodGet, stats + "?hint=1", nil, nil, "GET /v1/sessions/x/stats?hint=1 ", 1},
		{"connection close", http.MethodGet, stats + "?close=1", nil, nil, "GET /v1/sessions/x/stats?close=1 ", 1},
		{"after close", http.MethodGet, stats, nil, nil, "GET /v1/sessions/x/stats ", 2},
	} {
		status, hdr, body := send(t, http.DefaultClient, tc.method, tc.url, tc.body, tc.header)
		if status != http.StatusOK || body != tc.want {
			t.Fatalf("%s: status %d body %q, want 200 %q", tc.name, status, body, tc.want)
		}
		if tc.method == http.MethodHead && hdr.Get("Content-Length") != "26" {
			t.Errorf("%s: Content-Length %q, want the backend's 26", tc.name, hdr.Get("Content-Length"))
		}
		if got := cc.accepted.Load(); got != tc.accepted {
			t.Fatalf("%s: backend accepted %d connections, want %d", tc.name, got, tc.accepted)
		}
	}
	if n := expects.Load(); n != 0 {
		t.Errorf("the backend saw Expect on %d call(s)", n)
	}
	if n := g.staleRedials.Load(); n != 0 {
		t.Errorf("stale_redials = %d, want 0", n)
	}
}

// TestGatewayPoolConcurrent runs one-shots from many goroutines on two
// backends and removes one backend mid-run: every caller gets its own
// answer, and the removed backend's connections all close.
func TestGatewayPoolConcurrent(t *testing.T) {
	be1, cc1 := newCountingBackend(t, echo)
	be2, cc2 := newCountingBackend(t, echo)
	g, gts := newTestGateway(t, Options{}, be1, be2)
	const workers, calls = 16, 40
	var done atomic.Int64
	removed := make(chan struct{})
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				if done.Add(1) == workers*calls/2 {
					req, _ := http.NewRequest(http.MethodDelete, gts.URL+"/gateway/backends/"+be1.addr(), nil)
					resp, err := http.DefaultClient.Do(req)
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("removing %s: %v", be1.addr(), err)
					} else {
						resp.Body.Close()
					}
					close(removed)
				}
				name := fmt.Sprintf("s%d", (w*calls+i)%10)
				method, uri, body := http.MethodGet, fmt.Sprintf("/v1/sessions/%s/stats?call=%d-%d", name, w, i), ""
				if i%2 == 1 {
					method, uri, body = http.MethodPost, "/v1/sessions/"+name+"/whatif", fmt.Sprintf(`{"call":"%d-%d"}`, w, i)
				}
				req, _ := http.NewRequest(method, gts.URL+uri, strings.NewReader(body))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("%s %s: %v", method, uri, err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if want := method + " " + uri + " " + body; err != nil || resp.StatusCode != http.StatusOK || string(got) != want {
					t.Errorf("%s %s: status %d body %q (%v), want %q", method, uri, resp.StatusCode, got, err, want)
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-removed:
	default:
		t.Fatal("the run ended before the backend was removed")
	}
	waitFor(t, "the removed backend's connections to close", func() bool { return cc1.open.Load() == 0 })
	if cc1.accepted.Load() == 0 || cc2.accepted.Load() == 0 {
		t.Errorf("connections accepted: %d and %d, want calls on both backends", cc1.accepted.Load(), cc2.accepted.Load())
	}
	if n := g.lookup(be2.addr()).pool.idleLen(); n > maxIdlePerBackend {
		t.Errorf("%d idle connections pooled, want at most %d", n, maxIdlePerBackend)
	}
}

// TestGatewayConnectionListedHeaders: the fields a message's Connection
// header names are hop-by-hop and stop at the gateway, both ways, on a
// one-shot and on a stream; the end-to-end fields cross.
func TestGatewayConnectionListedHeaders(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]http.Header{}
	be, _ := newCountingBackend(t, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.URL.Path] = r.Header.Clone()
		mu.Unlock()
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		w.Header().Set("Connection", "X-Back")
		w.Header().Set("X-Back", "1")
		w.Header().Set("X-Kept", "1")
		fmt.Fprintln(w, `{"index":0}`)
	})
	_, gts := newTestGateway(t, Options{}, be)
	for _, verb := range []string{"whatif", "whatif/stream"} {
		path := "/v1/sessions/x/" + verb
		status, hdr, body := send(t, http.DefaultClient, http.MethodPost, gts.URL+path, []byte(`{"assign":{}}`+"\n"), http.Header{
			"Connection":       {"X-Drop"},
			"X-Drop":           {"1"},
			"X-Tenant":         {"t1"},
			"X-Perfbench-Span": {"7 whatif"},
		})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", verb, status, body)
		}
		if hdr.Get("X-Back") != "" || hdr.Get("X-Kept") != "1" {
			t.Errorf("%s: response X-Back %q X-Kept %q, want the Connection-listed field stripped and the other kept",
				verb, hdr.Get("X-Back"), hdr.Get("X-Kept"))
		}
		mu.Lock()
		h := seen[path]
		mu.Unlock()
		if h.Get("X-Drop") != "" || h.Get("Connection") != "" {
			t.Errorf("%s: the backend saw X-Drop %q Connection %q", verb, h.Get("X-Drop"), h.Get("Connection"))
		}
		if h.Get("X-Tenant") != "t1" || h.Get("X-Perfbench-Span") != "7 whatif" {
			t.Errorf("%s: end-to-end headers not forwarded: %v", verb, h)
		}
	}
}

// TestGatewayFanOutStalledBackend: GET /v1/stats and GET /v1/sessions
// answer within the attempt timeout when a backend accepts connections
// and never replies: stats reports it as unreachable, the list skips it
// and logs it.
func TestGatewayFanOutStalledBackend(t *testing.T) {
	live := newPoolBackend(t)
	if resp := createSession(t, live.ts.URL, "kept", ""); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		held []net.Conn
	)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	stalled := ln.Addr().String()
	for _, path := range []string{"/v1/stats", "/v1/sessions"} {
		t.Run(strings.TrimPrefix(path, "/v1/"), func(t *testing.T) {
			var logs syncBuffer
			g, err := New([]string{live.addr(), stalled}, Options{
				Retry:  RetryPolicy{AttemptTimeout: 200 * time.Millisecond, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond},
				Logger: log.New(&logs, "", 0),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(g.Stop)
			gts := httptest.NewServer(g.Handler())
			t.Cleanup(gts.Close)
			// Release the stalled backend's connections before the gateway's
			// server closes, which waits for its handlers.
			t.Cleanup(func() {
				mu.Lock()
				defer mu.Unlock()
				for _, c := range held {
					c.Close()
				}
			})
			status, _, body := send(t, &http.Client{Timeout: 3 * time.Second}, http.MethodGet, gts.URL+path, nil, nil)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			var out struct {
				Backends    map[string]json.RawMessage `json:"backends"`
				Unreachable map[string]string          `json:"unreachable"`
				Sessions    []struct {
					Name string `json:"name"`
				} `json:"sessions"`
			}
			if err := json.Unmarshal([]byte(body), &out); err != nil {
				t.Fatal(err)
			}
			if path == "/v1/stats" {
				if _, ok := out.Backends[live.addr()]; !ok || out.Unreachable[stalled] == "" {
					t.Errorf("stats: want %s answered and %s unreachable: %s", live.addr(), stalled, body)
				}
				return
			}
			if len(out.Sessions) != 1 || out.Sessions[0].Name != "kept" {
				t.Errorf("list: %s, want the live backend's one session", body)
			}
			if !strings.Contains(logs.String(), "gateway: list "+stalled) {
				t.Errorf("list: the stalled backend was not logged: %q", logs.String())
			}
		})
	}
	ln.Close()
}

// syncBuffer is a bytes.Buffer safe for a logger and a reader at once.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestConnPoolBounds: the pool keeps at most maxIdlePerBackend idle
// connections and closes the rest, reuses none idle past idleConnTimeout
// and sweeps those out, and closes what it holds, and what comes back
// later, once closed.
func TestConnPoolBounds(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	p := &connPool{addr: ln.Addr().String()}
	now := time.Now()
	var conns []net.Conn
	for range maxIdlePerBackend + 2 {
		c, peer := net.Pipe()
		defer peer.Close()
		conns = append(conns, c)
		p.put(&poolConn{conn: c}, now)
	}
	closed := func(c net.Conn) bool { return c.SetDeadline(time.Time{}) != nil }
	if n := p.idleLen(); n != maxIdlePerBackend {
		t.Fatalf("%d idle connections pooled, want %d", n, maxIdlePerBackend)
	}
	if !closed(conns[maxIdlePerBackend]) || !closed(conns[maxIdlePerBackend+1]) || closed(conns[0]) {
		t.Fatal("a full pool must close the connections it cannot hold, and only those")
	}

	later := now.Add(idleConnTimeout + time.Second)
	pc, err := p.get(context.Background(), later, later.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if pc.reused || p.idleLen() != 0 {
		t.Fatalf("reused %v with %d still idle: connections idle past %v must be dialled afresh", pc.reused, p.idleLen(), idleConnTimeout)
	}
	for i, c := range conns {
		if !closed(c) {
			t.Fatalf("expired connection %d left open", i)
		}
	}

	p.put(pc, now)
	fresh, peer := net.Pipe()
	defer peer.Close()
	p.put(&poolConn{conn: fresh}, later)
	p.sweep(later)
	if !closed(pc.conn) || closed(fresh) || p.idleLen() != 1 {
		t.Fatal("sweep must close the connections idle past the timeout, and only those")
	}
	p.close()
	if !closed(fresh) || p.idleLen() != 0 {
		t.Fatal("close must close the idle connections")
	}
	c, peer := net.Pipe()
	defer peer.Close()
	p.put(&poolConn{conn: c}, later)
	if !closed(c) || p.idleLen() != 0 {
		t.Fatal("a closed pool must close a connection put back")
	}
}
