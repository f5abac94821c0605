package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBreakerLifecycle walks the closed → open → half-open state machine:
// failures below the threshold keep it closed, the threshold trips it, the
// open window fails fast with the remaining cooldown, one half-open trial
// is admitted at a time, a failed trial doubles the window (capped), and a
// successful one closes the breaker.
func TestBreakerLifecycle(t *testing.T) {
	start := time.Now()
	br := newBreaker(3, 100*time.Millisecond, 250*time.Millisecond)

	if ok, _ := br.allow(start); !ok {
		t.Fatal("fresh breaker must be closed")
	}
	if br.onFailure(start) || br.onFailure(start) {
		t.Fatal("breaker tripped below its threshold")
	}
	if !br.onFailure(start) {
		t.Fatal("third consecutive failure must trip a threshold-3 breaker")
	}
	if state, trips := br.snapshot(); state != "open" || trips != 1 {
		t.Fatalf("after trip: state %q trips %d, want open/1", state, trips)
	}

	// Open: fail fast, Retry-After = remaining cooldown.
	if ok, wait := br.allow(start.Add(40 * time.Millisecond)); ok || wait != 60*time.Millisecond {
		t.Fatalf("open breaker: allow = %v wait %v, want false/60ms", ok, wait)
	}

	// Cooldown over: exactly one trial is admitted; a second concurrent
	// caller is refused until the trial resolves.
	trialAt := start.Add(110 * time.Millisecond)
	if ok, _ := br.allow(trialAt); !ok {
		t.Fatal("cooldown elapsed: the half-open trial must be admitted")
	}
	if state, _ := br.snapshot(); state != "half-open" {
		t.Fatalf("state %q, want half-open", state)
	}
	if ok, _ := br.allow(trialAt); ok {
		t.Fatal("second caller admitted while a trial is in flight")
	}

	// Trial fails: re-open with a doubled window.
	if !br.onFailure(trialAt) {
		t.Fatal("failed trial must re-trip the breaker")
	}
	if ok, wait := br.allow(trialAt.Add(150 * time.Millisecond)); ok || wait != 50*time.Millisecond {
		t.Fatalf("re-opened breaker: allow = %v wait %v, want false/50ms (doubled window)", ok, wait)
	}

	// Another failed trial: the doubling caps at maxCooldown (400 > 250).
	secondTrial := trialAt.Add(210 * time.Millisecond)
	if ok, _ := br.allow(secondTrial); !ok {
		t.Fatal("second trial must be admitted after the doubled window")
	}
	br.onFailure(secondTrial)
	if ok, wait := br.allow(secondTrial); ok || wait != 250*time.Millisecond {
		t.Fatalf("capped window: allow = %v wait %v, want false/250ms", ok, wait)
	}

	// A successful trial closes the breaker outright.
	thirdTrial := secondTrial.Add(260 * time.Millisecond)
	if ok, _ := br.allow(thirdTrial); !ok {
		t.Fatal("third trial must be admitted")
	}
	br.onSuccess()
	if state, trips := br.snapshot(); state != "closed" || trips != 3 {
		t.Fatalf("after successful trial: state %q trips %d, want closed/3", state, trips)
	}
	if ok, _ := br.allow(thirdTrial); !ok {
		t.Fatal("closed breaker must admit requests")
	}
}

// flakyBackend is a raw HTTP server whose data endpoints kill the
// connection (hijack + close: a transport failure, not an HTTP error) for
// the first failRemaining matching requests, then answer 200. /healthz
// always answers 200 so hand-driven probes can reset the breaker.
type flakyBackend struct {
	ts *httptest.Server

	mu            sync.Mutex
	failRemaining int
	seen          int // data requests observed (healthz excluded)
}

func newFlakyBackend(t *testing.T, failFirst int) *flakyBackend {
	t.Helper()
	fb := &flakyBackend{failRemaining: failFirst}
	fb.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		fb.mu.Lock()
		fb.seen++
		kill := fb.failRemaining > 0
		if kill {
			fb.failRemaining--
		}
		fb.mu.Unlock()
		if kill {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"ok": true}) //nolint:errcheck
	}))
	t.Cleanup(fb.ts.Close)
	return fb
}

func (fb *flakyBackend) requests() int {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.seen
}

func newFlakyGateway(t *testing.T, fb *flakyBackend, opts Options) (*Gateway, *httptest.Server) {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = log.New(io.Discard, "", 0)
	}
	addr := fb.ts.Listener.Addr().String()
	g, err := New([]string{addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

// TestGatewayRetryIdempotent proves an idempotent verb rides out transient
// transport failures invisibly: a backend that kills the first two
// connections still answers the client 200, with the retries counted.
func TestGatewayRetryIdempotent(t *testing.T) {
	fb := newFlakyBackend(t, 2)
	g, gts := newFlakyGateway(t, fb, Options{
		Retry: RetryPolicy{
			MaxAttempts: 3,
			BackoffBase: time.Millisecond,
			BackoffMax:  5 * time.Millisecond,
		},
		BreakerThreshold: 10, // keep the breaker out of this test's way
	})

	resp, err := http.Get(gts.URL + "/v1/sessions/x/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("idempotent call through retries: status %d: %s", resp.StatusCode, body)
	}
	if got := fb.requests(); got != 3 {
		t.Fatalf("backend saw %d attempts, want 3 (2 failures + 1 success)", got)
	}
	if got := g.retries.Load(); got != 2 {
		t.Fatalf("retries counter = %d, want 2", got)
	}
}

// TestGatewayNonIdempotentSingleAttempt proves a write verb never retries:
// one transport failure is one 502, and the backend sees exactly one
// attempt — a lost response must stay lost, not double-apply.
func TestGatewayNonIdempotentSingleAttempt(t *testing.T) {
	fb := newFlakyBackend(t, 1)
	g, gts := newFlakyGateway(t, fb, Options{
		Retry: RetryPolicy{
			MaxAttempts: 3,
			BackoffBase: time.Millisecond,
			BackoffMax:  5 * time.Millisecond,
		},
		BreakerThreshold: 10,
	})

	resp, err := http.Post(gts.URL+"/v1/sessions/x/compress", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("non-idempotent transport failure: status %d, want 502", resp.StatusCode)
	}
	if got := fb.requests(); got != 1 {
		t.Fatalf("backend saw %d attempts, want exactly 1", got)
	}
	if got := g.retries.Load(); got != 0 {
		t.Fatalf("retries counter = %d, want 0", got)
	}
}

// TestGatewayBreakerFailFastAndProbeReset drives the breaker through the
// proxy path: enough transport failures open it, the next request fails
// fast (503 + Retry-After, no backend round trip), and a successful hand-
// driven health probe resets it so traffic flows again.
func TestGatewayBreakerFailFastAndProbeReset(t *testing.T) {
	fb := newFlakyBackend(t, 100) // failing until told otherwise
	g, gts := newFlakyGateway(t, fb, Options{
		Retry:            RetryPolicy{MaxAttempts: 1},
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute, // only a probe can close it in this test
		FailThreshold:    100,         // keep health ejection out of the way
	})

	for i := 0; i < 2; i++ {
		resp, err := http.Get(gts.URL + "/v1/sessions/x/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("failure %d: status %d, want 502", i, resp.StatusCode)
		}
	}
	b := g.lookup(fb.ts.Listener.Addr().String())
	if state, trips := b.breaker.snapshot(); state != "open" || trips != 1 {
		t.Fatalf("breaker %q trips %d after threshold failures, want open/1", state, trips)
	}

	// Fail fast: 503 with Retry-After and no third backend attempt.
	before := fb.requests()
	resp, err := http.Get(gts.URL + "/v1/sessions/x/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("open breaker's 503 must carry Retry-After")
	}
	if got := fb.requests(); got != before {
		t.Fatalf("open breaker still reached the backend (%d -> %d attempts)", before, got)
	}

	// The backend recovers; a successful probe must reset the breaker long
	// before the one-minute cooldown would.
	fb.mu.Lock()
	fb.failRemaining = 0
	fb.mu.Unlock()
	g.probeOne(b)
	if state, _ := b.breaker.snapshot(); state != "closed" {
		t.Fatalf("breaker %q after successful probe, want closed", state)
	}
	resp, err = http.Get(gts.URL + "/v1/sessions/x/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after probe reset: status %d, want 200", resp.StatusCode)
	}
}

// TestGatewayRetryBudgetExhaustion proves the retry budget caps
// amplification: a burst-2 budget with a negligible refill funds exactly
// two retries across calls, after which a failing call gets one attempt
// and no more — a brown-out is not multiplied.
func TestGatewayRetryBudgetExhaustion(t *testing.T) {
	fb := newFlakyBackend(t, 1000)
	g, gts := newFlakyGateway(t, fb, Options{
		Retry: RetryPolicy{
			MaxAttempts:       4,
			BackoffBase:       time.Millisecond,
			BackoffMax:        2 * time.Millisecond,
			RetryBudgetPerSec: 0.001, // effectively no refill within the test
			RetryBudgetBurst:  2,
		},
		BreakerThreshold: 1000,
		FailThreshold:    1000,
	})

	// First call: 3 retries wanted, budget holds 2 — so 3 attempts total.
	resp, err := http.Get(gts.URL + "/v1/sessions/x/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	if got := fb.requests(); got != 3 {
		t.Fatalf("backend saw %d attempts, want 3 (budget of 2 retries + first try)", got)
	}

	// Budget dry: the next call gets exactly one attempt.
	before := fb.requests()
	resp, err = http.Get(gts.URL + "/v1/sessions/x/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := fb.requests() - before; got != 1 {
		t.Fatalf("dry budget: backend saw %d attempts, want 1", got)
	}
	if got := g.retries.Load(); got != 2 {
		t.Fatalf("retries counter = %d, want 2", got)
	}
}

// TestGatewayOversizedBackendResponse: a buffered backend response larger
// than the proxy buffer (MaxCreateBytes) answers 502, whether the backend
// declares its length or streams it chunked. A declared length over the
// limit is refused from the header alone, before any body arrives; a
// response of exactly the limit passes either way.
func TestGatewayOversizedBackendResponse(t *testing.T) {
	const limit = 4096
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		size, _ := strconv.Atoi(r.URL.Query().Get("size"))
		body := bytes.Repeat([]byte("x"), size)
		switch r.URL.Query().Get("mode") {
		case "declared":
			w.Header().Set("Content-Length", strconv.Itoa(size))
			w.Write(body) //nolint:errcheck
		case "promised": // declares the length, then sends nothing
			w.Header().Set("Content-Length", strconv.Itoa(size))
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			<-r.Context().Done()
		case "chunked":
			w.Write(body[:size/2]) //nolint:errcheck
			w.(http.Flusher).Flush()
			w.Write(body[size/2:]) //nolint:errcheck
		}
	}))
	t.Cleanup(backend.Close)
	g, err := New([]string{backend.Listener.Addr().String()}, Options{
		MaxCreateBytes:   limit,
		Retry:            RetryPolicy{MaxAttempts: 1, AttemptTimeout: 5 * time.Second},
		BreakerThreshold: 100,
		FailThreshold:    100,
		Logger:           log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)
	gts := httptest.NewServer(g.Handler())
	t.Cleanup(gts.Close)
	for _, tc := range []struct {
		mode   string
		size   int
		status int
		chunk  bool
	}{
		{"declared", limit, http.StatusOK, false},
		{"declared", limit + 1, http.StatusBadGateway, false},
		{"promised", limit + 1, http.StatusBadGateway, false},
		{"chunked", limit, http.StatusOK, true},
		{"chunked", limit + 1, http.StatusBadGateway, true},
	} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/x/stats?mode=%s&size=%d", gts.URL, tc.mode, tc.size))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s %d bytes: status %d, want %d: %.200s", tc.mode, tc.size, resp.StatusCode, tc.status, body)
			continue
		}
		if tc.status == http.StatusOK && len(body) != tc.size {
			t.Errorf("%s %d bytes: relayed %d bytes", tc.mode, tc.size, len(body))
		}
		if tc.status != http.StatusOK && !strings.Contains(string(body), "exceeds the 4096-byte proxy buffer") {
			t.Errorf("%s %d bytes: 502 body %s, want the proxy buffer limit", tc.mode, tc.size, body)
		}
	}
}

// TestGatewayOneShotBodyLimit sends one-shot request bodies of declared and
// of unknown length on both sides of MaxCreateBytes: the gateway relays a
// body of exactly the limit whole and answers 413 for one byte more.
func TestGatewayOneShotBodyLimit(t *testing.T) {
	const limit = 4096
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		body, _ := io.ReadAll(r.Body)
		fmt.Fprint(w, len(body))
	}))
	t.Cleanup(backend.Close)
	g, err := New([]string{backend.Listener.Addr().String()}, Options{
		MaxCreateBytes: limit,
		Logger:         log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)
	gts := httptest.NewServer(g.Handler())
	t.Cleanup(gts.Close)
	for _, tc := range []struct {
		size    int
		chunked bool
		status  int
	}{
		{limit, false, http.StatusOK},
		{limit + 1, false, http.StatusRequestEntityTooLarge},
		{limit, true, http.StatusOK},
		{limit + 1, true, http.StatusRequestEntityTooLarge},
	} {
		var body io.Reader = bytes.NewReader(bytes.Repeat([]byte("x"), tc.size))
		if tc.chunked {
			body = io.MultiReader(body) // no length known: sent chunked
		}
		resp, err := http.Post(gts.URL+"/v1/sessions/x/whatif", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%d bytes, chunked %v: status %d, want %d: %s", tc.size, tc.chunked, resp.StatusCode, tc.status, got)
			continue
		}
		want := strconv.Itoa(tc.size)
		if tc.status != http.StatusOK {
			want = "whatif: request body exceeds the 4096-byte limit"
		}
		if !strings.Contains(string(got), want) {
			t.Errorf("%d bytes, chunked %v: body %s, want %s", tc.size, tc.chunked, got, want)
		}
	}
}
