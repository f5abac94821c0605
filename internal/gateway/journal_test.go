package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"provabs/internal/registry"
	"provabs/internal/server"
)

// newSlowExportBackend is a pool backend whose /export grows a switchable
// delay — it widens a live migration's quiesce window deterministically so
// the test can prove lines journal and replay rather than hoping the race
// falls its way.
func newSlowExportBackend(t *testing.T, exportDelay *atomic.Int64) *poolBackend {
	t.Helper()
	reg := registry.New()
	inner := server.New(reg).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d := exportDelay.Load(); d > 0 && strings.HasSuffix(r.URL.Path, "/export") {
			time.Sleep(time.Duration(d))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return &poolBackend{ts: ts, reg: reg}
}

// TestGatewayMigrateUnderWriteLoad is the tentpole acceptance test: a
// session live-migrates (drain) while a client streams adds through the
// gateway nonstop. The client must see zero errors and zero 503s — every
// line acked, in order, exactly once — with the quiesce-window lines
// demonstrably journaled and replayed onto the new holder, and the
// post-migration answers bit-identical to the pre-migration ones.
func TestGatewayMigrateUnderWriteLoad(t *testing.T) {
	var exportDelay atomic.Int64
	b1 := newSlowExportBackend(t, &exportDelay)
	b2 := newSlowExportBackend(t, &exportDelay)
	g, gts := newTestGateway(t, Options{
		QuiesceTimeout: 5 * time.Second,
		JournalLines:   4096,
	}, b1, b2)

	const name = "hot"
	if resp := createSession(t, gts.URL, name, ""); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	holderAddr := g.placementsSnapshot()[name]
	holder, survivor := b1, b2
	if holderAddr == b2.addr() {
		holder, survivor = b2, b1
	}

	// The add stream: a pipe-fed POST with an ack reader. The feeder keeps
	// lines flowing across the whole migration window.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, gts.URL+"/v1/sessions/"+name+"/add", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")

	var (
		sent    atomic.Int64
		acked   atomic.Int64
		ackErr  = make(chan error, 1)
		ackDone = make(chan struct{})
	)
	sendLine := func(i int) {
		line := fmt.Sprintf(`{"tag":"add-%d","poly":"%d*p1*m1 + %d*f1*m3"}`+"\n", i, i+2, 2*i+3)
		if _, err := io.WriteString(pw, line); err != nil {
			t.Errorf("feeding line %d: %v", i, err)
			return
		}
		sent.Add(1)
	}

	// The first line must be in flight before Do: response headers flush
	// with the first ack, and Do blocks until they do.
	go sendLine(0)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("add stream: status %d: %s", resp.StatusCode, body)
	}
	go func() {
		defer close(ackDone)
		scan := bufio.NewScanner(resp.Body)
		next := 0
		for scan.Scan() {
			var ack struct {
				Index *int   `json:"index"`
				Error string `json:"error,omitempty"`
			}
			if err := json.Unmarshal(scan.Bytes(), &ack); err != nil {
				ackErr <- fmt.Errorf("bad ack line %q: %v", scan.Text(), err)
				return
			}
			if ack.Index == nil || ack.Error != "" {
				ackErr <- fmt.Errorf("stream error at ack %d: %q", next, scan.Text())
				return
			}
			if *ack.Index != next {
				ackErr <- fmt.Errorf("ack order broke: got %d, want %d", *ack.Index, next)
				return
			}
			next++
			acked.Store(int64(next))
		}
		if err := scan.Err(); err != nil {
			ackErr <- err
		}
	}()

	waitAcked := func(n int64) {
		deadline := time.Now().Add(10 * time.Second)
		for acked.Load() < n {
			select {
			case err := <-ackErr:
				t.Fatalf("add stream failed with %d/%d acked: %v", acked.Load(), n, err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("acks stalled at %d/%d", acked.Load(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Warm up: 20 lines streamed and acked by the original holder (line 0
	// is already in flight from the pre-Do goroutine).
	waitAcked(1)
	for i := 1; i < 20; i++ {
		sendLine(i)
	}
	waitAcked(20)
	assign := map[string]float64{"p1": 0.5, "m1": 1, "m3": 1, "f1": 1}
	preMigration := whatifValues(t, gts.URL, name, assign)

	// Drain the holder while the feeder keeps writing and a reader keeps
	// asking what-ifs. Export takes 300ms now, so lines sent during the
	// drain demonstrably land in the journal.
	exportDelay.Store(int64(300 * time.Millisecond))
	feederStop := make(chan struct{})
	feederDone := make(chan struct{})
	go func() {
		defer close(feederDone)
		i := 20
		for {
			select {
			case <-feederStop:
				return
			default:
			}
			sendLine(i)
			i++
			time.Sleep(2 * time.Millisecond)
		}
	}()
	var read503 atomic.Int64
	readerStop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		body := []byte(`{"assign":{"p1":0.5,"m1":1,"m3":1,"f1":1}}`)
		for {
			select {
			case <-readerStop:
				return
			default:
			}
			resp, err := http.Post(gts.URL+"/v1/sessions/"+name+"/whatif", "application/json", strings.NewReader(string(body)))
			if err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable {
					read503.Add(1)
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	drainReq, err := http.NewRequest(http.MethodPost, gts.URL+"/gateway/backends/"+holderAddr+"/drain", nil)
	if err != nil {
		t.Fatal(err)
	}
	drainResp, err := http.DefaultClient.Do(drainReq)
	if err != nil {
		t.Fatal(err)
	}
	drainBody, _ := io.ReadAll(drainResp.Body)
	drainResp.Body.Close()
	if drainResp.StatusCode != http.StatusOK {
		t.Fatalf("drain under write load: status %d: %s — the zero-503 contract broke", drainResp.StatusCode, drainBody)
	}
	exportDelay.Store(0)

	// A little post-migration traffic on the same stream, then close it.
	time.Sleep(20 * time.Millisecond)
	close(feederStop)
	<-feederDone
	close(readerStop)
	<-readerDone
	pw.Close()
	<-ackDone
	select {
	case err := <-ackErr:
		t.Fatalf("add stream failed: %v", err)
	default:
	}

	total := sent.Load()
	if got := acked.Load(); got != total {
		t.Fatalf("acked %d of %d sent lines — acks were lost across the migration", got, total)
	}
	if n := read503.Load(); n != 0 {
		t.Fatalf("reads saw %d 503s during the migration; reads must never be interrupted", n)
	}

	// The migration demonstrably used the journal: lines were buffered
	// while detached and replayed onto the new holder, within bounds.
	if j := g.journaledLines.Load(); j == 0 {
		t.Fatal("no lines journaled — the migration window never overlapped the stream")
	}
	if j, r := g.journaledLines.Load(), g.replayedLines.Load(); r != j {
		t.Fatalf("journaled %d lines but replayed %d", j, r)
	}
	if hw := g.journalHighWater.Load(); hw > int64(g.opts.JournalLines) {
		t.Fatalf("journal high water %d exceeds the %d-line bound", hw, g.opts.JournalLines)
	}

	// The session fully moved with every acked add intact.
	if holder.reg.Len() != 0 {
		t.Fatalf("drained holder still has %d sessions", holder.reg.Len())
	}
	st := sessionStats(t, survivor.ts.URL, name)
	if p, _ := st["polynomials"].(float64); int64(p) != 1+total {
		t.Fatalf("survivor has %v polynomials, want %d — acked adds were lost", st["polynomials"], 1+total)
	}
	if c, _ := st["compiles"].(float64); c != 1 {
		t.Fatalf("survivor compiles = %v, want 1 (import must not recompile)", st["compiles"])
	}

	// Answers on the shared prefix stay bit-identical across the move: the
	// first 20 adds' coefficients are baked into both answers, so drift
	// would mean the migration changed history. (Later adds only ADD tags;
	// the original tag's value is untouched by them.)
	postMigration := whatifValues(t, gts.URL, name, assign)
	if len(postMigration) < len(preMigration) {
		t.Fatalf("answer shape shrank: %d -> %d values", len(preMigration), len(postMigration))
	}
	for i := range preMigration {
		if math.Float64bits(postMigration[i]) != math.Float64bits(preMigration[i]) {
			t.Fatalf("answer %d drifted across migration: %v -> %v", i, preMigration[i], postMigration[i])
		}
	}
}

// FuzzAckRewrite checks the add proxy's rewrite of the common ack line
// against encoding/json: every line plainAckIndex reads, encoding/json
// decodes into an ackMsg with the same index and no error, and the line
// appendAck writes for any index is what encoding/json encodes for it.
func FuzzAckRewrite(f *testing.F) {
	for _, s := range []string{`{"index":0}`, `{"index":17}`, `{"index":007}`, `{"index":-3}`,
		`{"index":1,"error":"bad"}`, `{"error":"gone"}`, `{"index": 4}`, `{"index":99999999999999999999}`,
		`{"index":1e2}`, `{"index":12}}`, `{"Index":5}`} {
		f.Add([]byte(s), 41)
	}
	f.Fuzz(func(t *testing.T, raw []byte, index int) {
		if got, ok := plainAckIndex(raw); ok {
			var msg ackMsg
			if err := json.Unmarshal(raw, &msg); err != nil || msg.Index == nil || *msg.Index != got || msg.Error != "" {
				t.Fatalf("plainAckIndex(%q) = %d; encoding/json reads index %v, error %q, err %v", raw, got, msg.Index, msg.Error, err)
			}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ackMsg{Index: &index}); err != nil {
			t.Fatal(err)
		}
		if got := appendAck(nil, index); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendAck(%d) = %q, encoding/json writes %q", index, got, want.Bytes())
		}
	})
}
