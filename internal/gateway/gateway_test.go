package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"provabs/internal/provenance"
	"provabs/internal/registry"
	"provabs/internal/server"
)

// poolBackend is one real backend for the e2e tests: a full provabs server
// over its own registry, plus handles to kill it.
type poolBackend struct {
	ts  *httptest.Server
	reg *registry.Registry
}

func (b *poolBackend) addr() string { return strings.TrimPrefix(b.ts.URL, "http://") }

func newPoolBackend(t testing.TB, opts ...server.Option) *poolBackend {
	t.Helper()
	reg := registry.New()
	ts := httptest.NewServer(server.New(reg, opts...).Handler())
	t.Cleanup(ts.Close)
	return &poolBackend{ts: ts, reg: reg}
}

// newTestGateway stands a gateway over the given backends. The probe loop
// is not started; tests drive health transitions by hand.
func newTestGateway(t testing.TB, opts Options, backends ...*poolBackend) (*Gateway, *httptest.Server) {
	t.Helper()
	addrs := make([]string, len(backends))
	for i, b := range backends {
		addrs[i] = b.addr()
	}
	if opts.Logger == nil {
		opts.Logger = log.New(io.Discard, "", 0)
	}
	g, err := New(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

func e2eSetB64(t *testing.T) string {
	t.Helper()
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	set.Add("zip 10001", provenance.MustParse(vb,
		"220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3"))
	var buf bytes.Buffer
	if err := provenance.Encode(&buf, set); err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

// createSession makes a session through base (gateway or backend),
// returning the response for status assertions.
func createSession(t *testing.T, base, name, tenant string) *http.Response {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"name":           name,
		"provenance_b64": e2eSetB64(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/sessions", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// whatifValues posts one scenario and returns the answer values in tag
// order, for bit-identity comparisons.
func whatifValues(t *testing.T, base, name string, assign map[string]float64) []float64 {
	t.Helper()
	body, err := json.Marshal(map[string]any{"assign": assign})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sessions/"+name+"/whatif", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("whatif %s on %s: status %d: %s", name, base, resp.StatusCode, msg)
	}
	var out struct {
		Answers []struct {
			Tag   string  `json:"tag"`
			Value float64 `json:"value"`
		} `json:"answers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, len(out.Answers))
	for i, a := range out.Answers {
		vals[i] = a.Value
	}
	return vals
}

func sessionStats(t *testing.T, base, name string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + name + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats %s on %s: status %d", name, base, resp.StatusCode)
	}
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestGatewayE2E drives the full pool lifecycle through a real gateway
// over two real backends: create sessions (consistent-hash spread), ingest
// adds over the proxied NDJSON stream, answer what-ifs, aggregate stats,
// then drain one backend and require the live migration to be invisible —
// answers bit-identical, Compiles still 1 on the importer, every
// acknowledged add present, the drained backend empty.
func TestGatewayE2E(t *testing.T) {
	b1 := newPoolBackend(t)
	b2 := newPoolBackend(t)
	g, gts := newTestGateway(t, Options{}, b1, b2)

	// Create sessions until both backends hold at least one (the ring
	// spreads them; a handful of names is plenty).
	const n = 8
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("sess-%d", i)
		resp := createSession(t, gts.URL, name, "")
		if resp.StatusCode != http.StatusCreated {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("create %s: status %d: %s", name, resp.StatusCode, msg)
		}
		names = append(names, name)
	}
	placements := g.placementsSnapshot()
	perBackend := map[string]int{}
	for _, name := range names {
		perBackend[placements[name]]++
	}
	if len(perBackend) != 2 {
		t.Fatalf("all %d sessions landed on one backend: %v", n, perBackend)
	}
	if b1.reg.Len()+b2.reg.Len() != n {
		t.Fatalf("backends hold %d+%d sessions, want %d", b1.reg.Len(), b2.reg.Len(), n)
	}

	// Ingest adds through the gateway's proxied NDJSON stream; every line
	// must come back acked with its index.
	target := names[0]
	var addBody strings.Builder
	const adds = 20
	for i := 0; i < adds; i++ {
		fmt.Fprintf(&addBody, `{"tag":"add-%d","poly":"%d*p1*m1 + %d*f1*m3"}`+"\n", i, i+2, 2*i+3)
	}
	resp, err := http.Post(gts.URL+"/v1/sessions/"+target+"/add", "application/x-ndjson",
		strings.NewReader(addBody.String()))
	if err != nil {
		t.Fatal(err)
	}
	acked := 0
	scan := bufio.NewScanner(resp.Body)
	for scan.Scan() {
		var ack struct {
			Index int    `json:"index"`
			Error string `json:"error,omitempty"`
		}
		if err := json.Unmarshal(scan.Bytes(), &ack); err != nil {
			t.Fatalf("bad ack line %q: %v", scan.Text(), err)
		}
		if ack.Error != "" {
			t.Fatalf("add %d refused: %s", ack.Index, ack.Error)
		}
		if ack.Index != acked {
			t.Fatalf("ack order broke: got index %d, want %d", ack.Index, acked)
		}
		acked++
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if acked != adds {
		t.Fatalf("acked %d of %d adds", acked, adds)
	}

	// A what-if through the gateway answers bit-identically to the same
	// what-if asked of the holding backend directly.
	assign := map[string]float64{"p1": 0.5, "m1": 1, "m3": 1, "f1": 1}
	holder := b1
	if placements[target] == b2.addr() {
		holder = b2
	}
	viaGateway := whatifValues(t, gts.URL, target, assign)
	direct := whatifValues(t, holder.ts.URL, target, assign)
	if len(viaGateway) == 0 || len(viaGateway) != len(direct) {
		t.Fatalf("answer shape: gateway %d values, direct %d", len(viaGateway), len(direct))
	}
	for i := range direct {
		if math.Float64bits(viaGateway[i]) != math.Float64bits(direct[i]) {
			t.Fatalf("gateway answer %d = %v, direct %v — proxy changed the bits", i, viaGateway[i], direct[i])
		}
	}

	// Pool stats: merged totals count every session once, and the pool
	// session count is the whole pool's.
	statsResp, err := http.Get(gts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var agg struct {
		Pool     registry.AggregateStats            `json:"pool"`
		Backends map[string]registry.AggregateStats `json:"backends"`
	}
	if err := json.NewDecoder(statsResp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if agg.Pool.Sessions != n {
		t.Fatalf("pool stats sessions = %d, want %d", agg.Pool.Sessions, n)
	}
	if len(agg.Backends) != 2 {
		t.Fatalf("per-backend stats cover %d backends, want 2", len(agg.Backends))
	}
	var direct1, direct2 registry.AggregateStats
	direct1, direct2 = b1.reg.Stats(), b2.reg.Stats()
	if want := direct1.Totals.Scenarios + direct2.Totals.Scenarios; agg.Pool.Totals.Scenarios != want {
		t.Fatalf("pool scenarios = %d, want summed %d", agg.Pool.Totals.Scenarios, want)
	}

	// Drain the backend holding the target session. Every session it holds
	// must live-migrate to the survivor.
	preDrain := whatifValues(t, gts.URL, target, assign)
	drainReq, err := http.NewRequest(http.MethodPost, gts.URL+"/gateway/backends/"+placements[target]+"/drain", nil)
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
		t.Fatalf("drain: status %d: %s", drainResp.StatusCode, drainBody)
	}
	var drained struct {
		Migrated int `json:"migrated"`
	}
	if err := json.Unmarshal(drainBody, &drained); err != nil {
		t.Fatal(err)
	}
	if want := perBackend[placements[target]]; drained.Migrated != want {
		t.Fatalf("drain migrated %d sessions, want %d", drained.Migrated, want)
	}

	survivor := b2
	if holder == b2 {
		survivor = b1
	}
	if holder.reg.Len() != 0 {
		t.Fatalf("drained backend still holds %d sessions", holder.reg.Len())
	}
	if survivor.reg.Len() != n {
		t.Fatalf("survivor holds %d sessions, want all %d", survivor.reg.Len(), n)
	}

	// Migration is invisible: the same what-if, through the same gateway
	// URL, answers bit-identically — which also proves every acked add
	// crossed over (the adds' coefficients are baked into the answers).
	postDrain := whatifValues(t, gts.URL, target, assign)
	if len(postDrain) != len(preDrain) {
		t.Fatalf("answer shape changed across migration: %d vs %d values", len(postDrain), len(preDrain))
	}
	for i := range preDrain {
		if math.Float64bits(postDrain[i]) != math.Float64bits(preDrain[i]) {
			t.Fatalf("post-migration answer %d = %v, want bit-identical %v", i, postDrain[i], preDrain[i])
		}
	}

	// The importer restored the snapshot's compiled form — it did not
	// recompile (Compiles == 1), and the acked adds are all there.
	st := sessionStats(t, survivor.ts.URL, target)
	if c, _ := st["compiles"].(float64); c != 1 {
		t.Fatalf("imported session compiles = %v, want 1 (restore must not recompile)", st["compiles"])
	}
	if p, _ := st["polynomials"].(float64); int(p) != 1+adds {
		t.Fatalf("imported session polynomials = %v, want %d — acked adds were lost", st["polynomials"], 1+adds)
	}
}

// TestGatewayMidStreamBackendDeath kills a backend while an NDJSON what-if
// stream is proxied through the gateway full-duplex. The client must get
// an in-band terminal {"error": …} line — not a hung connection.
func TestGatewayMidStreamBackendDeath(t *testing.T) {
	b1 := newPoolBackend(t)
	b2 := newPoolBackend(t)
	g, gts := newTestGateway(t, Options{}, b1, b2)

	name := "victim"
	if resp := createSession(t, gts.URL, name, ""); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	holder := b1
	if g.placementsSnapshot()[name] == b2.addr() {
		holder = b2
	}

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, gts.URL+"/v1/sessions/"+name+"/whatif/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	go func() {
		// First scenario unblocks Do (headers flush with the first answer);
		// the body then stays open — mid-stream by construction.
		io.WriteString(pw, `{"assign":{"m1":1,"m3":1}}`+"\n") //nolint:errcheck
	}()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	defer pw.Close()
	scan := bufio.NewScanner(resp.Body)
	if !scan.Scan() {
		t.Fatalf("no first answer line: %v", scan.Err())
	}
	var first struct {
		Index int    `json:"index"`
		Error string `json:"error,omitempty"`
	}
	if err := json.Unmarshal(scan.Bytes(), &first); err != nil || first.Error != "" {
		t.Fatalf("first line %q: err=%v", scan.Text(), err)
	}

	// Kill the holding backend: in-flight proxied connections die with it.
	holder.ts.CloseClientConnections()
	holder.ts.Close()

	// The stream must terminate with an in-band error line, promptly.
	type outcome struct {
		line string
		ok   bool
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		ok := scan.Scan()
		done <- outcome{line: scan.Text(), ok: ok, err: scan.Err()}
	}()
	select {
	case out := <-done:
		if !out.ok {
			// A torn TCP stream without the terminal line is exactly the hung/
			// opaque failure the gateway must prevent.
			t.Fatalf("stream ended with no in-band error line (scan err: %v)", out.err)
		}
		var terminal struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(out.line), &terminal); err != nil {
			t.Fatalf("terminal line %q is not JSON: %v", out.line, err)
		}
		if !strings.Contains(terminal.Error, "mid-stream") {
			t.Fatalf("terminal line %q does not name the mid-stream failure", out.line)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client hung after backend death — no terminal error line")
	}
}

// TestGatewayTenantLimits checks the wire shape of limiter rejections:
// past the tenant's session quota the gateway answers 429 with Retry-After
// — and another tenant is unaffected.
func TestGatewayTenantLimits(t *testing.T) {
	b1 := newPoolBackend(t)
	_, gts := newTestGateway(t, Options{Limits: TenantLimits{MaxSessions: 1}}, b1)

	if resp := createSession(t, gts.URL, "quota-a", "tenant-a"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first create: status %d", resp.StatusCode)
	}
	resp := createSession(t, gts.URL, "quota-b", "tenant-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota create: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Errorf("429 body not the JSON error shape: %v", err)
	}
	if resp := createSession(t, gts.URL, "quota-c", "tenant-b"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("second tenant blocked by first tenant's quota: status %d", resp.StatusCode)
	}
	// The refused create must not leak a quota slot: tenant-a can still
	// not create, but deleting its session frees the slot.
	delReq, err := http.NewRequest(http.MethodDelete, gts.URL+"/v1/sessions/quota-a", nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", delResp.StatusCode)
	}
	if resp := createSession(t, gts.URL, "quota-d", "tenant-a"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create after delete freed the quota: status %d", resp.StatusCode)
	}
}

// TestGatewayTenantScenarioIsolation pins that the scenario rate is per
// tenant: a tenant that drains its bucket is refused with 429 and
// Retry-After, while another tenant's one-shot on the same session, on the
// same backend, still answers.
func TestGatewayTenantScenarioIsolation(t *testing.T) {
	b1 := newPoolBackend(t)
	_, gts := newTestGateway(t, Options{Limits: TenantLimits{ScenariosPerSec: 0.1, Burst: 2}}, b1)
	if resp := createSession(t, gts.URL, "shared", "hog"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	oneShot := func(tenant string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, gts.URL+"/v1/sessions/shared/whatif",
			strings.NewReader(`{"assign":{"m1":1.1}}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	for i := range 2 {
		if resp := oneShot("hog"); resp.StatusCode != http.StatusOK {
			t.Fatalf("hog one-shot %d within the burst: status %d", i+1, resp.StatusCode)
		}
	}
	resp := oneShot("hog")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hog's third one-shot: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	if resp := oneShot("polite"); resp.StatusCode != http.StatusOK {
		t.Fatalf("polite one-shot behind a drained hog: status %d, want 200", resp.StatusCode)
	}
}

// TestGatewayUnhealthyBackendAnswers503 pins the dead-backend policy: a
// session placed on an ejected backend answers 503 + Retry-After (no
// silent re-route that would split-brain the session) until readmission.
func TestGatewayUnhealthyBackendAnswers503(t *testing.T) {
	b1 := newPoolBackend(t)
	b2 := newPoolBackend(t)
	g, gts := newTestGateway(t, Options{FailThreshold: 1, ProbeTimeout: 200 * time.Millisecond}, b1, b2)

	name := "pinned"
	if resp := createSession(t, gts.URL, name, ""); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	holderAddr := g.placementsSnapshot()[name]
	holder := b1
	if holderAddr == b2.addr() {
		holder = b2
	}
	holder.ts.Close()
	g.probeAll() // one manual probe pass ejects it at FailThreshold=1

	body := `{"assign":{"m1":1}}`
	resp, err := http.Post(gts.URL+"/v1/sessions/"+name+"/whatif", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("whatif on dead holder: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without a Retry-After header")
	}
}

// TestGatewayAddBackendRebalances grows the pool through the admin
// endpoint and checks sessions rebalance onto the newcomer with answers
// preserved.
func TestGatewayAddBackendRebalances(t *testing.T) {
	b1 := newPoolBackend(t)
	_, gts := newTestGateway(t, Options{}, b1)

	const n = 8
	assign := map[string]float64{"p1": 0.5, "m1": 1, "m3": 1, "f1": 1}
	before := map[string][]float64{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("grow-%d", i)
		if resp := createSession(t, gts.URL, name, ""); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, resp.StatusCode)
		}
		before[name] = whatifValues(t, gts.URL, name, assign)
	}

	b2 := newPoolBackend(t)
	addBody, _ := json.Marshal(map[string]string{"addr": b2.addr()})
	resp, err := http.Post(gts.URL+"/gateway/backends", "application/json", bytes.NewReader(addBody))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add backend: status %d: %s", resp.StatusCode, raw)
	}
	var added struct {
		Migrated int `json:"migrated"`
	}
	if err := json.Unmarshal(raw, &added); err != nil {
		t.Fatal(err)
	}
	if added.Migrated == 0 {
		t.Fatal("no sessions migrated to the new backend — ring not rebalanced")
	}
	if b2.reg.Len() == 0 {
		t.Fatal("new backend holds nothing after rebalance")
	}
	if b1.reg.Len()+b2.reg.Len() != n {
		t.Fatalf("pool holds %d+%d sessions, want %d", b1.reg.Len(), b2.reg.Len(), n)
	}
	for name, want := range before {
		got := whatifValues(t, gts.URL, name, assign)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s answer %d = %v after rebalance, want %v", name, i, got[i], want[i])
			}
		}
	}
}

// TestGatewayRebalanceHealsUnknownPlacements: sessions created directly on
// a backend (or surviving a gateway restart) are adopted into the routing
// table by a sweep instead of being invisible.
func TestGatewayRebalanceHealsUnknownPlacements(t *testing.T) {
	b1 := newPoolBackend(t)
	g, gts := newTestGateway(t, Options{}, b1)

	if resp := createSession(t, b1.ts.URL, "preexisting", ""); resp.StatusCode != http.StatusCreated {
		t.Fatalf("direct create: status %d", resp.StatusCode)
	}
	if _, err := g.Rebalance(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := g.placementsSnapshot()["preexisting"]; got != b1.addr() {
		t.Fatalf("placement for preexisting = %q, want %q", got, b1.addr())
	}
	vals := whatifValues(t, gts.URL, "preexisting", map[string]float64{"m1": 1, "m3": 1})
	if len(vals) == 0 {
		t.Fatal("healed session did not answer through the gateway")
	}
}

// TestGatewayDuplicateCreateRoutesToHolder pins the duplicate-create
// policy: a name the gateway already placed is forwarded to its recorded
// holder — even when the ring owner differs (ejection, pending rebalance)
// — so the backend answers 409 instead of forking the session with a 201,
// and the failed attempt must leave the tenant's quota accounting intact.
func TestGatewayDuplicateCreateRoutesToHolder(t *testing.T) {
	b1 := newPoolBackend(t)
	b2 := newPoolBackend(t)
	g, gts := newTestGateway(t, Options{Limits: TenantLimits{MaxSessions: 2}}, b1, b2)

	if resp := createSession(t, gts.URL, "dup", "tenant-a"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	holderAddr := g.placementsSnapshot()["dup"]
	holder, other := b1, b2
	if holderAddr == b2.addr() {
		holder, other = b2, b1
	}

	// Take the holder off the ring (an ejection not yet rebalanced): the
	// ring owner for "dup" is now the other backend, but the placement
	// still names the holder.
	g.mu.Lock()
	g.ring.Remove(holderAddr)
	g.mu.Unlock()

	resp := createSession(t, gts.URL, "dup", "tenant-a")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: status %d, want 409", resp.StatusCode)
	}
	if holder.reg.Len() != 1 || other.reg.Len() != 0 {
		t.Fatalf("duplicate create forked the session: holder=%d other=%d sessions",
			holder.reg.Len(), other.reg.Len())
	}
	// A second tenant's attempt on the held name is refused the same way
	// and must not steal ownership.
	if resp := createSession(t, gts.URL, "dup", "tenant-b"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("cross-tenant duplicate create: status %d, want 409", resp.StatusCode)
	}

	g.mu.Lock()
	g.ring.Add(holderAddr)
	g.mu.Unlock()

	// The failed duplicates must not have released tenant-a's live slot:
	// at MaxSessions=2 exactly one more create fits.
	if resp := createSession(t, gts.URL, "second", "tenant-a"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create under cap after failed duplicate: status %d", resp.StatusCode)
	}
	if resp := createSession(t, gts.URL, "third", "tenant-a"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("create past cap: status %d, want 429 — the failed duplicate leaked a slot", resp.StatusCode)
	}
	// And DELETE still releases the slot it actually owns.
	delReq, err := http.NewRequest(http.MethodDelete, gts.URL+"/v1/sessions/dup", nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", delResp.StatusCode)
	}
	if resp := createSession(t, gts.URL, "third", "tenant-a"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create after delete freed the slot: status %d", resp.StatusCode)
	}
}

// TestGatewayDrainLastBackendRejected: draining the only ring member is
// refused up front and leaves no scar — the backend stays on the ring,
// not draining, and creates keep working.
func TestGatewayDrainLastBackendRejected(t *testing.T) {
	b1 := newPoolBackend(t)
	g, gts := newTestGateway(t, Options{}, b1)

	req, err := http.NewRequest(http.MethodPost, gts.URL+"/gateway/backends/"+b1.addr()+"/drain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("drain of last backend: status %d, want 409", resp.StatusCode)
	}
	g.mu.RLock()
	onRing := g.ring.Has(b1.addr())
	g.mu.RUnlock()
	if !onRing {
		t.Fatal("rejected drain removed the backend from the ring")
	}
	if g.lookup(b1.addr()).isDraining() {
		t.Fatal("rejected drain left the backend marked draining")
	}
	if resp := createSession(t, gts.URL, "after-drain", ""); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create after rejected drain: status %d", resp.StatusCode)
	}
}

// TestGatewayRingPoolDivergence pins both halves of the ring/pool
// consistency fix: a probe readmit cannot re-add a backend that was
// concurrently removed from the pool, and route() answers an error (not a
// nil backend the caller would deref) if the ring does name a non-member.
func TestGatewayRingPoolDivergence(t *testing.T) {
	b1 := newPoolBackend(t)
	b2 := newPoolBackend(t)
	g, gts := newTestGateway(t, Options{}, b1, b2)

	// Simulate probeOne racing handleRemoveBackend: eject b2, remove it
	// from the pool, then run the readmit path against the stale pointer
	// (b2's server is still up, so the probe itself succeeds).
	stale := g.lookup(b2.addr())
	stale.mu.Lock()
	stale.healthy = false
	stale.mu.Unlock()
	g.mu.Lock()
	g.ring.Remove(b2.addr())
	g.mu.Unlock()

	req, err := http.NewRequest(http.MethodDelete, gts.URL+"/gateway/backends/"+b2.addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove backend: status %d", resp.StatusCode)
	}

	if g.probeOne(stale) {
		t.Fatal("probeOne readmitted a backend that left the pool")
	}
	g.mu.RLock()
	has := g.ring.Has(b2.addr())
	g.mu.RUnlock()
	if has {
		t.Fatal("removed backend is back on the ring")
	}

	// Force the divergence anyway: a ring member with no pool entry must
	// surface as a routing error.
	g.mu.Lock()
	g.ring.Add(b2.addr())
	g.mu.Unlock()
	for i := 0; ; i++ {
		name := fmt.Sprintf("phantom-%d", i)
		g.mu.RLock()
		owner, _ := g.ring.Owner(name)
		g.mu.RUnlock()
		if owner != b2.addr() {
			continue
		}
		b, err := g.route(name)
		if err == nil || b != nil {
			t.Fatalf("route to phantom ring owner: backend=%v err=%v, want error", b, err)
		}
		break
	}
}

// TestGatewayDeleteQuiescedDuringMigration: DELETE is a write for
// migration purposes — while a session is quiesced it parks on the
// session's bounded queue and proceeds (no client-visible error) once the
// quiesce lifts; only a park that outlives ParkTimeout degrades to 503 +
// Retry-After.
func TestGatewayDeleteQuiescedDuringMigration(t *testing.T) {
	b1 := newPoolBackend(t)
	g, gts := newTestGateway(t, Options{ParkTimeout: 150 * time.Millisecond}, b1)
	if resp := createSession(t, gts.URL, "moving", ""); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}

	// A quiesce nobody lifts: the parked delete must give up at
	// ParkTimeout with 503 + Retry-After, and must never have reached the
	// backend.
	if !g.quiesceSession("moving") {
		t.Fatal("quiesceSession refused")
	}
	req, err := http.NewRequest(http.MethodDelete, gts.URL+"/v1/sessions/moving", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("delete past the park window: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("parked-out delete 503 without a Retry-After header")
	}
	if b1.reg.Len() != 1 {
		t.Fatal("quiesced delete reached the backend")
	}

	// A quiesce that lifts while the delete is parked: the client sees a
	// plain 200, never a 503.
	g.unquiesceSession("moving")
	if !g.quiesceSession("moving") {
		t.Fatal("re-quiesce refused")
	}
	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req.Clone(context.Background()))
		if err != nil {
			done <- result{err: err}
			return
		}
		resp.Body.Close()
		done <- result{status: resp.StatusCode}
	}()
	// Let the delete reach the park queue, then lift the quiesce.
	deadline := time.Now().Add(2 * time.Second)
	for {
		g.mu.RLock()
		parked := g.parked["moving"]
		n := 0
		if parked != nil {
			n = parked.count
		}
		g.mu.RUnlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("delete never parked")
		}
		time.Sleep(2 * time.Millisecond)
	}
	g.unquiesceSession("moving")
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("parked delete after unquiesce: status %d, want 200", res.status)
	}
	if b1.reg.Len() != 0 {
		t.Fatal("session survived the delete")
	}
	if g.parkedWrites.Load() == 0 {
		t.Error("parked_writes counter never moved")
	}
}
