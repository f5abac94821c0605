package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"provabs/internal/durable"
	"provabs/internal/registry"
	"provabs/internal/reqbody"
)

// Options tunes a Gateway. The zero value is usable; New fills defaults.
type Options struct {
	// VNodes is the virtual-node count per backend on the hash ring
	// (default 64).
	VNodes int
	// ProbeInterval is the health-check period for healthy backends
	// (default 2s). Start launches the probe loop; a Gateway whose Start
	// was never called does no probing (tests drive health by hand).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe (default 1s).
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive probe failures eject a backend
	// (default 2).
	FailThreshold int
	// ReadmitBackoffMax caps the exponential probe backoff of an ejected
	// backend (default 30s; the backoff starts at ProbeInterval).
	ReadmitBackoffMax time.Duration
	// MaxInflight bounds concurrently proxied requests per backend
	// (default 256); past it the gateway answers 503 + Retry-After instead
	// of queueing without bound.
	MaxInflight int
	// MaxCreateBytes bounds a create body the gateway must buffer to read
	// the session name (default 64 MiB, matching the backend limit).
	MaxCreateBytes int64
	// QuiesceTimeout is how long a migration waits for a session's
	// in-flight write streams to finish before giving up (default 10s).
	QuiesceTimeout time.Duration
	// Limits are the per-tenant resource caps (zero: unlimited).
	Limits TenantLimits
	// Retry tunes gateway→backend retries for idempotent calls (see
	// RetryPolicy; zero values take the documented defaults).
	Retry RetryPolicy
	// BreakerThreshold is how many consecutive transport failures open a
	// backend's circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is the breaker's first open window (default 2s); it
	// doubles on repeated trips up to BreakerCooldownMax (default 30s).
	BreakerCooldown    time.Duration
	BreakerCooldownMax time.Duration
	// StatePath, when set, makes placements and tenant-session ownership
	// durable in a checksummed journal there; a restarted gateway recovers
	// its routing and quota counts instead of re-learning by sweep.
	StatePath string
	// StateFS is the filesystem the state journal lives on (default the
	// real one; tests inject a fault-injecting FS).
	StateFS durable.FS
	// MigrateParallel bounds concurrent session migrations in one
	// rebalance/drain sweep (default 4).
	MigrateParallel int
	// JournalLines / JournalBytes bound one add stream's queue-and-replay
	// journal during a migration (defaults 4096 lines, 8 MiB). A full
	// journal stops reading the client's body (TCP backpressure) rather
	// than failing the stream.
	JournalLines int
	JournalBytes int64
	// ParkLimit bounds how many one-shot writes may queue per migrating
	// session (default 256); past it the gateway answers 503 again.
	ParkLimit int
	// ParkTimeout bounds how long a parked write waits out a migration
	// (default 2×QuiesceTimeout).
	ParkTimeout time.Duration
	// MaxLineBytes bounds one NDJSON line through the add proxy (default
	// 1 MiB, matching the backend).
	MaxLineBytes int64
	// Logger receives routing and migration diagnostics (default
	// log.Default()).
	Logger *log.Logger
}

func (o *Options) fillDefaults() {
	if o.VNodes <= 0 {
		o.VNodes = 64
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 2
	}
	if o.ReadmitBackoffMax <= 0 {
		o.ReadmitBackoffMax = 30 * time.Second
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 256
	}
	if o.MaxCreateBytes <= 0 {
		o.MaxCreateBytes = 64 << 20
	}
	if o.QuiesceTimeout <= 0 {
		o.QuiesceTimeout = 10 * time.Second
	}
	o.Retry.fillDefaults()
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 2 * time.Second
	}
	if o.BreakerCooldownMax <= 0 {
		o.BreakerCooldownMax = 30 * time.Second
	}
	if o.StateFS == nil {
		o.StateFS = durable.OSFS{}
	}
	if o.MigrateParallel <= 0 {
		o.MigrateParallel = 4
	}
	if o.JournalLines <= 0 {
		o.JournalLines = 4096
	}
	if o.JournalBytes <= 0 {
		o.JournalBytes = 8 << 20
	}
	if o.ParkLimit <= 0 {
		o.ParkLimit = 256
	}
	if o.ParkTimeout <= 0 {
		o.ParkTimeout = 2 * o.QuiesceTimeout
	}
	if o.MaxLineBytes <= 0 {
		o.MaxLineBytes = 1 << 20
	}
	if o.Logger == nil {
		o.Logger = log.Default()
	}
}

// backend is one pool member and its live accounting.
type backend struct {
	addr string // host:port, the pool identity
	base string // http://host:port

	mu       sync.Mutex
	healthy  bool
	draining bool // drained backends take no new sessions (off the ring)
	failures int  // consecutive probe failures
	backoff  time.Duration
	nextAt   time.Time // earliest next probe while ejected

	inflight    chan struct{} // bounded proxy slots
	breaker     *breaker      // request-path circuit breaker
	retryBudget *tokenBucket  // caps retry amplification per backend
	pool        *connPool     // connections of the idempotent buffered calls
}

func (b *backend) isHealthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

func (b *backend) isDraining() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.draining
}

// acquire claims a proxy slot without blocking.
func (b *backend) acquire() bool {
	select {
	case b.inflight <- struct{}{}:
		return true
	default:
		return false
	}
}

func (b *backend) release() { <-b.inflight }

// Gateway routes /v1 traffic across a pool of provabs serve backends.
type Gateway struct {
	opts   Options
	client *http.Client // streaming proxy + control calls; no global timeout
	probe  *http.Client // health probes, tightly bounded
	limits *limiter

	state *stateStore // durable placements + quota ownership; nil without StatePath

	mu         sync.RWMutex
	backends   map[string]*backend
	ring       *Ring
	placements map[string]string         // session name -> backend addr it lives on
	moving     map[string]time.Time      // sessions quiesced for migration -> quiesce start
	writers    map[string]int            // in-flight one-shot writes per session
	parked     map[string]*parkedSession // bounded wait queues for quiesced writes
	addProxies map[string][]*addProxy    // live add streams per session

	rebalanceMu sync.Mutex // one rebalance sweep at a time

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup

	// counters for GET /gateway/backends observability
	proxied          atomic.Int64
	migrations       atomic.Int64
	retries          atomic.Int64 // idempotent round trips retried
	staleRedials     atomic.Int64 // pooled connections found closed and redialled
	parkedWrites     atomic.Int64 // one-shot writes that waited out a quiesce
	journaledLines   atomic.Int64 // add lines buffered during migrations
	replayedLines    atomic.Int64 // journaled lines replayed onto a new holder
	journalStalls    atomic.Int64 // forwards blocked on a full journal
	journalHighWater atomic.Int64 // deepest single-stream journal observed
}

// New builds a gateway over the given backend addresses (host:port). The
// backends are assumed healthy until the first probe says otherwise; call
// Start to begin probing. With Options.StatePath set, placements and
// tenant-session ownership recover from the durable journal before the
// first request is served.
func New(addrs []string, opts Options) (*Gateway, error) {
	opts.fillDefaults()
	if len(addrs) == 0 {
		return nil, fmt.Errorf("gateway: need at least one backend address")
	}
	g := &Gateway{
		opts: opts,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 128,
			IdleConnTimeout:     90 * time.Second,
		}},
		probe:      &http.Client{Timeout: opts.ProbeTimeout},
		limits:     newLimiter(opts.Limits),
		backends:   make(map[string]*backend),
		ring:       NewRing(opts.VNodes),
		placements: make(map[string]string),
		moving:     make(map[string]time.Time),
		writers:    make(map[string]int),
		parked:     make(map[string]*parkedSession),
		addProxies: make(map[string][]*addProxy),
		stopCh:     make(chan struct{}),
	}
	for _, addr := range addrs {
		if err := g.addBackendLocked(addr); err != nil {
			return nil, err
		}
	}
	if opts.StatePath != "" {
		st, recovered, err := openStateStore(opts.StateFS, opts.StatePath, opts.Logger)
		if err != nil {
			return nil, err
		}
		g.state = st
		for name, e := range recovered {
			g.placements[name] = e.Backend
			if e.Tenant != "" {
				// Re-seed the quota counters from the durable facts. adopt
				// bypasses the cap check: these sessions already exist, and
				// refusing to count them would under-charge, not protect.
				g.limits.adopt(e.Tenant, name)
			}
		}
	}
	return g, nil
}

// addBackendLocked registers a pool member (callers hold no lock during
// New; AddBackend takes g.mu itself).
func (g *Gateway) addBackendLocked(addr string) error {
	addr = strings.TrimPrefix(strings.TrimPrefix(addr, "http://"), "https://")
	addr = strings.TrimSuffix(addr, "/")
	if addr == "" {
		return fmt.Errorf("gateway: empty backend address")
	}
	if _, ok := g.backends[addr]; ok {
		return fmt.Errorf("gateway: backend %s already in the pool", addr)
	}
	b := &backend{
		addr:        addr,
		base:        "http://" + addr,
		healthy:     true,
		inflight:    make(chan struct{}, g.opts.MaxInflight),
		breaker:     newBreaker(g.opts.BreakerThreshold, g.opts.BreakerCooldown, g.opts.BreakerCooldownMax),
		retryBudget: newTokenBucket(g.opts.Retry.RetryBudgetPerSec, g.opts.Retry.RetryBudgetBurst, time.Now()),
		pool:        &connPool{addr: addr},
	}
	g.backends[addr] = b
	g.ring.Add(addr)
	return nil
}

// Start launches the health-probe loop. Stop ends it. Initial probe
// times are staggered across the interval so a fleet of gateways (or one
// gateway's backends) never probe in the same instant; tests that drive
// probeAll by hand never call Start and keep the probe-everything-now
// zero values.
func (g *Gateway) Start() {
	g.staggerProbes()
	g.wg.Add(1)
	go g.probeLoop()
}

// Stop ends background work, waits for it, closes the backends' pooled
// connections and closes the state journal.
func (g *Gateway) Stop() {
	g.stopOnce.Do(func() { close(g.stopCh) })
	g.wg.Wait()
	g.mu.RLock()
	for _, b := range g.backends {
		b.pool.close()
	}
	g.mu.RUnlock()
	g.state.close()
}

// lookup resolves a backend by addr.
func (g *Gateway) lookup(addr string) *backend {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.backends[addr]
}

// route picks the backend serving session name: its recorded placement if
// the gateway has one, else the ring owner. The placement map is what lets
// routing survive the window where a ring change has re-assigned ownership
// but the session has not migrated yet.
func (g *Gateway) route(name string) (*backend, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if addr, ok := g.placements[name]; ok {
		if b := g.backends[addr]; b != nil {
			return b, nil
		}
	}
	addr, ok := g.ring.Owner(name)
	if !ok {
		return nil, fmt.Errorf("gateway: no routable backends in the pool")
	}
	b := g.backends[addr]
	if b == nil {
		// The ring and the pool can diverge for an instant (a remove racing
		// a readmit); never hand a nil backend to a caller that will deref it.
		return nil, fmt.Errorf("gateway: ring owner %s for %q left the pool; retry shortly", addr, name)
	}
	return b, nil
}

// tenantFor names the requesting tenant ("default" when the cooperative
// X-Tenant header is absent).
func tenantFor(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// writeJSON / writeError mirror the backend server's error body shape so a
// client cannot tell a gateway rejection from a backend one by format.
func (g *Gateway) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		g.opts.Logger.Printf("gateway: writing response: %v", err)
	}
}

func (g *Gateway) writeError(w http.ResponseWriter, status int, err error) {
	g.writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeLimited answers a limiter rejection: 429 with Retry-After.
func (g *Gateway) writeLimited(w http.ResponseWriter, err error) {
	var lim *errLimited
	if errors.As(err, &lim) {
		w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(lim.retryAfter)))
	} else {
		w.Header().Set("Retry-After", "1")
	}
	g.writeError(w, http.StatusTooManyRequests, err)
}

// writeUnavailable answers 503 with Retry-After — the backpressure shape
// for saturation and migration quiesce windows.
func (g *Gateway) writeUnavailable(w http.ResponseWriter, seconds int, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(seconds))
	g.writeError(w, http.StatusServiceUnavailable, err)
}

// Handler returns the gateway's HTTP surface: the proxied /v1 API plus the
// /gateway admin endpoints.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", g.handleCreate)
	mux.HandleFunc("GET /v1/sessions", g.handleList)
	mux.HandleFunc("GET /v1/stats", g.handleStats)
	mux.HandleFunc("/v1/sessions/{name}", g.handleSession)
	mux.HandleFunc("/v1/sessions/{name}/{verb...}", g.handleSessionVerb)
	mux.HandleFunc("GET /gateway/backends", g.handleBackends)
	mux.HandleFunc("POST /gateway/backends", g.handleAddBackend)
	mux.HandleFunc("POST /gateway/backends/{addr}/drain", g.handleDrain)
	mux.HandleFunc("DELETE /gateway/backends/{addr}", g.handleRemoveBackend)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// createName is the one member of a create body the gateway reads: the
// session name it routes by.
type createName struct {
	Name string `json:"name"`
}

// createBody reads a create body once, with readBody, and the session
// name in it. The base64 members are lifted out before json.Unmarshal,
// which then reads only the small rest and gives what it gives on the
// whole body. createBody answers the request itself, and reports false,
// when either step fails.
func (g *Gateway) createBody(w http.ResponseWriter, r *http.Request) (body []byte, name string, ok bool) {
	if body, ok = g.readBody(w, r, "create"); !ok {
		return nil, "", false
	}
	named := body
	if rest, _, lifted := reqbody.Lift(body, "provenance_b64", "snapshot_b64"); lifted {
		named = rest
	}
	var req createName
	if err := json.Unmarshal(named, &req); err != nil {
		g.writeError(w, http.StatusBadRequest, fmt.Errorf("create: bad request body: %w", err))
		return nil, "", false
	}
	if name = req.Name; name == "" {
		g.writeError(w, http.StatusBadRequest, fmt.Errorf("create: the gateway requires a session name to route by"))
		return nil, "", false
	}
	return body, name, true
}

// readBody reads a request body of at most MaxCreateBytes with
// reqbody.Read. On a failure it answers the request itself — 413 when the
// body is over the limit, 400 when reading it failed — and reports false.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request, verb string) ([]byte, bool) {
	body, err := reqbody.Read(w, r, g.opts.MaxCreateBytes)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			g.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("%s: request body exceeds the %d-byte limit", verb, tooBig.Limit))
			return nil, false
		}
		g.writeError(w, http.StatusBadRequest, fmt.Errorf("%s: reading body: %w", verb, err))
		return nil, false
	}
	return body, true
}

// handleCreate buffers the create body (routing needs the name inside it),
// charges the tenant's session quota, and forwards to the ring owner.
func (g *Gateway) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, name, ok := g.createBody(w, r)
	if !ok {
		return
	}
	tenant := tenantFor(r)

	// A name the gateway already routes must go to its recorded holder, not
	// the ring owner: after an ejection or before a rebalance the two can
	// differ, and creating on the ring owner would fork the session — 201
	// instead of 409, and the next sweep would retire the real copy as an
	// orphan. The holder answers 409 authoritatively; no quota is claimed
	// (a 201 here means the placement was stale and the session is adopted
	// like any backend-created one, outside tenant accounting).
	g.mu.RLock()
	placedAddr, placed := g.placements[name]
	var b *backend
	if placed {
		b = g.backends[placedAddr]
	} else if addr, ok := g.ring.Owner(name); ok {
		b = g.backends[addr]
	}
	g.mu.RUnlock()
	if placed {
		if b == nil {
			g.writeUnavailable(w, 1, fmt.Errorf(
				"session %q already exists on backend %s, which left the pool; retry shortly", name, placedAddr))
			return
		}
		if !b.isHealthy() {
			g.writeUnavailable(w, g.probeRetrySeconds(b), fmt.Errorf(
				"session %q already exists on backend %s, which is unreachable; retry shortly", name, placedAddr))
			return
		}
		g.proxyBuffered(w, r, b, body, false) //nolint:errcheck // holder's verdict (409) already written
		return
	}

	if err := g.limits.registerSession(tenant, name); err != nil {
		if errors.Is(err, errSessionTaken) {
			// Registered but not yet placed: a concurrent create is mid-flight.
			g.writeError(w, http.StatusConflict, fmt.Errorf("session %q already exists", name))
			return
		}
		g.writeLimited(w, err)
		return
	}
	if b == nil {
		g.limits.releaseSession(name)
		g.writeUnavailable(w, 1, fmt.Errorf("gateway: no routable backends in the pool"))
		return
	}
	status, err := g.proxyBuffered(w, r, b, body, false)
	if err != nil || status != http.StatusCreated {
		g.limits.releaseSession(name)
		return
	}
	g.mu.Lock()
	g.placements[name] = b.addr
	g.statePlace(name, b.addr, tenant)
	g.mu.Unlock()
}

// handleSession proxies GET (info) and DELETE on one session.
func (g *Gateway) handleSession(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	switch r.Method {
	case http.MethodGet, http.MethodDelete:
	default:
		g.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	if r.Method == http.MethodDelete {
		// DELETE is a write for migration purposes: it parks through a
		// quiesce window like any one-shot write, then registers as a
		// writer and re-checks — otherwise a delete racing moveSession can
		// land on the old holder after the export and the cutover silently
		// resurrects the session. Routing happens after the park: the whole
		// point of waiting is that the holder may change.
		if !g.claimWrite(w, r, name) {
			return
		}
		defer g.removeWriter(name)
	}
	b, err := g.route(name)
	if err != nil {
		g.writeUnavailable(w, 1, err)
		return
	}
	status, err := g.proxyBuffered(w, r, b, nil, r.Method == http.MethodGet)
	if r.Method == http.MethodDelete && err == nil && status == http.StatusOK {
		g.mu.Lock()
		delete(g.placements, name)
		g.stateUnplace(name)
		g.mu.Unlock()
		g.limits.releaseSession(name)
	}
}

// claimWrite parks the caller through any in-flight migration of name and
// registers it as a writer. It reports false with the 503 already written
// when the park queue overflows or outlives ParkTimeout. The
// register-then-recheck loop closes the race with a quiesce that begins
// between awaitWritable's answer and the registration.
func (g *Gateway) claimWrite(w http.ResponseWriter, r *http.Request, name string) bool {
	for {
		ra, err := g.awaitWritable(r.Context(), name)
		if err != nil {
			g.writeUnavailable(w, ra, err)
			return false
		}
		g.addWriter(name)
		if !g.quiesced(name) {
			return true
		}
		g.removeWriter(name)
	}
}

// verbClass classifies a session sub-verb for routing policy.
type verbClass struct {
	stream bool // NDJSON in or out: proxy full-duplex, flush per line
	write  bool // mutates the session: parked/journaled during migration
	// idempotent marks verbs safe to retry on transport failure: repeating
	// them cannot change state twice. whatif/query/export/stats only read;
	// create, add, compress and delete get exactly one attempt, because a
	// lost response leaves their effect in doubt.
	idempotent bool
	cost       int // scenarios charged up front (streams meter per line instead)
}

// classify maps the {verb...} path tail. Unknown verbs proxy as plain
// requests — the backend answers 404/405 authoritatively.
func classify(verb string) verbClass {
	switch verb {
	case "whatif", "query":
		return verbClass{cost: 1, idempotent: true}
	case "whatif/stream", "query/stream":
		return verbClass{stream: true, idempotent: true} // read-only, but streams never retry
	case "add":
		return verbClass{stream: true, write: true}
	case "compress":
		return verbClass{write: true}
	case "export", "stats":
		return verbClass{idempotent: true}
	default:
		return verbClass{}
	}
}

// quiesced reports whether a session's writes are paused for migration.
func (g *Gateway) quiesced(name string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.moving[name]
	return ok
}

// handleSessionVerb proxies every per-session verb, applying tenant
// limits, migration quiesce, and per-backend admission control.
func (g *Gateway) handleSessionVerb(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	verb := r.PathValue("verb")
	class := classify(verb)
	tenant := tenantFor(r)

	if class.cost > 0 {
		if err := g.limits.allowScenarios(tenant, float64(class.cost)); err != nil {
			g.writeLimited(w, err)
			return
		}
	}
	if class.stream {
		release, err := g.limits.acquireStream(tenant)
		if err != nil {
			g.writeLimited(w, err)
			return
		}
		defer release()
		r.Body = g.limits.throttleBody(r.Context(), tenant, r.Body)
	}

	// The add-ingestion stream has its own line-aware proxy: it rides out
	// migrations by journaling and replaying instead of bouncing with 503.
	if verb == "add" && r.Method == http.MethodPost {
		g.serveAddStream(w, r, name)
		return
	}

	if class.write {
		// One-shot writes (compress, a mis-methoded add) park through a
		// migration rather than bounce.
		if !g.claimWrite(w, r, name) {
			return
		}
		defer g.removeWriter(name)
	}

	b, err := g.route(name)
	if err != nil {
		g.writeUnavailable(w, 1, err)
		return
	}
	if !b.isHealthy() {
		g.writeUnavailable(w, g.probeRetrySeconds(b),
			fmt.Errorf("backend %s holding session %q is unhealthy; retry shortly", b.addr, name))
		return
	}

	if class.stream {
		g.proxyStream(w, r, b, true)
		return
	}

	// One-shot verbs go fully buffered through the retrying round trip: a
	// retry must never fire after response bytes reached the client, and
	// buffering is what makes that invariant trivially true.
	var body []byte
	if r.Body != nil && r.Method != http.MethodGet {
		var ok bool
		if body, ok = g.readBody(w, r, verb); !ok {
			return
		}
	}
	g.proxyBuffered(w, r, b, body, class.idempotent) //nolint:errcheck // response already written
}

// probeRetrySeconds derives an unhealthy backend's Retry-After from the
// prober's real schedule: the soonest the pool's view can change is that
// backend's next probe, so that is what the client is told to wait.
func (g *Gateway) probeRetrySeconds(b *backend) int {
	b.mu.Lock()
	next := b.nextAt
	b.mu.Unlock()
	if d := time.Until(next); d > 0 {
		return retrySeconds(d)
	}
	return 1
}

func (g *Gateway) addWriter(name string) {
	g.mu.Lock()
	g.writers[name]++
	g.mu.Unlock()
}

func (g *Gateway) removeWriter(name string) {
	g.mu.Lock()
	g.writers[name]--
	if g.writers[name] <= 0 {
		delete(g.writers, name)
	}
	g.mu.Unlock()
}

// handleList fans GET /v1/sessions out to every healthy backend and merges
// the name-sorted union. A backend that fails its round trip is skipped
// and logged.
func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	type listResp struct {
		Sessions []json.RawMessage `json:"sessions"`
	}
	var (
		mu       sync.Mutex
		sessions []json.RawMessage
		names    []string
	)
	g.eachHealthy(func(b *backend) {
		var lr listResp
		if err := g.getJSON(r.Context(), b, "/v1/sessions", &lr); err != nil {
			g.opts.Logger.Printf("gateway: list %s: %v", b.addr, err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for _, raw := range lr.Sessions {
			var n struct {
				Name string `json:"name"`
			}
			json.Unmarshal(raw, &n) //nolint:errcheck // sort key only
			sessions = append(sessions, raw)
			names = append(names, n.Name)
		}
	})
	sort.Sort(&rawByName{names: names, raws: sessions})
	g.writeJSON(w, http.StatusOK, map[string]any{"sessions": sessions})
}

// getJSON GETs uri from b through the retrying round trip and decodes a
// 200 answer into v.
func (g *Gateway) getJSON(ctx context.Context, b *backend, uri string, v any) error {
	br, err := g.roundTrip(ctx, b, http.MethodGet, uri, nil, nil, true)
	if err != nil {
		return err
	}
	defer br.release()
	if br.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", br.status, bytes.TrimSpace(br.body))
	}
	return json.Unmarshal(br.body, v)
}

type rawByName struct {
	names []string
	raws  []json.RawMessage
}

func (s *rawByName) Len() int           { return len(s.names) }
func (s *rawByName) Less(i, j int) bool { return s.names[i] < s.names[j] }
func (s *rawByName) Swap(i, j int) {
	s.names[i], s.names[j] = s.names[j], s.names[i]
	s.raws[i], s.raws[j] = s.raws[j], s.raws[i]
}

// handleStats fans GET /v1/stats out to every healthy backend and answers
// the pool-wide merge (registry.AggregateStats.Merge — counters summed
// once per session, per-backend gauges kept per backend) plus each
// backend's own payload. A backend that fails its round trip is reported
// under "unreachable".
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	var (
		mu       sync.Mutex
		pool     registry.AggregateStats
		per      = map[string]registry.AggregateStats{}
		failures = map[string]string{}
	)
	g.eachHealthy(func(b *backend) {
		var st registry.AggregateStats
		if err := g.getJSON(r.Context(), b, "/v1/stats", &st); err != nil {
			mu.Lock()
			failures[b.addr] = err.Error()
			mu.Unlock()
			return
		}
		mu.Lock()
		per[b.addr] = st
		pool.Merge(st)
		mu.Unlock()
	})
	out := map[string]any{"pool": pool, "backends": per}
	if len(failures) > 0 {
		out["unreachable"] = failures
	}
	g.writeJSON(w, http.StatusOK, out)
}

// eachHealthy runs f concurrently over the healthy backends and waits.
func (g *Gateway) eachHealthy(f func(*backend)) {
	g.mu.RLock()
	var targets []*backend
	for _, b := range g.backends {
		if b.isHealthy() {
			targets = append(targets, b)
		}
	}
	g.mu.RUnlock()
	var wg sync.WaitGroup
	for _, b := range targets {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			f(b)
		}(b)
	}
	wg.Wait()
}

// backendInfo is one pool member's admin view.
type backendInfo struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
	Ring     bool   `json:"on_ring"`
	Sessions int    `json:"sessions"` // placements routed here
	Inflight int    `json:"inflight"`
	Breaker  string `json:"breaker"`       // closed / open / half-open
	Trips    int64  `json:"breaker_trips"` // total breaker trips
}

func (g *Gateway) handleBackends(w http.ResponseWriter, r *http.Request) {
	g.mu.RLock()
	held := map[string]int{}
	for _, addr := range g.placements {
		held[addr]++
	}
	infos := make([]backendInfo, 0, len(g.backends))
	for addr, b := range g.backends {
		state, trips := b.breaker.snapshot()
		b.mu.Lock()
		infos = append(infos, backendInfo{
			Addr:     addr,
			Healthy:  b.healthy,
			Draining: b.draining,
			Ring:     g.ring.Has(addr),
			Sessions: held[addr],
			Inflight: len(b.inflight),
			Breaker:  state,
			Trips:    trips,
		})
		b.mu.Unlock()
	}
	g.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Addr < infos[j].Addr })
	g.writeJSON(w, http.StatusOK, map[string]any{
		"backends":   infos,
		"migrations": g.migrations.Load(),
		"proxied":    g.proxied.Load(),
		"resilience": map[string]any{
			"retries":            g.retries.Load(),
			"stale_redials":      g.staleRedials.Load(),
			"parked_writes":      g.parkedWrites.Load(),
			"journaled_lines":    g.journaledLines.Load(),
			"replayed_lines":     g.replayedLines.Load(),
			"journal_stalls":     g.journalStalls.Load(),
			"journal_high_water": g.journalHighWater.Load(),
			"state_durable":      g.state.healthy(),
		},
	})
}

// handleAddBackend grows the pool: add to the ring, then rebalance so the
// sessions that now hash to the newcomer migrate in. The request returns
// when the rebalance sweep is done.
func (g *Gateway) handleAddBackend(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Addr string `json:"addr"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		g.writeError(w, http.StatusBadRequest, fmt.Errorf("add backend: %w", err))
		return
	}
	g.mu.Lock()
	err := g.addBackendLocked(req.Addr)
	g.mu.Unlock()
	if err != nil {
		g.writeError(w, http.StatusConflict, err)
		return
	}
	moved, err := g.Rebalance(r.Context())
	if err != nil {
		g.writeJSON(w, http.StatusOK, map[string]any{
			"added": req.Addr, "migrated": moved, "rebalance_error": err.Error(),
		})
		return
	}
	g.writeJSON(w, http.StatusOK, map[string]any{"added": req.Addr, "migrated": moved})
}

// handleDrain takes a backend off the ring and live-migrates every session
// it holds to the remaining owners; the backend stays in the pool (still
// probed, still answering reads for anything not yet moved) but receives
// no new sessions. The request returns when its sessions are gone.
func (g *Gateway) handleDrain(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("addr")
	b := g.lookup(addr)
	if b == nil {
		g.writeError(w, http.StatusNotFound, fmt.Errorf("backend %s is not in the pool", addr))
		return
	}
	// Validate before mutating: a rejected drain must leave the backend on
	// the ring and not draining, or the pool is stuck with no recovery
	// endpoint (health readmit deliberately skips draining backends).
	g.mu.Lock()
	left := g.ring.Len()
	if g.ring.Has(addr) {
		left--
	}
	if left == 0 {
		g.mu.Unlock()
		g.writeError(w, http.StatusConflict, fmt.Errorf("draining %s would leave the ring empty", addr))
		return
	}
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
	g.ring.Remove(addr)
	g.mu.Unlock()
	// The sweep migrates every session it can and reports the ones it
	// could not per session, instead of aborting at the first failure: a
	// drain with one wedged session still moves the other N-1.
	moved, failures, err := g.rebalanceDetail(r.Context())
	if err != nil {
		g.writeUnavailable(w, 2, fmt.Errorf("drain %s: %w (migrated %d; retry to finish)", addr, err, moved))
		return
	}
	if len(failures) > 0 {
		w.Header().Set("Retry-After", "2")
		g.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"draining": addr, "migrated": moved, "errors": failures,
		})
		return
	}
	g.writeJSON(w, http.StatusOK, map[string]any{"draining": addr, "migrated": moved})
}

// handleRemoveBackend drops a backend from the pool entirely. Sessions
// still placed on it (a dead backend's, say) lose their routing override;
// they become unreachable until recreated or the backend rejoins.
func (g *Gateway) handleRemoveBackend(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("addr")
	g.mu.Lock()
	b, ok := g.backends[addr]
	if ok {
		delete(g.backends, addr)
		g.ring.Remove(addr)
		for name, holder := range g.placements {
			if holder == addr {
				delete(g.placements, name)
				g.stateUnplace(name)
			}
		}
	}
	g.mu.Unlock()
	if !ok {
		g.writeError(w, http.StatusNotFound, fmt.Errorf("backend %s is not in the pool", addr))
		return
	}
	b.pool.close()
	g.writeJSON(w, http.StatusOK, map[string]string{"removed": addr})
}

// placementsSnapshot returns a copy of the routing table (tests).
func (g *Gateway) placementsSnapshot() map[string]string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make(map[string]string, len(g.placements))
	for k, v := range g.placements {
		out[k] = v
	}
	return out
}
