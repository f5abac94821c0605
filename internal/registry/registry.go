// Package registry hosts many named session Engines in one process — the
// multi-tenant side of the paper's compress-once/ask-many workload. Each
// provenance set (a tenant, a dataset, a benchmark query) lives in its own
// named Session wrapping a session.Engine, with independent abstraction,
// cached compilation and counters; the Registry owns their lifecycle:
//
//	reg := registry.New()
//	sess, _ := reg.Create("telco", set, forest)
//	sess.Engine().Compress(B, ...)
//	reg.Get("telco")   // route a request
//	reg.List()         // enumerate, name-sorted
//	reg.Stats()        // aggregate across sessions
//	reg.Close("telco") // tear down (ends streams)
//
// Closing a session cancels its context (Session.Done), which long-lived
// consumers — the HTTP stream handler in internal/server, queue ingesters —
// watch to tear down in-flight scenario streams promptly.
//
// All methods are safe for concurrent use.
package registry

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/durable"
	"provabs/internal/provenance"
	"provabs/internal/session"
)

// ErrExists reports a Create against a name already in use. The HTTP layer
// maps it to 409 Conflict.
var ErrExists = errors.New("session already exists")

// ErrNotFound reports a lookup of a name with no live session. The HTTP
// layer maps it to 404 Not Found.
var ErrNotFound = errors.New("session not found")

// Session is one named tenant: a session.Engine plus the registry-level
// lifecycle around it.
type Session struct {
	name    string
	created time.Time
	eng     *session.Engine
	ctx     context.Context
	cancel  context.CancelFunc

	// Durable side (nil without EnableDurability). The store serializes
	// each {WAL log, engine apply} pair internally so log order equals
	// apply order — the invariant recovery replays against. A persistence
	// failure is sticky (persistErr): the engine may be ahead of the log,
	// so further writes are refused until a restart recovers from durable
	// state.
	store      *durable.SessionStore
	failMu     sync.Mutex
	persistErr error
}

// newSession wraps an engine in the registry-level lifecycle.
func newSession(name string, eng *session.Engine) *Session {
	ctx, cancel := context.WithCancel(context.Background())
	return &Session{name: name, created: time.Now(), eng: eng, ctx: ctx, cancel: cancel}
}

// Name returns the session's registry name.
func (s *Session) Name() string { return s.name }

// Engine returns the underlying session Engine.
func (s *Session) Engine() *session.Engine { return s.eng }

// Created returns when the session was registered.
func (s *Session) Created() time.Time { return s.created }

// Done is closed when the session is closed, so long-lived consumers
// (scenario streams, queue ingesters) can tear down promptly.
func (s *Session) Done() <-chan struct{} { return s.ctx.Done() }

// Closed reports whether the session has been closed.
func (s *Session) Closed() bool {
	select {
	case <-s.ctx.Done():
		return true
	default:
		return false
	}
}

// Registry owns a process's named sessions.
type Registry struct {
	mu       sync.RWMutex
	sessions map[string]*Session

	// Durable side (nil/empty without EnableDurability). dormant holds
	// on-disk session names from a previous process, recovered lazily on
	// first touch.
	store       *durable.Store
	dormant     map[string]bool
	recoverOpts []session.Option
	recoveries  atomic.Int64
	walRecords  atomic.Int64
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{sessions: make(map[string]*Session)}
}

// validateName rejects names that cannot round-trip through a URL path
// segment of the v1 API.
func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("registry: session name must not be empty")
	}
	if strings.ContainsAny(name, "/\\?#% \t\r\n") {
		return fmt.Errorf("registry: session name %q contains a reserved character (no slashes, backslashes, spaces or URL metacharacters)", name)
	}
	// Names become directory names under a durable store: a leading dot
	// would hide the directory (and "." / ".." would escape it).
	if strings.HasPrefix(name, ".") {
		return fmt.Errorf("registry: session name %q must not start with a dot", name)
	}
	return nil
}

// Create opens a new Engine over the provenance source and registers it
// under name. forest may be nil for an evaluation-only session; opts are
// the engine's Open-time options (workers, delta cutoff, stream tuning).
// A name already in use fails with ErrExists and leaves the existing
// session untouched.
func (r *Registry) Create(name string, set *provenance.Set, forest *abstree.Forest, opts ...session.Option) (*Session, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	// Open validates set/forest compatibility before the registry commits
	// to the name, so a failed Create never occupies a slot.
	eng, err := session.Open(set, forest, opts...)
	if err != nil {
		return nil, err
	}
	return r.register(name, eng)
}

// register commits an engine to a name. Under durability it also writes
// the session's initial snapshot, holding the registry lock across it so
// the name is never observable without its on-disk state: a Create that
// cannot persist fails whole. Dormant names conflict like live ones — the
// on-disk session must be recovered or deleted first, never silently
// shadowed.
func (r *Registry) register(name string, eng *session.Engine) (*Session, error) {
	s := newSession(name, eng)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sessions[name]; ok || r.dormant[name] {
		s.cancel()
		return nil, fmt.Errorf("registry: session %q: %w", name, ErrExists)
	}
	if r.store != nil {
		ss, err := r.store.Create(name, eng)
		if err != nil {
			s.cancel()
			return nil, fmt.Errorf("registry: persist session %q: %w", name, err)
		}
		s.store = ss
	}
	r.sessions[name] = s
	return s, nil
}

// Get returns the session registered under name. A dormant session (on
// disk from a previous process, not yet recovered) is recovered here, on
// first touch.
func (r *Registry) Get(name string) (*Session, error) {
	r.mu.RLock()
	s, ok := r.sessions[name]
	dormant := !ok && r.dormant[name]
	r.mu.RUnlock()
	if ok {
		return s, nil
	}
	if dormant {
		return r.recoverDormant(name)
	}
	return nil, fmt.Errorf("registry: session %q: %w", name, ErrNotFound)
}

// List returns the live sessions sorted by name.
func (r *Registry) List() []*Session {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Len returns the number of live sessions.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sessions)
}

// Close removes the named session and cancels its context, so in-flight
// scenario streams over it terminate.
func (r *Registry) Close(name string) error {
	r.mu.Lock()
	s, ok := r.sessions[name]
	delete(r.sessions, name)
	dormant := false
	if !ok && r.dormant[name] {
		delete(r.dormant, name)
		dormant = true
	}
	store := r.store
	r.mu.Unlock()
	if dormant {
		// Deleting a dormant session removes its on-disk state without
		// recovering it first.
		return store.Drop(name)
	}
	if !ok {
		return fmt.Errorf("registry: session %q: %w", name, ErrNotFound)
	}
	s.cancel()
	if s.store != nil {
		// A deleted session must not come back dormant on the next restart:
		// close the WAL and drop the directory.
		s.store.Close()
		if err := store.Drop(name); err != nil {
			return err
		}
	}
	return nil
}

// CloseAll closes every session (a server shutdown). Unlike Close it
// leaves durable state on disk — the sessions come back dormant on the
// next start.
func (r *Registry) CloseAll() {
	r.mu.Lock()
	sessions := r.sessions
	r.sessions = make(map[string]*Session)
	r.mu.Unlock()
	for _, s := range sessions {
		s.cancel()
		if s.store != nil {
			s.store.Close()
		}
	}
}

// AggregateStats is the registry-wide view served by GET /v1/stats:
// per-session snapshots plus one Totals row summing every counter
// (scenarios, compiles, delta/full/sharded evaluations, stream batches)
// across tenants.
//
// The payload has a stable merge shape, because a gateway aggregates it
// across a pool of backend processes (see Merge):
//
//   - PerSession is the source of truth: one entry per session name, and a
//     session name identifies at most one live session pool-wide (the
//     gateway shards by name).
//   - Totals is derived — always exactly the Accumulate of PerSession —
//     so counters sum once per session and can never double-count, even
//     when two backends briefly report the same name (the export→delete
//     window of a live migration).
//   - Recoveries/WALRecords are per-process counters that sum; Dormant is
//     a name union.
type AggregateStats struct {
	Sessions   int                      `json:"sessions"`
	Totals     session.Stats            `json:"totals"`
	PerSession map[string]session.Stats `json:"per_session"`

	// Durability counters (zero/empty without EnableDurability): sessions
	// recovered from disk this process, WAL records replayed doing so, and
	// on-disk sessions not yet touched.
	Recoveries int64    `json:"recoveries,omitempty"`
	WALRecords int64    `json:"wal_records_replayed,omitempty"`
	Dormant    []string `json:"dormant,omitempty"`
}

// Stats snapshots every live session and the cross-session totals. The
// registry lock is released before touching any engine: Engine.Stats
// blocks behind that engine's mutex (held exclusively for the whole of a
// Compress), and holding r.mu across it would let one tenant's slow
// compression stall session routing for everyone.
func (r *Registry) Stats() AggregateStats {
	r.mu.RLock()
	sessions := make(map[string]*Session, len(r.sessions))
	for name, s := range r.sessions {
		sessions[name] = s
	}
	var dormant []string
	for n := range r.dormant {
		dormant = append(dormant, n)
	}
	r.mu.RUnlock()
	sort.Strings(dormant)
	agg := AggregateStats{
		Sessions:   len(sessions),
		PerSession: make(map[string]session.Stats, len(sessions)),
		Recoveries: r.recoveries.Load(),
		WALRecords: r.walRecords.Load(),
		Dormant:    dormant,
	}
	for name, s := range sessions {
		st := s.eng.Stats()
		agg.PerSession[name] = st
		agg.Totals.Accumulate(st)
	}
	return agg
}

// Merge folds another registry's aggregate payload into a — the pool-wide
// view a gateway serves across backends. The contract (documented on
// AggregateStats) that makes the merge double-count-proof: entries merge
// by session name, and when two payloads both carry a name — the
// export→delete window of a live migration, when source and destination
// both report the session — the entry with the larger Scenarios counter
// wins (counters are monotonic on the long-lived copy; the freshly
// imported one starts its process-local counters at zero). Sessions and
// Totals are then re-derived from the merged PerSession map, so every
// session counts exactly once no matter how many backends reported it.
func (a *AggregateStats) Merge(o AggregateStats) {
	if a.PerSession == nil {
		a.PerSession = make(map[string]session.Stats, len(o.PerSession))
	}
	for name, st := range o.PerSession {
		if cur, ok := a.PerSession[name]; !ok || st.Scenarios > cur.Scenarios {
			a.PerSession[name] = st
		}
	}
	a.Sessions = len(a.PerSession)
	a.Totals = session.Stats{}
	for _, st := range a.PerSession {
		a.Totals.Accumulate(st)
	}
	a.Recoveries += o.Recoveries
	a.WALRecords += o.WALRecords
	if len(o.Dormant) > 0 {
		have := make(map[string]bool, len(a.Dormant))
		for _, n := range a.Dormant {
			have[n] = true
		}
		for _, n := range o.Dormant {
			if !have[n] {
				a.Dormant = append(a.Dormant, n)
			}
		}
		sort.Strings(a.Dormant)
	}
}
