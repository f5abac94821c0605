package gateway

// Live migration: moving a session between backends while the pool keeps
// serving, built on the export/import primitive (POST …/export → create
// from snapshot_b64, pinned bit-identical per carrier with Compiles == 1
// on the importer). The sequence per session:
//
//  1. quiesce — mark the session moving; new one-shot writes (compress,
//     delete) park on a bounded queue, new add streams start journaling,
//     reads keep flowing to the current holder;
//  2. wait for in-flight one-shot writes to finish and detach the live
//     add streams (bounded by QuiesceTimeout) — each detach half-closes
//     its backend leg and requires every sent line's ack, so the export
//     below contains every acknowledged add: acked ⊆ exported. Lines that
//     arrive during the window pile up in the per-stream journals;
//  3. export at the holder, import at the new owner;
//  4. cut over routing (the placement table, durably when a state journal
//     is configured), so the next request lands on the new owner;
//  5. lift the quiesce — parked writes proceed and the add streams
//     reattach to the new holder, replaying their journals in order —
//     and delete at the old holder.
//
// A failure before the cutover leaves the session untouched on the old
// holder (the import is deleted best-effort) and the streams reattach to
// it; a failure after the cutover leaves at worst an orphaned copy on the
// old holder, which the next rebalance sweep retires. Reads are never
// interrupted; writes are never refused unless a queue bound or the park
// window is exceeded — then, and only then, 503 + Retry-After returns.

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Rebalance sweeps the pool once: list each healthy backend's sessions,
// heal the placement table, and live-migrate every session whose ring
// owner is not its holder. Returns how many sessions moved. Sweeps are
// serialized; concurrent callers queue.
func (g *Gateway) Rebalance(ctx context.Context) (moved int, err error) {
	moved, failures, err := g.rebalanceDetail(ctx)
	if err == nil {
		for name, msg := range failures {
			err = fmt.Errorf("migrate %q: %s", name, msg)
			break
		}
	}
	return moved, err
}

// rebalanceDetail is Rebalance with per-session failure reporting: every
// movable session is attempted (MigrateParallel at a time), and the ones
// that could not move come back keyed by name rather than aborting the
// sweep at the first error. The error return is reserved for sweep-level
// failures (an unlistable backend).
func (g *Gateway) rebalanceDetail(ctx context.Context) (moved int, failures map[string]string, err error) {
	g.rebalanceMu.Lock()
	defer g.rebalanceMu.Unlock()

	type holderSession struct{ name, holder string }
	var all []holderSession
	seen := map[string][]string{} // session -> holders (dup = orphan from a past cutover)
	g.mu.RLock()
	backends := make([]*backend, 0, len(g.backends))
	for _, b := range g.backends {
		backends = append(backends, b)
	}
	g.mu.RUnlock()
	sort.Slice(backends, func(i, j int) bool { return backends[i].addr < backends[j].addr })
	for _, b := range backends {
		if !b.isHealthy() {
			continue
		}
		names, lerr := g.listSessions(ctx, b)
		if lerr != nil {
			// A backend that cannot be listed cannot be rebalanced safely;
			// report and let the caller retry.
			return moved, nil, fmt.Errorf("list sessions on %s: %w", b.addr, lerr)
		}
		for _, n := range names {
			all = append(all, holderSession{name: n, holder: b.addr})
			seen[n] = append(seen[n], b.addr)
		}
	}

	// Heal the placement table: a session the gateway did not place (made
	// directly against a backend, or surviving a gateway restart) routes to
	// its holder from here on. When two backends hold the same name, the
	// recorded placement (the cutover winner) is authoritative and the
	// other copy is an orphan — retire it. Healed placements carry no
	// tenant: the gateway never saw them created, so they stay outside
	// quota accounting, durably.
	g.mu.Lock()
	for name, holders := range seen {
		if cur, ok := g.placements[name]; ok && contains(holders, cur) {
			continue
		}
		g.placements[name] = holders[0]
		g.statePlace(name, holders[0], g.limits.ownerOf(name))
	}
	placed := make(map[string]string, len(g.placements))
	for k, v := range g.placements {
		placed[k] = v
	}
	g.mu.Unlock()
	for name, holders := range seen {
		for _, h := range holders {
			if len(holders) > 1 && h != placed[name] {
				g.opts.Logger.Printf("gateway: retiring orphaned copy of %q on %s", name, h)
				g.deleteSession(ctx, g.lookup(h), name) //nolint:errcheck // best effort; next sweep retries
			}
		}
	}

	// Migrate with bounded concurrency: one wedged session must not stall
	// the rest of the sweep, and a drain's wall clock divides by the
	// parallelism instead of summing every export+import serially.
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		sem  = make(chan struct{}, g.opts.MigrateParallel)
		fail = map[string]string{}
	)
	for _, hs := range all {
		if hs.holder != placed[hs.name] {
			continue // orphan copy, handled above
		}
		g.mu.RLock()
		owner, ok := g.ring.Owner(hs.name)
		g.mu.RUnlock()
		if !ok || owner == hs.holder {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(name, holder, owner string) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := g.moveSession(ctx, name, holder, owner); err != nil {
				g.opts.Logger.Printf("gateway: migrate %q %s -> %s: %v", name, holder, owner, err)
				mu.Lock()
				fail[name] = err.Error()
				mu.Unlock()
				return
			}
			mu.Lock()
			moved++
			mu.Unlock()
		}(hs.name, hs.holder, owner)
	}
	wg.Wait()
	if len(fail) > 0 {
		failures = fail
	}
	return moved, failures, nil
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// moveSession live-migrates one session from holder to owner with
// zero-downtime writes: one-shot writes park, add streams detach into
// their journals, and the unquiesce (which always runs) reattaches them
// to whatever the routing table then says.
func (g *Gateway) moveSession(ctx context.Context, name, holder, owner string) error {
	src, dst := g.lookup(holder), g.lookup(owner)
	if src == nil || dst == nil {
		return fmt.Errorf("pool changed under the migration")
	}
	if !dst.isHealthy() {
		return fmt.Errorf("destination %s is unhealthy", owner)
	}

	if !g.quiesceSession(name) {
		return fmt.Errorf("already migrating")
	}
	defer g.unquiesceSession(name)

	// Wait out in-flight one-shot writes; past the deadline the migration
	// aborts rather than strand a caller. New writes are parking, not
	// failing, so this drains quickly.
	deadline := time.Now().Add(g.opts.QuiesceTimeout)
	for {
		g.mu.RLock()
		writers := g.writers[name]
		g.mu.RUnlock()
		if writers == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("session still has %d one-shot write(s) after %v", writers, g.opts.QuiesceTimeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}

	// Detach the live add streams: each half-closes its backend leg and
	// collects every outstanding ack, so the export holds everything ever
	// acknowledged. From here until unquiesce their lines journal.
	pauseCtx, cancel := context.WithDeadline(ctx, deadline)
	g.pauseAddStreams(pauseCtx, name)
	cancel()

	snapshot, err := g.exportSession(ctx, src, name)
	if err != nil {
		return fmt.Errorf("export from %s: %w", holder, err)
	}
	if err := g.importSession(ctx, dst, name, snapshot); err != nil {
		// Unquiesce (deferred) reattaches the streams to the old holder;
		// nothing moved.
		return fmt.Errorf("import at %s: %w", owner, err)
	}

	// Cutover: from here every new request — and the journal replay the
	// unquiesce triggers — routes to the new owner.
	g.mu.Lock()
	g.placements[name] = owner
	g.statePlace(name, owner, g.limits.ownerOf(name))
	g.mu.Unlock()
	g.migrations.Add(1)

	if err := g.deleteSession(ctx, src, name); err != nil {
		// The authoritative copy moved; the old one is an orphan the next
		// sweep retires. Not a migration failure.
		g.opts.Logger.Printf("gateway: delete migrated %q on %s: %v", name, holder, err)
	}
	g.opts.Logger.Printf("gateway: migrated session %q %s -> %s (%d bytes)", name, holder, owner, len(snapshot))
	return nil
}

// listSessions returns the session names a backend holds. Listing only
// reads, so it rides the retrying round trip.
func (g *Gateway) listSessions(ctx context.Context, b *backend) ([]string, error) {
	var lr struct {
		Sessions []struct {
			Name string `json:"name"`
		} `json:"sessions"`
	}
	if err := g.getJSON(ctx, b, "/v1/sessions", &lr); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(lr.Sessions))
	for _, s := range lr.Sessions {
		names = append(names, s.Name)
	}
	return names, nil
}

// exportSession pulls a session's snapshot bytes off its holder. Export
// is read-only, so transport failures retry. The bytes stay in the
// response's buffer, which is never released to the pool: the caller
// holds them through the import.
func (g *Gateway) exportSession(ctx context.Context, b *backend, name string) ([]byte, error) {
	br, err := g.roundTrip(ctx, b, http.MethodPost, "/v1/sessions/"+name+"/export", nil, nil, true)
	if err != nil {
		return nil, err
	}
	if br.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", br.status, bytes.TrimSpace(br.body))
	}
	return br.body, nil
}

// importSession creates the session at its new owner from snapshot bytes.
// The importing backend validates checksums and restores without
// recompiling, so its Compiles counter is 1 and answers are bit-identical
// to the exporter's. Import is NOT retried: a lost response is ambiguous
// (the import may have landed, and the retry's 409 would then lie about a
// conflict), so a failure aborts the migration instead.
func (g *Gateway) importSession(ctx context.Context, b *backend, name string, snapshot []byte) error {
	body, err := json.Marshal(map[string]string{
		"name":         name,
		"snapshot_b64": base64.StdEncoding.EncodeToString(snapshot),
	})
	if err != nil {
		return err
	}
	hdr := http.Header{"Content-Type": []string{"application/json"}}
	br, err := g.roundTrip(ctx, b, http.MethodPost, "/v1/sessions", hdr, body, false)
	if err != nil {
		return err
	}
	defer br.release()
	if br.status != http.StatusCreated {
		return fmt.Errorf("status %d: %s", br.status, bytes.TrimSpace(br.body))
	}
	return nil
}

// deleteSession removes a session from a backend. A 404 counts as gone —
// retries and sweeps make "already deleted" an expected answer.
func (g *Gateway) deleteSession(ctx context.Context, b *backend, name string) error {
	if b == nil {
		return fmt.Errorf("backend gone")
	}
	br, err := g.roundTrip(ctx, b, http.MethodDelete, "/v1/sessions/"+name, nil, nil, false)
	if err != nil {
		return err
	}
	br.release()
	if br.status != http.StatusOK && br.status != http.StatusNotFound {
		return fmt.Errorf("status %d", br.status)
	}
	return nil
}
