package gateway

// Health checking: a single loop probes every backend's /healthz. A
// healthy backend is probed every ProbeInterval; FailThreshold consecutive
// failures eject it — off the ring, no new sessions, session-scoped
// requests answered 503 + Retry-After until it returns. An ejected
// backend keeps being probed on an exponential backoff (ProbeInterval
// doubling up to ReadmitBackoffMax); the first success readmits it, puts
// it back on the ring (unless it is draining) and triggers a rebalance so
// the sessions that hash to it migrate back in.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"
)

// staggerProbes assigns every backend a random first probe time within
// the probe interval, so a pool of N backends is examined N times per
// interval spread out rather than in one synchronized burst. Only Start
// calls this: tests that drive probeAll by hand keep the zero nextAt,
// which means "due now".
func (g *Gateway) staggerProbes() {
	g.mu.RLock()
	defer g.mu.RUnlock()
	now := time.Now()
	for _, b := range g.backends {
		b.mu.Lock()
		b.nextAt = now.Add(rand.N(g.opts.ProbeInterval))
		b.mu.Unlock()
	}
}

// probeJitter spreads the next probe across ±15% of the interval, so
// backends that happened to align (restarts, a suspect() burst zeroing
// several grace timers at once) drift apart again instead of staying in
// phase forever.
func probeJitter(interval time.Duration) time.Duration {
	return time.Duration(float64(interval) * (0.85 + 0.3*rand.Float64()))
}

// probeLoop drives the pool's health until Stop. The ticker runs at a
// fraction of ProbeInterval and each backend carries its own jittered
// next-due time; the loop only probes what is due.
func (g *Gateway) probeLoop() {
	defer g.wg.Done()
	tick := g.opts.ProbeInterval / 8
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-g.stopCh:
			return
		case now := <-ticker.C:
			g.sweepIdle(now)
			if g.probeAll() {
				// Membership changed (a readmit): move sessions onto the
				// returning owner in the background; a failed sweep retries
				// at the next change (or drain request).
				g.wg.Add(1)
				go func() {
					defer g.wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
					defer cancel()
					if _, err := g.Rebalance(ctx); err != nil {
						g.opts.Logger.Printf("gateway: rebalance after readmit: %v", err)
					}
				}()
			}
		}
	}
}

// sweepIdle closes the pooled connections idle past idleConnTimeout.
func (g *Gateway) sweepIdle(now time.Time) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, b := range g.backends {
		b.pool.sweep(now)
	}
}

// probeAll probes every due backend once; reports whether any backend was
// readmitted to the ring. A backend is due when its jittered next-probe
// time has passed (the zero time — a fresh pool, a suspect() report, a
// test-driven gateway — is always due).
func (g *Gateway) probeAll() (ringChanged bool) {
	g.mu.RLock()
	targets := make([]*backend, 0, len(g.backends))
	for _, b := range g.backends {
		targets = append(targets, b)
	}
	g.mu.RUnlock()
	now := time.Now()
	for _, b := range targets {
		b.mu.Lock()
		due := !now.Before(b.nextAt)
		b.mu.Unlock()
		if !due {
			continue
		}
		if g.probeOne(b) {
			ringChanged = true
		}
	}
	return ringChanged
}

// probeOne probes b and applies the eject/readmit state machine; reports
// whether b was readmitted to the ring. The ring mutation happens after
// b.mu is released — handleBackends takes g.mu before b.mu, so holding
// them in the opposite order here would be a lock-order inversion.
func (g *Gateway) probeOne(b *backend) (readmitted bool) {
	err := g.probeHealthz(b)
	eject, readmit := false, false
	b.mu.Lock()
	if err != nil {
		b.failures++
		if b.healthy && b.failures >= g.opts.FailThreshold {
			b.healthy = false
			b.backoff = g.opts.ProbeInterval
			b.nextAt = time.Now().Add(b.backoff)
			eject = true
			g.opts.Logger.Printf("gateway: backend %s ejected after %d failed probes: %v", b.addr, b.failures, err)
		} else if !b.healthy {
			b.backoff *= 2
			if b.backoff > g.opts.ReadmitBackoffMax {
				b.backoff = g.opts.ReadmitBackoffMax
			}
			b.nextAt = time.Now().Add(b.backoff)
		} else {
			// Still under the threshold: keep probing at the normal jittered
			// cadence while the count climbs.
			b.nextAt = time.Now().Add(probeJitter(g.opts.ProbeInterval))
		}
	} else {
		b.failures = 0
		b.nextAt = time.Now().Add(probeJitter(g.opts.ProbeInterval))
		if !b.healthy {
			b.healthy = true
			b.backoff = 0
			// A drained backend returning healthy stays off the ring on
			// purpose.
			readmit = !b.draining
			g.opts.Logger.Printf("gateway: backend %s readmitted", b.addr)
		}
	}
	b.mu.Unlock()
	if err == nil {
		// Probe-observed recovery reopens the request path immediately; the
		// breaker's own half-open trial would get there too, just later.
		b.breaker.reset()
	}
	if eject {
		g.mu.Lock()
		g.ring.Remove(b.addr)
		g.mu.Unlock()
	}
	if readmit {
		g.mu.Lock()
		// A concurrent pool removal can race this readmit; re-adding the
		// ring member then would leave an owner with no backends entry.
		changed := false
		if _, stillPooled := g.backends[b.addr]; stillPooled {
			changed = g.ring.Add(b.addr)
		}
		g.mu.Unlock()
		return changed
	}
	return false
}

// probeHealthz performs one bounded GET /healthz.
func (g *Gateway) probeHealthz(b *backend) error {
	ctx, cancel := context.WithTimeout(context.Background(), g.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := g.probe.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return nil
}

// suspect records a proxy-observed backend failure. It does not eject by
// itself — transient single-request errors happen — but it feeds the
// backend's circuit breaker (enough consecutive failures open it) and
// zeroes the probe grace so the next loop tick re-examines the backend
// immediately.
func (g *Gateway) suspect(b *backend) {
	if b.breaker.onFailure(time.Now()) {
		g.opts.Logger.Printf("gateway: circuit breaker for %s opened", b.addr)
	}
	b.mu.Lock()
	b.nextAt = time.Time{}
	b.mu.Unlock()
}
