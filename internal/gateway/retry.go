package gateway

// Retry policy for gateway→backend round trips. Three rules keep retries
// from making an outage worse:
//
//   - Only idempotent verbs retry. Reads (session info, list, stats),
//     read-only POSTs (whatif, query, export) and the control-plane's
//     list/export are safe to repeat, and ride the pooled connections of
//     connpool.go; create, add, compress and the client-facing delete are
//     not — a lost response leaves their effect in doubt, and repeating
//     them double-applies. Those get exactly one attempt on g.client and
//     surface the error.
//
//   - Retries are budgeted per backend. A token bucket refilled at
//     RetryBudgetPerSec caps how much extra load retry storms may add; an
//     empty budget turns retries off rather than amplifying a brown-out.
//
//   - Backoff is decorrelated jitter (min(cap, rand(base, 3·prev))), so
//     synchronized clients spread out instead of re-converging on the
//     struggling backend in waves.
//
// Every attempt is bounded by AttemptTimeout (streams are exempt — they
// are long-lived by design and never retried), so one black-holed TCP
// connection cannot stall a router worker indefinitely. The breaker is
// consulted before every attempt: an open breaker fails fast with the
// remaining cooldown as Retry-After.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"time"

	"provabs/internal/reqbody"
)

// RetryPolicy tunes gateway→backend retries. The zero value is usable;
// fillDefaults supplies the documented defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries for an idempotent call,
	// the first included (default 3; 1 disables retries).
	MaxAttempts int
	// AttemptTimeout bounds each one-shot attempt end to end, body read
	// included (default 30s). Streams are not subject to it.
	AttemptTimeout time.Duration
	// BackoffBase is the first retry's minimum sleep (default 50ms).
	BackoffBase time.Duration
	// BackoffMax caps the decorrelated-jitter backoff (default 2s).
	BackoffMax time.Duration
	// RetryBudgetPerSec refills each backend's retry budget (default 10
	// retries/sec, burst 20). An exhausted budget fails over to the
	// single-attempt path instead of amplifying load.
	RetryBudgetPerSec float64
	// RetryBudgetBurst is the budget bucket's capacity (default 20).
	RetryBudgetBurst float64
}

func (p *RetryPolicy) fillDefaults() {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.AttemptTimeout <= 0 {
		p.AttemptTimeout = 30 * time.Second
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 50 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 2 * time.Second
	}
	if p.RetryBudgetPerSec <= 0 {
		p.RetryBudgetPerSec = 10
	}
	if p.RetryBudgetBurst <= 0 {
		p.RetryBudgetBurst = 20
	}
}

// errBreakerOpen is a fail-fast rejection carrying the remaining cooldown
// for Retry-After derivation.
type errBreakerOpen struct {
	addr       string
	retryAfter time.Duration
}

func (e *errBreakerOpen) Error() string {
	return fmt.Sprintf("backend %s circuit breaker is open; retry shortly", e.addr)
}

// bufferedResponse is a fully read backend response — the shape retries
// require, since a retry must never fire after response bytes reached the
// client. Its body lives in a buffer from respBufs, which release returns.
type bufferedResponse struct {
	status int
	header http.Header
	body   []byte
	buf    *[]byte
}

// write replays the buffered response onto a client ResponseWriter and
// then releases its buffer.
func (br *bufferedResponse) write(w http.ResponseWriter) {
	copyHeaders(w.Header(), br.header)
	w.WriteHeader(br.status)
	w.Write(br.body) //nolint:errcheck // client went away; nothing to do
	br.release()
}

// release returns the response's buffer to respBufs, the grown one when
// it is no larger than maxPooledBuf. Nothing may read body afterwards.
func (br *bufferedResponse) release() {
	if br.buf == nil {
		return
	}
	if c := cap(br.body); c > 0 && c <= maxPooledBuf {
		*br.buf = br.body[:0]
	}
	respBufs.Put(br.buf)
	br.buf, br.body = nil, nil
}

// roundTrip performs one buffered gateway→backend call of uri, a
// request-URI, under the retry policy. header holds only end-to-end
// fields and body may be nil. Idempotent calls ride b's pooled
// connections and retry transport failures with backoff while the
// per-backend budget lasts; everything else gets one attempt on g.client.
// The breaker gates every attempt. The caller releases the response.
func (g *Gateway) roundTrip(ctx context.Context, b *backend, method, uri string, header http.Header, body []byte, idempotent bool) (bufferedResponse, error) {
	pol := g.opts.Retry
	backoff := pol.BackoffBase
	var lastErr error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if ok, wait := b.breaker.allow(time.Now()); !ok {
			// Fail fast; if an earlier attempt tripped the breaker mid-loop,
			// surface that attempt's error rather than the breaker's.
			if lastErr != nil {
				return bufferedResponse{}, lastErr
			}
			return bufferedResponse{}, &errBreakerOpen{addr: b.addr, retryAfter: wait}
		}
		var resp bufferedResponse
		var err error
		if idempotent {
			resp, err = g.attemptPooled(ctx, b, method, uri, header, body)
		} else {
			resp, err = g.attemptOnce(ctx, b, method, uri, header, body)
		}
		if err == nil {
			b.breaker.onSuccess()
			return resp, nil
		}
		lastErr = fmt.Errorf("backend %s: %w", b.addr, err)
		g.suspect(b)
		if !idempotent || ctx.Err() != nil {
			break
		}
		if attempt+1 >= pol.MaxAttempts {
			break
		}
		if allowed, _ := b.retryBudget.allow(1, time.Now()); !allowed {
			g.opts.Logger.Printf("gateway: retry budget for %s exhausted; failing %s %s without retry", b.addr, method, uri)
			break
		}
		g.retries.Add(1)
		backoff = decorrelatedJitter(pol.BackoffBase, backoff, pol.BackoffMax)
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return bufferedResponse{}, lastErr
		}
	}
	return bufferedResponse{}, lastErr
}

// attemptOnce is one bounded call on g.client, the request and the full
// body read.
func (g *Gateway) attemptOnce(ctx context.Context, b *backend, method, uri string, header http.Header, body []byte) (bufferedResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, g.opts.Retry.AttemptTimeout)
	defer cancel()
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base+uri, reader)
	if err != nil {
		return bufferedResponse{}, err
	}
	if header != nil {
		req.Header = header
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return bufferedResponse{}, err
	}
	defer resp.Body.Close()
	// The body read happens inside the attempt window: a backend that
	// answers headers then stalls is as failed as one that never dials.
	br := bufferedResponse{status: resp.StatusCode, header: resp.Header, buf: respBufs.Get().(*[]byte)}
	if br.body, err = readResponse(resp, method, g.opts.MaxCreateBytes, (*br.buf)[:0]); err != nil {
		br.release()
		return bufferedResponse{}, err
	}
	return br, nil
}

// readResponse appends a backend response body of at most limit bytes to
// dst with reqbody.ReadAll, which grows its buffer with the bytes that
// arrive, up to the declared length. A declared length over the limit is
// refused before anything is allocated.
func readResponse(resp *http.Response, method string, limit int64, dst []byte) ([]byte, error) {
	n := resp.ContentLength
	if method == http.MethodHead {
		n = -1 // a HEAD response declares a length it does not send
	}
	if n > limit {
		return nil, fmt.Errorf("response of %d bytes exceeds the %d-byte proxy buffer", n, limit)
	}
	payload, err := reqbody.ReadAll(dst, io.LimitReader(resp.Body, limit+1), n)
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	if int64(len(payload)) > limit {
		return nil, fmt.Errorf("response exceeds the %d-byte proxy buffer", limit)
	}
	return payload, nil
}

// decorrelatedJitter computes the next sleep: uniform in [base, 3·prev],
// capped. Successive values decorrelate concurrent retriers instead of
// marching them in lockstep.
func decorrelatedJitter(base, prev, max time.Duration) time.Duration {
	hi := 3 * prev
	if hi <= base {
		hi = base + 1
	}
	d := base + time.Duration(rand.Int64N(int64(hi-base)))
	if d > max {
		d = max
	}
	return d
}
