package gateway

// The pooled buffered path. Every idempotent buffered call (one-shot
// whatif and query, stats, export, session GET, migration's list and
// export, the stats and list fan-outs) runs on a per-backend pool of
// keep-alive HTTP/1.1 connections that the calling goroutine drives
// itself: it writes the request with (*http.Request).Write, reads the
// response with http.ReadResponse and its body with reqbody.ReadAll into
// a pooled buffer, all under one connection deadline. net/http's Transport
// would hand the request to a connection's write goroutine and take the
// response from its read goroutine, and on a one-shot those hand-offs are
// most of the hop.
//
// What the Transport's background reader gives, and this pool lacks, is
// noticing a backend that closed an idle connection before a request is
// written on it. Here a reused connection that fails before the first
// response byte is redialled once within the same attempt deadline. That
// is safe only because every call on this path may be sent twice, which
// is why writes stay on the Transport. Streams stay there too: this path
// buffers both ways.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"time"
)

const (
	// maxIdlePerBackend and idleConnTimeout are the values the gateway's
	// Transport uses: at most 128 idle connections per backend, none
	// reused after 90 s idle.
	maxIdlePerBackend = 128
	idleConnTimeout   = 90 * time.Second
	// maxPooledBuf is the largest response buffer kept for reuse; a
	// larger body's buffer is left to the collector.
	maxPooledBuf = 64 << 10
)

// aLongTimeAgo is a deadline in the past: setting it fails a
// connection's pending and future I/O at once.
var aLongTimeAgo = time.Unix(1, 0)

// respBufs holds response buffers of at most maxPooledBuf bytes.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// poolConn is one backend connection, driven by one goroutine at a time.
type poolConn struct {
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	idleAt time.Time
	reused bool   // taken from the pool rather than freshly dialled
	expire func() // sets aLongTimeAgo as the deadline; built once per connection
}

// connPool is one backend's idle connections, oldest first.
type connPool struct {
	addr   string
	mu     sync.Mutex
	idle   []*poolConn
	closed bool
}

// get returns the most recently used idle connection, or dials one when
// none is idle or the newest idle one has been idle too long (then every
// older one has too, and all of them are closed).
func (p *connPool) get(ctx context.Context, now, deadline time.Time) (*poolConn, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		pc := p.idle[n-1]
		p.idle = p.idle[:n-1]
		if now.Sub(pc.idleAt) <= idleConnTimeout {
			p.mu.Unlock()
			pc.reused = true
			return pc, nil
		}
		stale := append(p.idle, pc)
		p.idle = nil
		p.mu.Unlock()
		closeAll(stale)
	} else {
		p.mu.Unlock()
	}
	return p.dial(ctx, deadline)
}

func (p *connPool) dial(ctx context.Context, deadline time.Time) (*poolConn, error) {
	d := net.Dialer{Deadline: deadline}
	c, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, err
	}
	return &poolConn{
		conn:   c,
		br:     bufio.NewReader(c),
		bw:     bufio.NewWriter(c),
		expire: func() { c.SetDeadline(aLongTimeAgo) }, //nolint:errcheck // only fails on a closed conn
	}, nil
}

// put returns a connection whose last response was read to its end. A
// closed pool, or one already holding maxIdlePerBackend, closes it
// instead.
func (p *connPool) put(pc *poolConn, now time.Time) {
	pc.idleAt = now
	p.mu.Lock()
	if p.closed || len(p.idle) >= maxIdlePerBackend {
		p.mu.Unlock()
		pc.conn.Close()
		return
	}
	p.idle = append(p.idle, pc)
	p.mu.Unlock()
}

// sweep closes the connections idle past idleConnTimeout, which no call
// would reuse, so that a backend no call has reached since does not keep
// them open.
func (p *connPool) sweep(now time.Time) {
	p.mu.Lock()
	n := 0
	for n < len(p.idle) && now.Sub(p.idle[n].idleAt) > idleConnTimeout {
		n++
	}
	expired := append([]*poolConn(nil), p.idle[:n]...)
	p.idle = append(p.idle[:0], p.idle[n:]...)
	p.mu.Unlock()
	closeAll(expired)
}

// close closes every idle connection; a connection put back later is
// closed then.
func (p *connPool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	closeAll(idle)
}

func closeAll(pcs []*poolConn) {
	for _, pc := range pcs {
		pc.conn.Close()
	}
}

// attemptPooled is one attempt of an idempotent call on b's pooled
// connections. The request is written and its response read whole by the
// calling goroutine, bounded by AttemptTimeout through the connection's
// deadline, and abandoned as soon as ctx is done.
func (g *Gateway) attemptPooled(ctx context.Context, b *backend, method, uri string, header http.Header, body []byte) (bufferedResponse, error) {
	now := time.Now()
	deadline := now.Add(g.opts.Retry.AttemptTimeout)
	req := &http.Request{
		Method:        method,
		URL:           &url.URL{Opaque: uri},
		Host:          b.addr,
		Header:        header,
		ContentLength: int64(len(body)),
	}
	if len(body) > 0 {
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	pc, err := b.pool.get(ctx, now, deadline)
	if err != nil {
		return bufferedResponse{}, err
	}
	br := bufferedResponse{buf: respBufs.Get().(*[]byte)}
	keep, answered, err := g.exchange(ctx, pc, req, deadline, &br)
	if err != nil && pc.reused && !answered && ctx.Err() == nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		// The backend closed the connection while it sat idle. A fresh
		// connection is the same attempt: no retry, no breaker failure.
		pc.conn.Close()
		g.staleRedials.Add(1)
		if pc, err = b.pool.dial(ctx, deadline); err == nil {
			if req.Body != nil {
				req.Body = io.NopCloser(bytes.NewReader(body))
			}
			keep, _, err = g.exchange(ctx, pc, req, deadline, &br)
		}
	}
	if keep {
		b.pool.put(pc, time.Now())
	} else if pc != nil {
		pc.conn.Close()
	}
	if err != nil {
		br.release()
		return bufferedResponse{}, err
	}
	return br, nil
}

// exchange sends req on pc and reads its final response whole into br,
// by deadline and abandoned as soon as ctx is done. answered reports
// whether any byte of a response arrived; keep whether pc may carry
// another call: its response was read to the end, it did not ask to
// close, and ctx was not done while it ran.
func (g *Gateway) exchange(ctx context.Context, pc *poolConn, req *http.Request, deadline time.Time, br *bufferedResponse) (keep, answered bool, err error) {
	if err := pc.conn.SetDeadline(deadline); err != nil {
		return false, false, err
	}
	stop := context.AfterFunc(ctx, pc.expire)
	keep, answered, err = g.send(pc, req, br)
	if !stop() {
		keep = false // the cancellation spent the connection's deadline
	}
	return keep, answered, err
}

func (g *Gateway) send(pc *poolConn, req *http.Request, br *bufferedResponse) (keep, answered bool, err error) {
	if err = req.Write(pc.bw); err == nil {
		err = pc.bw.Flush()
	}
	if err == nil {
		_, err = pc.br.Peek(1)
	}
	if err != nil {
		return false, false, err
	}
	resp, err := http.ReadResponse(pc.br, req)
	for err == nil && resp.StatusCode < http.StatusOK {
		resp, err = http.ReadResponse(pc.br, req) // an interim 1xx precedes the final response
	}
	if err != nil {
		return false, true, err
	}
	body, err := readResponse(resp, req.Method, g.opts.MaxCreateBytes, (*br.buf)[:0])
	if err != nil {
		return false, true, err
	}
	br.status, br.header, br.body = resp.StatusCode, resp.Header, body
	return !resp.Close, true, nil
}
