package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"provabs/internal/durable"
	"provabs/internal/gateway"
	"provabs/internal/registry"
	"provabs/internal/server"
)

// The shipped flush policy of a durable serve backend, which the traced
// run's durable twin uses: fsync on every add and WAL rotation at 4,096
// records.
const (
	flushGroupWindow   = 0
	flushRotateRecords = 4096
)

// backend is one in-process serve backend on a loopback listener.
type backend struct {
	reg  *registry.Registry
	srv  *http.Server
	addr string
}

// stack is the serving system under test: two backends and a gateway,
// each behind its own loopback listener, all inside this process.
type stack struct {
	gw       *gateway.Gateway
	gwSrv    *http.Server
	url      string
	backends []*backend
	once     sync.Once
}

// serve runs h on a fresh 127.0.0.1:0 listener.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed after Shutdown/Close
	return srv, ln.Addr().String(), nil
}

// startStack starts the backends and the gateway. tr, when non-nil, wraps
// the gateway and backend handlers in span recorders.
func startStack(tr *tracer) (*stack, error) {
	st := &stack{}
	addrs := make([]string, 2)
	for i := range addrs {
		reg := registry.New()
		var h http.Handler = server.New(reg, server.WithLogger(log.New(io.Discard, "", 0))).Handler()
		if tr != nil {
			h = tr.wrap("server", "gateway", h)
		}
		srv, addr, err := serve(h)
		if err != nil {
			st.close()
			return nil, err
		}
		st.backends = append(st.backends, &backend{reg: reg, srv: srv, addr: addr})
		addrs[i] = addr
	}
	gw, err := gateway.New(addrs, gateway.Options{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		st.close()
		return nil, err
	}
	st.gw = gw
	gw.Start()
	var h http.Handler = gw.Handler()
	if tr != nil {
		h = tr.wrap("gateway", "client", h)
	}
	srv, addr, err := serve(h)
	if err != nil {
		st.close()
		return nil, err
	}
	st.gwSrv = srv
	st.url = "http://" + addr
	return st, nil
}

// close stops the gateway and the backends and closes their sessions. It
// is safe to call more than once and from another goroutine than the one
// running the workload.
func (st *stack) close() {
	st.once.Do(func() {
		stopServer := func(srv *http.Server) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				srv.Close() //nolint:errcheck // forced close after a timed-out shutdown
			}
		}
		if st.gwSrv != nil {
			stopServer(st.gwSrv)
		}
		if st.gw != nil {
			st.gw.Stop()
		}
		for _, b := range st.backends {
			stopServer(b.srv)
			b.reg.CloseAll()
		}
	})
}

// holder returns the backend whose registry holds the named session.
func (st *stack) holder(name string) (*registry.Session, error) {
	for _, b := range st.backends {
		if sess, err := b.reg.Get(name); err == nil {
			return sess, nil
		}
	}
	return nil, fmt.Errorf("no backend holds session %q", name)
}

// countingFS is the real filesystem with the durable layer's fsyncs,
// WAL bytes and snapshot writes counted and timed.
type countingFS struct {
	durable.OSFS
	fsyncs     atomic.Int64
	fsyncNs    atomic.Int64
	walBytes   atomic.Int64
	snapshots  atomic.Int64
	snapshotNs atomic.Int64
	snapOpenAt sync.Map // path → time.Time the snapshot file was opened
}

type fsCounts struct {
	fsyncs, fsyncNs, walBytes, snapshots, snapshotNs int64
}

func (c *countingFS) counts() fsCounts {
	return fsCounts{
		fsyncs:     c.fsyncs.Load(),
		fsyncNs:    c.fsyncNs.Load(),
		walBytes:   c.walBytes.Load(),
		snapshots:  c.snapshots.Load(),
		snapshotNs: c.snapshotNs.Load(),
	}
}

func (a fsCounts) minus(b fsCounts) fsCounts {
	return fsCounts{a.fsyncs - b.fsyncs, a.fsyncNs - b.fsyncNs, a.walBytes - b.walBytes,
		a.snapshots - b.snapshots, a.snapshotNs - b.snapshotNs}
}

// isWAL reports whether path names a session's write-ahead log; the
// durable layer's other writes are snapshots, written under a temporary
// name and renamed into place.
func isWAL(path string) bool { return filepath.Base(path) == "wal.log" }

func (c *countingFS) OpenFile(path string, flag int, perm os.FileMode) (durable.File, error) {
	f, err := c.OSFS.OpenFile(path, flag, perm)
	if err != nil || flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return f, err
	}
	if !isWAL(path) {
		c.snapOpenAt.Store(path, time.Now())
	}
	return &countingFile{File: f, fs: c, wal: isWAL(path)}, nil
}

// Rename counts a snapshot put in place, timed from the open of the file
// it renames.
func (c *countingFS) Rename(oldPath, newPath string) error {
	err := c.OSFS.Rename(oldPath, newPath)
	if err == nil {
		if t, ok := c.snapOpenAt.LoadAndDelete(oldPath); ok {
			c.snapshots.Add(1)
			c.snapshotNs.Add(int64(time.Since(t.(time.Time))))
		}
	}
	return err
}

type countingFile struct {
	durable.File
	fs  *countingFS
	wal bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.wal {
		f.fs.walBytes.Add(int64(n))
	}
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	if f.wal {
		f.fs.fsyncs.Add(1)
		f.fs.fsyncNs.Add(int64(time.Since(start)))
	}
	return err
}
