package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/durable"
	"provabs/internal/registry"
	"provabs/internal/server"
	"provabs/internal/session"
)

// loadSpec is one -load flag: a named session and its provenance file.
type loadSpec struct {
	name, path string
}

// loadFlags collects repeated -load name=path flags in order.
type loadFlags []loadSpec

func (l *loadFlags) String() string {
	parts := make([]string, len(*l))
	for i, s := range *l {
		parts[i] = s.name + "=" + s.path
	}
	return strings.Join(parts, ",")
}

func (l *loadFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*l = append(*l, loadSpec{name: name, path: path})
	return nil
}

// cmdServe runs the multi-session what-if server: load one provenance file
// per -load flag into a named session (optionally compressing each at
// startup), then serve the versioned v1 API — session lifecycle, what-ifs,
// NDJSON streams, per-session and aggregate stats.
//
// With -durable the -session-dir doubles as a durable store root: every
// session persists (initial snapshot + write-ahead-logged adds), a restart
// finds the previous process's sessions dormant and recovers each lazily
// on first touch, and SIGINT/SIGTERM shuts down gracefully — stop
// accepting, drain live NDJSON streams within -drain-timeout, checkpoint
// every session (final snapshot + fsync), exit 0.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var loads loadFlags
	fs.Var(&loads, "load", "load a session at startup: name=path (repeatable)")
	in := fs.String("in", "", "provenance file for a single-session server (shorthand for -load default=PATH)")
	addr := fs.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	treeSrc := fs.String("tree", "", "abstraction tree(s) in compact format, ';'-separated (applied to every loaded session)")
	shapeSrc := fs.String("shape", "", "build a uniform tree instead: comma-separated fan-outs, e.g. 2,64")
	prefix := fs.String("prefix", "s", "leaf prefix for -shape trees (s, p, pl)")
	algo := fs.String("algo", "auto", "startup compression strategy: auto, opt, greedy, brute, ainy or online")
	bound := fs.Int("bound", 0, "compress each session at startup to this monomial bound (overrides -ratio)")
	ratio := fs.Float64("ratio", 0, "compress at startup to this fraction of |P|_M (0 = serve uncompressed)")
	fraction := fs.Float64("fraction", 0.3, "online: sample fraction")
	timeout := fs.Duration("timeout", time.Minute, "ainy: cutoff")
	workers := fs.Int("workers", 0, "worker pool size per session (0 = GOMAXPROCS)")
	deltaCutoff := fs.Float64("delta-cutoff", 0,
		"delta-vs-full density cutoff (0 = adaptive, learned from observed timings; >0 = static fraction; negative = always evaluate in full)")
	streamBuffer := fs.Int("stream-buffer", 0,
		"output buffer of whatif/stream so slow clients don't stall evaluation (0 = batch size)")
	streamBatch := fs.Int("stream-batch", 0,
		"max scenarios drained into one micro-batched stream evaluation (0 = default 64)")
	sessionDir := fs.String("session-dir", ".",
		"root for POST /v1/sessions {\"path\":...} provenance files (empty = disable path loading); with -durable, also the durable store root")
	durableFlag := fs.Bool("durable", false,
		"persist sessions under -session-dir: snapshot + WAL per session, lazy recovery on restart")
	walSyncWindow := fs.Duration("wal-sync-window", 0,
		"group-commit window for durable adds (0 = fsync every add; a small window batches concurrent adds into one fsync)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second,
		"graceful-shutdown deadline: how long SIGINT/SIGTERM waits for live streams to finish before closing connections")
	maxStreams := fs.Int("max-streams", 0,
		"max concurrently open NDJSON streams; past it new streams get 503 + Retry-After (0 = unbounded)")
	fs.Parse(args)

	if *in != "" {
		loads = append(loadFlags{{name: "default", path: *in}}, loads...)
	}
	if *durableFlag && *sessionDir == "" {
		return fmt.Errorf("serve: -durable needs a -session-dir to persist into")
	}
	if len(loads) == 0 && !*durableFlag {
		return fmt.Errorf("serve: provide at least one session via -load name=path (or -in path)")
	}
	if (*bound > 0 || *ratio > 0) && *treeSrc == "" && *shapeSrc == "" {
		return fmt.Errorf("serve: -bound/-ratio require -tree or -shape")
	}
	var forest *abstree.Forest
	var err error
	if *treeSrc != "" || *shapeSrc != "" {
		forest, err = buildForest(*treeSrc, *shapeSrc, *prefix)
		if err != nil {
			return err
		}
	}

	engineOpts := []session.Option{
		session.WithWorkers(*workers),
		session.WithDeltaCutoff(*deltaCutoff),
		session.WithStreamBuffer(*streamBuffer),
		session.WithStreamBatch(*streamBatch),
	}
	reg := registry.New()
	if *durableFlag {
		err := reg.EnableDurability(*sessionDir, durable.Options{
			GroupWindow: *walSyncWindow,
			Logf:        log.Printf,
		}, engineOpts...)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		if dormant := reg.DormantNames(); len(dormant) > 0 {
			fmt.Printf("found %d durable session(s) in %s: %s (recovered lazily on first touch)\n",
				len(dormant), *sessionDir, strings.Join(dormant, ", "))
		}
	}
	for _, load := range loads {
		set, err := readSet(load.path)
		if err != nil {
			return fmt.Errorf("serve: session %q: %w", load.name, err)
		}
		sess, err := reg.Create(load.name, set, forest, engineOpts...)
		if errors.Is(err, registry.ErrExists) && *durableFlag {
			// A warm restart already holds this session's durable state; the
			// on-disk copy — which includes any adds since the original load —
			// wins over re-loading the file.
			fmt.Printf("session %q already durable in %s; skipping -load\n", load.name, *sessionDir)
			continue
		}
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		if forest != nil && (*bound > 0 || *ratio > 0) {
			strategy, err := session.ParseStrategy(*algo)
			if err != nil {
				return err
			}
			comp, err := sess.Engine().Compress(resolveBound(*bound, *ratio, set.Size()),
				session.WithStrategy(strategy),
				session.WithSamplingFraction(*fraction),
				session.WithTimeout(*timeout))
			if err != nil {
				return fmt.Errorf("serve: session %q: %w", load.name, err)
			}
			fmt.Printf("session %q compressed with %s: %d -> %d monomials (%s) in %v\n",
				load.name, comp.Strategy, set.Size(), comp.Abstracted.Size(),
				adequacy(comp.Adequate), comp.Elapsed)
		}
		st := sess.Engine().Stats()
		fmt.Printf("session %q: %d polynomials / %d monomials from %s\n",
			load.name, st.Polynomials, st.Monomials, load.path)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving %d session(s) on http://%s\n", reg.Len(), ln.Addr())
	fmt.Println("endpoints: POST/GET /v1/sessions, GET|DELETE /v1/sessions/{name}, " +
		"POST /v1/sessions/{name}/whatif[/stream], POST /v1/sessions/{name}/add, " +
		"POST /v1/sessions/{name}/export, POST /v1/sessions/{name}/compress, " +
		"GET /v1/sessions/{name}/stats, GET /v1/stats")

	srv := server.New(reg, server.WithSessionDir(*sessionDir), server.WithMaxStreams(*maxStreams))
	httpSrv := &http.Server{
		Handler: srv.Handler(),
		// Slowloris protection: a client must finish its request header
		// promptly, and idle keep-alive connections are reclaimed. No
		// blanket ReadTimeout/WriteTimeout — NDJSON streams are long-lived
		// by design.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// SIGINT/SIGTERM starts the graceful exit: stop accepting, kick live
	// NDJSON streams off their body reads (in-flight micro-batches still
	// answer), and give connections -drain-timeout to finish before they
	// are closed. The durable checkpoint below waits for the drain, so a
	// clean shutdown snapshots exactly what was acknowledged.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		fmt.Println("shutting down: draining live streams")
		srv.Drain()
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			log.Printf("serve: drain deadline exceeded, closing connections: %v", err)
			httpSrv.Close()
		}
	}()

	err = httpSrv.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-drained
	if reg.Durable() {
		if err := reg.Shutdown(); err != nil {
			return fmt.Errorf("serve: final checkpoint: %w", err)
		}
		fmt.Println("sessions checkpointed; bye")
	}
	return nil
}
