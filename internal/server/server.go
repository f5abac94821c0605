// Package server exposes a multi-tenant session Registry over HTTP/JSON —
// the paper's compress-once/ask-many workload as a service, with one
// process hosting many named provenance sessions. The surface is versioned
// and resource-oriented, mounted at /v1:
//
//	POST   /v1/sessions                       create a session (inline
//	                                          provenance, a file path inside
//	                                          the configured session dir —
//	                                          see WithSessionDir — or an
//	                                          exported snapshot via
//	                                          snapshot_b64)
//	GET    /v1/sessions                       list sessions, name-sorted
//	GET    /v1/sessions/{name}                one session's info + stats
//	DELETE /v1/sessions/{name}                close it (ends its streams)
//	POST   /v1/sessions/{name}/compress       run a compression strategy
//	POST   /v1/sessions/{name}/whatif         one scenario in, answers out
//	POST   /v1/sessions/{name}/whatif/stream  NDJSON in, NDJSON out, flushed
//	                                          per line as answers compute
//	POST   /v1/sessions/{name}/query          one ScenQL statement in, the
//	                                          sweep's rows (or the EXPLAIN
//	                                          plan tree) out
//	POST   /v1/sessions/{name}/query/stream   ScenQL in, NDJSON rows out,
//	                                          generated server-side and
//	                                          flushed per scenario
//	POST   /v1/sessions/{name}/add            NDJSON {"tag","poly"} lines in,
//	                                          per-line acks out; under a
//	                                          durable registry an ack means
//	                                          the add is fsynced
//	POST   /v1/sessions/{name}/export         the session as a versioned,
//	                                          checksummed snapshot (round-
//	                                          trips through create's
//	                                          snapshot_b64)
//	GET    /v1/sessions/{name}/stats          per-session statistics
//	GET    /v1/stats                          aggregate across all sessions
//	GET    /healthz                           liveness
//
// Scenario lines are {"assign": {"var": value, …}}, or — on streams — a
// bare ScenQL scenario literal like "x=0.5, y=1". A what-if body may add
// "semiring": "bool"|"count"|"tropical"|"minmax" to evaluate in that
// provenance semiring instead of the float default (deletion propagation,
// derivation counting, min-plus cost, max-min clearance); streams pick the
// carrier once for the whole connection with ?semiring=. Non-finite
// answers, which JSON numbers cannot carry, are encoded as the strings
// "+Inf", "-Inf" and "NaN" (the tropical and minmax identities are ±Inf;
// float overflow reaches them too). One-shot and /query bodies are complete
// before the status line goes out, so they carry a Content-Length; streams
// flush line by line. Per-scenario semantic
// errors (an unknown variable, say) are reported in-band as
// {"index": i, "error": "…"} without tearing down the stream; malformed
// JSON terminates the stream with a final {"error": "…"} line, since the
// remainder of the body cannot be trusted to be line-aligned. Requests
// exceeding the body limits are answered with 413; unknown session names
// with 404; creating a name already in use with 409. With WithMaxStreams a
// saturated server refuses new streams with 503 + Retry-After, so clients
// back off instead of hammering.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/registry"
	"provabs/internal/reqbody"
	"provabs/internal/scenql"
	"provabs/internal/semiring"
	"provabs/internal/session"
)

// defaultMaxLineBytes bounds one scenario or compress request body and one
// NDJSON scenario line (scenarios assign at most a few values per
// provenance variable; a megabyte is far beyond any sane request).
const defaultMaxLineBytes = 1 << 20

// defaultMaxCreateBytes bounds a session-create body, which may carry a
// whole encoded provenance set inline.
const defaultMaxCreateBytes = 64 << 20

// maxStreamDrainBytes bounds how much of an unread stream body the handler
// consumes before returning. A full-duplex handler that returns with the
// body part-read leaves the drain to the server's post-handler Close; an
// EOF first reached there starts a background read that races the next
// request's read on a reused keep-alive connection (net/http's "invalid
// concurrent Body.Read call" panic). Draining in-handler — up to the same
// bound net/http uses for non-duplex handlers — reaches EOF before the
// handler returns, and past the bound the server closes the connection
// instead of reusing it.
const maxStreamDrainBytes = 256 << 10

// Server serves a session registry.
type Server struct {
	reg        *registry.Registry
	logger     *log.Logger
	maxLine    int64
	maxCreate  int64
	sessionDir string // root for create-by-path ("" = path loading disabled)

	// streamSem bounds concurrently open NDJSON streams (nil = unbounded).
	// At the bound new streams answer 503 with Retry-After — backpressure a
	// well-behaved client honors by backing off instead of hammering.
	streamSem chan struct{}

	// draining is closed by Drain: live NDJSON streams stop reading new
	// input, finish what is in flight, and return, letting an
	// http.Server.Shutdown complete within its deadline.
	drainOnce sync.Once
	draining  chan struct{}
}

// Option configures a Server.
type Option func(*Server)

// WithLogger routes request-handling diagnostics (response-write failures,
// stream teardowns) to l instead of the process default logger.
func WithLogger(l *log.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithMaxLineBytes overrides the per-request / per-stream-line body limit.
func WithMaxLineBytes(n int64) Option {
	return func(s *Server) { s.maxLine = n }
}

// WithMaxCreateBytes overrides the session-create body limit.
func WithMaxCreateBytes(n int64) Option {
	return func(s *Server) { s.maxCreate = n }
}

// WithMaxStreams bounds the concurrently open NDJSON streams (what-if,
// query and add streams together). Past the bound a new stream is refused
// with 503 + Retry-After rather than queued without limit — the
// backpressure half of serving many tenants from one process. n <= 0
// leaves streams unbounded.
func WithMaxStreams(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.streamSem = make(chan struct{}, n)
		}
	}
}

// WithSessionDir enables creating sessions from server-side provenance
// files: a create request's "path" is resolved relative to dir and must
// stay inside it (no absolute paths, no traversal). Without this option
// path loading is disabled and only inline provenance_b64 is accepted —
// a network client must never pick arbitrary files off the server's disk.
func WithSessionDir(dir string) Option {
	return func(s *Server) { s.sessionDir = dir }
}

// New returns a Server over the registry.
func New(reg *registry.Registry, opts ...Option) *Server {
	s := &Server{
		reg:       reg,
		logger:    log.Default(),
		maxLine:   defaultMaxLineBytes,
		maxCreate: defaultMaxCreateBytes,
		draining:  make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Registry returns the registry the server routes into.
func (s *Server) Registry() *registry.Registry { return s.reg }

// Drain begins a graceful shutdown of the streaming surface: every live
// NDJSON stream stops reading new input (in-flight micro-batches still
// finish and flush), so a subsequent http.Server.Shutdown is not held
// open by clients that keep their request bodies streaming. Idempotent.
func (s *Server) Drain() {
	s.drainOnce.Do(func() { close(s.draining) })
}

// unblockOnDrain arms a watcher that kicks a blocked request-body read
// when the server drains (or stops watching when the request ends). The
// zero read deadline trick: a deadline in the past fails the in-flight
// Read with os.ErrDeadlineExceeded, which stream handlers treat as a
// clean end of input.
func (s *Server) unblockOnDrain(ctx context.Context, rc *http.ResponseController) {
	go func() {
		select {
		case <-s.draining:
			rc.SetReadDeadline(time.Now()) //nolint:errcheck // best effort; HTTP/2 lacks it
		case <-ctx.Done():
		}
	}()
}

// drainedErr filters the read error a drain kick produces: past the
// deadline the body read fails with os.ErrDeadlineExceeded, which is the
// expected shape of a graceful drain, not a client error.
func (s *Server) drainedErr(err error) error {
	if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		return nil
	}
	select {
	case <-s.draining:
		// Some transports surface the kicked read differently; during a
		// drain any read error is the drain.
		return nil
	default:
		return err
	}
}

// Handler returns the HTTP handler serving the v1 API. Method mismatches on
// any route answer 405 via the mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/sessions/{name}", s.withSession(s.handleSessionInfo))
	mux.HandleFunc("DELETE /v1/sessions/{name}", s.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{name}/compress", s.withSession(s.handleCompress))
	mux.HandleFunc("POST /v1/sessions/{name}/whatif", s.withSession(s.handleWhatIf))
	mux.HandleFunc("POST /v1/sessions/{name}/whatif/stream", s.withSession(s.handleStream))
	mux.HandleFunc("POST /v1/sessions/{name}/query", s.withSession(s.handleQuery))
	mux.HandleFunc("POST /v1/sessions/{name}/query/stream", s.withSession(s.handleQueryStream))
	mux.HandleFunc("POST /v1/sessions/{name}/add", s.withSession(s.handleAddStream))
	mux.HandleFunc("POST /v1/sessions/{name}/export", s.withSession(s.handleExport))
	mux.HandleFunc("GET /v1/sessions/{name}/stats", s.withSession(s.handleStats))
	mux.HandleFunc("GET /v1/stats", s.handleAggregateStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// acquireStream claims a stream slot when a bound is configured. When the
// server is saturated it answers 503 with Retry-After (the satellite
// contract: a backpressure response always tells the client when to come
// back) and returns ok=false with release=nil.
func (s *Server) acquireStream(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.streamSem == nil {
		return func() {}, true
	}
	select {
	case s.streamSem <- struct{}{}:
		return func() { <-s.streamSem }, true
	default:
		w.Header().Set("Retry-After", "1")
		s.writeError(w, r, http.StatusServiceUnavailable,
			fmt.Errorf("server is at its concurrent-stream limit (%d); retry shortly", cap(s.streamSem)))
		return nil, false
	}
}

// sessionHandler is a handler bound to one resolved session.
type sessionHandler func(w http.ResponseWriter, r *http.Request, sess *registry.Session)

// withSession resolves the {name} path segment against the registry.
func (s *Server) withSession(h sessionHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess, err := s.reg.Get(r.PathValue("name"))
		if err != nil {
			s.writeError(w, r, http.StatusNotFound, err)
			return
		}
		h(w, r, sess)
	}
}

// writeJSON encodes one response body through encoding/json — the
// documents that carry no answers (session info, stats, EXPLAIN plans).
// The body is encoded before the status line goes out, so an encode
// failure still gets a proper 500.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	s.writeBody(w, r, status, append(body, '\n'))
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	rb := getRespBuf()
	defer rb.release()
	rb.b = appendError(rb.b, err.Error())
	s.writeBody(w, r, status, rb.b)
}

// decodeJSON decodes one bounded JSON request body. An over-limit body is
// answered 413 (the satellite contract: *http.MaxBytesError, not a decode
// 400), anything else malformed 400. Returns false once the error response
// has been written.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any, what string) bool {
	return s.decoded(w, r, json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v), what)
}

// decoded answers a request body's decode error, if any, as decodeJSON
// does, and reports whether there was none.
func (s *Server) decoded(w http.ResponseWriter, r *http.Request, err error, what string) bool {
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.writeError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%s: request body exceeds the %d-byte limit", what, tooBig.Limit))
		return false
	}
	s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad %s: %w", what, err))
	return false
}

// createRequest is the POST /v1/sessions body. Exactly one provenance
// source must be set: Path (a server-side .pvab file) or ProvenanceB64
// (an Encode()d set, base64). Trees are optional compact abstraction
// trees; the remaining fields tune the engine.
type createRequest struct {
	Name          string   `json:"name"`
	Path          string   `json:"path,omitempty"`
	ProvenanceB64 string   `json:"provenance_b64,omitempty"`
	Trees         []string `json:"trees,omitempty"`
	Workers       int      `json:"workers,omitempty"`
	DeltaCutoff   float64  `json:"delta_cutoff,omitempty"`
	StreamBuffer  int      `json:"stream_buffer,omitempty"`
	StreamBatch   int      `json:"stream_batch,omitempty"`

	// SnapshotB64 imports a session from an exported snapshot (the body a
	// POST .../export returns, base64). Mutually exclusive with every
	// other provenance source: the snapshot carries the set, the trees,
	// and any compression state of the exporting session.
	SnapshotB64 string `json:"snapshot_b64,omitempty"`

	// provB64 and snapB64 hold the two base64 sources whichever way the
	// body was decoded: views into the body when decodeCreate lifted them
	// out, copies of the fields above when encoding/json decoded them.
	provB64, snapB64 []byte
}

// decodeCreate decodes a create body that reading ended with rerr (nil on
// a complete read). The base64 members are lifted out of the body, so
// encoding/json decodes only the small remainder; a body the lift does not
// take is decoded whole. Either way the request, or the error, is what a
// json.Decoder reading the body would give: after a read error the bytes
// read are decoded with that error behind them.
func decodeCreate(body []byte, rerr error) (*createRequest, error) {
	var rd io.Reader = bytes.NewReader(body)
	var vals [][]byte // the lifted members; nil when the body is decoded whole
	if rerr != nil {
		rd = io.MultiReader(rd, errReader{rerr})
	} else if rest, v, ok := reqbody.Lift(body, "provenance_b64", "snapshot_b64"); ok {
		rd, vals = bytes.NewReader(rest), v
	}
	req := new(createRequest)
	if err := json.NewDecoder(rd).Decode(req); err != nil {
		return nil, err
	}
	if vals != nil {
		req.provB64, req.snapB64 = vals[0], vals[1]
	} else {
		req.provB64, req.snapB64 = []byte(req.ProvenanceB64), []byte(req.SnapshotB64)
	}
	return req, nil
}

// unbase64 decodes standard base64 straight from the body's bytes, with
// base64.StdEncoding.DecodeString's errors.
func unbase64(src []byte) ([]byte, error) {
	dst := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
	n, err := base64.StdEncoding.Decode(dst, src)
	return dst[:n], err
}

// errReader returns err from every Read.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// loadSet materializes the request's provenance source.
func (s *Server) loadSet(req *createRequest) (*provenance.Set, error) {
	switch {
	case req.Path != "" && len(req.provB64) > 0:
		return nil, fmt.Errorf("create: path and provenance_b64 are mutually exclusive")
	case req.Path != "":
		if s.sessionDir == "" {
			return nil, fmt.Errorf("create: server-side path loading is disabled (start the server with a session dir, or send provenance_b64)")
		}
		if !filepath.IsLocal(req.Path) {
			return nil, fmt.Errorf("create: path must be relative and stay inside the session dir")
		}
		f, err := os.Open(filepath.Join(s.sessionDir, req.Path))
		if err != nil {
			return nil, fmt.Errorf("create: %w", err)
		}
		defer f.Close()
		return provenance.Decode(f)
	case len(req.provB64) > 0:
		raw, err := unbase64(req.provB64)
		if err != nil {
			return nil, fmt.Errorf("create: bad provenance_b64: %w", err)
		}
		return provenance.DecodeBytes(raw)
	}
	return nil, fmt.Errorf("create: provide path or provenance_b64")
}

// loadForest parses the optional compact abstraction trees.
func (req *createRequest) loadForest() (*abstree.Forest, error) {
	if len(req.Trees) == 0 {
		return nil, nil
	}
	trees := make([]*abstree.Tree, 0, len(req.Trees))
	for _, src := range req.Trees {
		t, err := abstree.ParseTree(src)
		if err != nil {
			return nil, fmt.Errorf("create: %w", err)
		}
		trees = append(trees, t)
	}
	return abstree.NewForest(trees...)
}

// sessionInfo is the wire shape of one session resource.
type sessionInfo struct {
	Name    string        `json:"name"`
	Created time.Time     `json:"created"`
	Stats   session.Stats `json:"stats"`
}

func infoOf(sess *registry.Session) sessionInfo {
	return sessionInfo{Name: sess.Name(), Created: sess.Created(), Stats: sess.Engine().Stats()}
}

// handleCreate reads the body once, with reqbody.Read, and decodes it with
// decodeCreate.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	req, err := decodeCreate(reqbody.Read(w, r, s.maxCreate))
	if !s.decoded(w, r, err, "create request") {
		return
	}
	if len(req.snapB64) > 0 {
		s.handleCreateFromSnapshot(w, r, req)
		return
	}
	set, err := s.loadSet(req)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	forest, err := req.loadForest()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	sess, err := s.reg.Create(req.Name, set, forest,
		session.WithWorkers(req.Workers),
		session.WithDeltaCutoff(req.DeltaCutoff),
		session.WithStreamBuffer(req.StreamBuffer),
		session.WithStreamBatch(req.StreamBatch))
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, registry.ErrExists) {
			status = http.StatusConflict
		}
		s.writeError(w, r, status, err)
		return
	}
	s.writeJSON(w, r, http.StatusCreated, infoOf(sess))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sessions := s.reg.List()
	infos := make([]sessionInfo, len(sessions))
	for i, sess := range sessions {
		infos[i] = infoOf(sess)
	}
	s.writeJSON(w, r, http.StatusOK, map[string]any{"sessions": infos})
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request, sess *registry.Session) {
	s.writeJSON(w, r, http.StatusOK, infoOf(sess))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Close(name); err != nil {
		s.writeError(w, r, http.StatusNotFound, err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, map[string]string{"closed": name})
}

func (s *Server) handleAggregateStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, s.reg.Stats())
}

// scenarioRequest is one hypothetical scenario on the wire. Semiring picks
// the evaluation carrier ("" and "float" are the numeric default; "bool",
// "count", "tropical", "minmax" select that carrier's kernel — see
// semiring.ParseKind for the accepted aliases).
type scenarioRequest struct {
	Assign   map[string]float64 `json:"assign"`
	Semiring string             `json:"semiring,omitempty"`
}

func (req *scenarioRequest) scenario() *hypo.Scenario {
	sc := hypo.NewScenario()
	for name, x := range req.Assign {
		sc.Set(name, x)
	}
	return sc
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request, sess *registry.Session) {
	var req scenarioRequest
	if !s.decodeJSON(w, r, s.maxLine, &req, "scenario") {
		return
	}
	kind, err := semiring.ParseKind(req.Semiring)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	row, err := sess.Engine().WhatIfRow(kind, req.scenario())
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	rb := getRespBuf()
	defer rb.release()
	rb.b = appendWhatIf(rb.b, row)
	s.writeBody(w, r, http.StatusOK, rb.b)
}

// handleStream is the streaming batch endpoint: scenarios are read off the
// request body line by line and fed to Engine.StreamIn; each answer line is
// flushed as soon as it is computed, so a long-lived client sees results
// while it is still sending scenarios. A ?semiring= query parameter picks
// the evaluation carrier for the whole stream (default float). The stream
// ends early when the client goes away (a failed write or flush) or the
// session is closed (DELETE /v1/sessions/{name} while streaming).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, sess *registry.Session) {
	releaseStream, ok := s.acquireStream(w, r)
	if !ok {
		return
	}
	defer releaseStream()
	kind, err := semiring.ParseKind(r.URL.Query().Get("semiring"))
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	// The evaluation context dies with the request OR the session: closing
	// the session mid-stream cancels ctx, which tears down Engine.StreamIn's
	// goroutine and ends the response.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-sess.Done():
			cancel()
		case <-ctx.Done():
		}
	}()

	in := make(chan *hypo.Scenario)
	results := sess.Engine().StreamIn(ctx, kind, in)

	rc := http.NewResponseController(w)
	// A graceful drain must be able to end this stream even while the
	// reader goroutine below is blocked mid-Scan on a quiet client.
	s.unblockOnDrain(ctx, rc)

	// Feed the engine from the body. The read error is mutex-guarded: on
	// context cancellation the results channel can close while the reader
	// goroutine is still finishing.
	var readMu sync.Mutex
	var readErr error
	setReadErr := func(err error) {
		readMu.Lock()
		readErr = err
		readMu.Unlock()
	}
	go func() {
		defer close(in)
		drain := true
		defer func() {
			// See maxStreamDrainBytes: reach the body's EOF while the
			// handler is still running. Skipped when the request is being
			// torn down (ctx cancelled) — the connection is not reused then,
			// and a drain could block on a live client.
			if drain {
				io.Copy(io.Discard, io.LimitReader(r.Body, maxStreamDrainBytes)) //nolint:errcheck
			}
		}()
		scan := bufio.NewScanner(r.Body)
		// Scanner enforces max(cap(buf), limit), so the initial buffer must
		// not exceed the configured line limit.
		bufCap := 64 * 1024
		if int(s.maxLine) < bufCap {
			bufCap = int(s.maxLine)
		}
		scan.Buffer(make([]byte, 0, bufCap), int(s.maxLine))
		for scan.Scan() {
			line := bytes.TrimSpace(scan.Bytes())
			if len(line) == 0 {
				continue
			}
			var sc *hypo.Scenario
			if line[0] == '{' {
				var req scenarioRequest
				if err := json.Unmarshal(line, &req); err != nil {
					setReadErr(fmt.Errorf("bad scenario line: %v", err))
					return
				}
				sc = req.scenario()
			} else {
				// A bare line is a ScenQL scenario literal ("x=0.5, y=1"),
				// the same syntax the CLI's -set/-sets flags accept.
				var err error
				if sc, err = scenql.ParseAssignments(string(line)); err != nil {
					setReadErr(fmt.Errorf("bad scenario line: %v", err))
					return
				}
			}
			select {
			case in <- sc:
			case <-ctx.Done():
				drain = false
				return
			}
		}
		// A drain kick surfaces as a deadline error: treat it as a clean end
		// of input — scenarios already submitted still answer below.
		if err := s.drainedErr(scan.Err()); err != nil {
			if errors.Is(err, bufio.ErrTooLong) {
				err = fmt.Errorf("scenario line exceeds the %d-byte limit: %w", s.maxLine, err)
			}
			setReadErr(err)
		}
	}()

	// Headers are deferred until the first result so a body that fails
	// before producing anything (an oversized first line, say) can still
	// get a proper error status instead of a 200 with a trailing error.
	// An HTTP/1 server drains the unread request body before its first
	// response write; without full duplex an interactive client that keeps
	// its request open would deadlock the first flush. (HTTP/2 is duplex
	// already and reports ErrNotSupported — safe to ignore.)
	if err := rc.EnableFullDuplex(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		s.logger.Printf("server: %s %s: full duplex: %v", r.Method, r.URL.Path, err)
	}
	rb := getRespBuf()
	defer rb.release()
	wrote := false
	for res := range results {
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			wrote = true
		}
		rb.b = appendStreamLine(rb.b[:0], res)
		if _, err := w.Write(rb.b); err != nil {
			s.logger.Printf("server: %s %s: stream write: %v", r.Method, r.URL.Path, err)
			return // client went away; cancel() stops the evaluation loop
		}
		// A failed flush is the earliest reliable dead-client signal for
		// NDJSON; stop evaluating instead of churning through the batch.
		if err := rc.Flush(); err != nil {
			s.logger.Printf("server: %s %s: stream flush: %v", r.Method, r.URL.Path, err)
			return
		}
	}
	readMu.Lock()
	err = readErr
	readMu.Unlock()
	if err == nil {
		return
	}
	if !wrote {
		// Nothing streamed yet: a real status line is still possible.
		status := http.StatusBadRequest
		if errors.Is(err, bufio.ErrTooLong) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, r, status, err)
		return
	}
	rb.b = appendError(rb.b[:0], err.Error())
	if _, werr := w.Write(rb.b); werr != nil {
		s.logger.Printf("server: %s %s: stream terminal error write: %v", r.Method, r.URL.Path, werr)
	}
}

// compressRequest tunes a server-side compression run.
type compressRequest struct {
	Bound     int     `json:"bound"`
	Strategy  string  `json:"strategy,omitempty"`
	Fraction  float64 `json:"fraction,omitempty"`   // online
	Seed      int64   `json:"seed,omitempty"`       // online
	TimeoutMS int64   `json:"timeout_ms,omitempty"` // summarize
}

func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request, sess *registry.Session) {
	var req compressRequest
	if !s.decodeJSON(w, r, s.maxLine, &req, "compress request") {
		return
	}
	strategy, err := session.ParseStrategy(req.Strategy)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	opts := []session.CompressOption{session.WithStrategy(strategy)}
	if req.Fraction > 0 {
		opts = append(opts, session.WithSamplingFraction(req.Fraction))
	}
	if req.Seed != 0 {
		opts = append(opts, session.WithSeed(req.Seed))
	}
	if req.TimeoutMS > 0 {
		opts = append(opts, session.WithTimeout(time.Duration(req.TimeoutMS)*time.Millisecond))
	}
	comp, err := sess.Engine().Compress(req.Bound, opts...)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	resp := map[string]any{
		"session":       sess.Name(),
		"strategy":      comp.Strategy,
		"monomial_loss": comp.ML,
		"variable_loss": comp.VL,
		"adequate":      comp.Adequate,
		"monomials":     comp.Abstracted.Size(),
		"variables":     comp.Abstracted.VarCount(), // counted as the set was built; Stats reads the same marks
		"elapsed_ms":    comp.Elapsed.Milliseconds(),
	}
	if comp.VVS != nil {
		resp["vvs"] = comp.VVS.Labels()
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, sess *registry.Session) {
	s.writeJSON(w, r, http.StatusOK, sess.Engine().Stats())
}
