package server

// ScenQL over the wire: one statement in, the sweep's rows out — the
// scenarios are generated server-side next to the kernel instead of being
// shipped as NDJSON lines. POST /v1/sessions/{name}/query answers with one
// JSON document (EXPLAIN answers with the annotated plan tree);
// /query/stream answers NDJSON — a header line, then one line per scenario
// flushed as it is computed, so a million-point sweep is O(1) server
// memory and the client sees results immediately.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"provabs/internal/registry"
	"provabs/internal/scenql"
	"provabs/internal/session"
)

// queryRequest is the POST body of both query endpoints.
type queryRequest struct {
	Query string `json:"query"`
}

// queryStatus maps a statement failure to its HTTP status: parse and
// resolution errors are the client's (400), a Compress that overtook the
// statement is a conflict the client may retry (409), anything else is
// not the client's.
func queryStatus(err error) int {
	switch err.(type) {
	case *scenql.ParseError, *scenql.CompileError:
		return http.StatusBadRequest
	}
	if errors.Is(err, session.ErrActiveSetReplaced) {
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, sess *registry.Session) {
	var req queryRequest
	if !s.decodeJSON(w, r, s.maxLine, &req, "query request") {
		return
	}
	res, err := sess.Engine().QueryRows(r.Context(), req.Query)
	if err != nil {
		s.writeError(w, r, queryStatus(err), err)
		return
	}
	if res.Explain != nil {
		s.writeJSON(w, r, http.StatusOK, res.Explain)
		return
	}
	rb := getRespBuf()
	defer rb.release()
	rb.b = appendQueryResult(rb.b, res)
	s.writeBody(w, r, http.StatusOK, rb.b)
}

// handleQueryStream runs one statement with NDJSON delivery: a header line
// ({"semiring","scenarios"}), then one row line per scenario as it is
// computed. An EXPLAIN statement answers with a single line carrying the
// annotated plan. The stream ends early when the client goes away or the
// session is closed; a statement that fails after the header (a Compress
// replacing the active set mid-statement) ends with a terminal
// {"error":...} line.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request, sess *registry.Session) {
	releaseStream, ok := s.acquireStream(w, r)
	if !ok {
		return
	}
	defer releaseStream()
	var req queryRequest
	if !s.decodeJSON(w, r, s.maxLine, &req, "query request") {
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-sess.Done():
			cancel()
		case <-ctx.Done():
		}
	}()
	info, rows, err := sess.Engine().QueryStream(ctx, req.Query)
	if err != nil {
		s.writeError(w, r, queryStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	if info.Explain != nil {
		if err := json.NewEncoder(w).Encode(info.Explain); err != nil {
			s.logger.Printf("server: %s %s: explain write: %v", r.Method, r.URL.Path, err)
		}
		return
	}
	rb := getRespBuf()
	defer rb.release()
	rb.b = AppendQueryHeader(rb.b, info)
	if _, err := w.Write(rb.b); err != nil {
		s.logger.Printf("server: %s %s: header write: %v", r.Method, r.URL.Path, err)
		return
	}
	if err := rc.Flush(); err != nil {
		s.logger.Printf("server: %s %s: header flush: %v", r.Method, r.URL.Path, err)
		return
	}
	for row := range rows {
		rb.b = AppendQueryLine(rb.b[:0], row)
		if _, err := w.Write(rb.b); err != nil {
			s.logger.Printf("server: %s %s: stream write: %v", r.Method, r.URL.Path, err)
			return // client went away; cancel() ends the sweep
		}
		// Unlike the what-if stream — where a client is waiting on each
		// answer and every row must flush — the sweep is server-generated,
		// so rows only need to reach the wire when the generator pauses.
		// Flushing at quiescence batches thousands of rows per TCP write
		// on a fast sweep while still keeping a slow one interactive.
		if len(rows) > 0 {
			continue
		}
		if err := rc.Flush(); err != nil {
			s.logger.Printf("server: %s %s: stream flush: %v", r.Method, r.URL.Path, err)
			return
		}
	}
	if err := info.Err(); err != nil && ctx.Err() == nil {
		rb.b = appendError(rb.b[:0], err.Error())
		if _, werr := w.Write(rb.b); werr != nil {
			s.logger.Printf("server: %s %s: stream terminal error write: %v", r.Method, r.URL.Path, werr)
		}
	}
}
