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
	"math"
	"net/http"
	"sort"
	"strconv"

	"provabs/internal/registry"
	"provabs/internal/scenql"
	"provabs/internal/session"
)

// queryRequest is the POST body of both query endpoints.
type queryRequest struct {
	Query string `json:"query"`
}

// queryRowJSON is one scenario's outcome on the wire: the generated
// assignments and the answers, or an in-band per-scenario error.
type queryRowJSON struct {
	Index   int64           `json:"index"`
	Assign  json.RawMessage `json:"assign,omitempty"`
	Answers []answerJSON    `json:"answers,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// queryResponse is the non-streaming query result document.
type queryResponse struct {
	Semiring  string         `json:"semiring"`
	Scenarios int64          `json:"scenarios"`
	Rows      []queryRowJSON `json:"rows"`
	Errors    int64          `json:"errors,omitempty"`
	Truncated bool           `json:"truncated,omitempty"`
}

// queryStreamHeader is the first NDJSON line of a streaming query.
type queryStreamHeader struct {
	Semiring  string `json:"semiring"`
	Scenarios int64  `json:"scenarios"`
}

func toQueryRowJSON(row session.QueryRow) queryRowJSON {
	line := queryRowJSON{Index: row.Index, Assign: encodeAssign(row.Assign)}
	if row.Err != nil {
		line.Error = row.Err.Error()
	} else {
		line.Answers = toAnswerJSON(row.Answers)
	}
	return line
}

// encodeAssign marshals a scenario's assignments by hand, emitting the
// same bytes as encoding/json's map encoder (sorted keys, shortest float
// form). On a 100k-row sweep the row's assign object is the hottest part
// of the response, and the reflective map path — per-row key sort through
// reflect, type-cache lookups — is a measurable slice of it.
func encodeAssign(assign map[string]float64) json.RawMessage {
	if len(assign) == 0 {
		return nil
	}
	names := make([]string, 0, len(assign))
	for name := range assign {
		names = append(names, name)
	}
	sort.Strings(names)
	buf := make([]byte, 0, 24*len(names))
	buf = append(buf, '{')
	for i, name := range names {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONKey(buf, name)
		buf = append(buf, ':')
		buf = appendJSONFloat(buf, assign[name])
	}
	return append(buf, '}')
}

// appendJSONKey appends name as a JSON string, taking the fast path for
// plain printable ASCII and deferring anything that needs escaping to
// encoding/json.
func appendJSONKey(buf []byte, name string) []byte {
	for i := 0; i < len(name); i++ {
		if c := name[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(name)
			return append(buf, quoted...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, name...)
	return append(buf, '"')
}

// appendJSONFloat mirrors encoding/json's float encoding: shortest form,
// %f for mid-range exponents, %e otherwise with the exponent's leading
// zero stripped. Non-finite values cannot come out of a parsed statement;
// emit null rather than corrupt the NDJSON framing if one ever does.
func appendJSONFloat(buf []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(buf, "null"...)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
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
	res, err := sess.Engine().QueryContext(r.Context(), req.Query)
	if err != nil {
		s.writeError(w, r, queryStatus(err), err)
		return
	}
	if res.Explain != nil {
		s.writeJSON(w, r, http.StatusOK, res.Explain)
		return
	}
	resp := queryResponse{
		Semiring:  res.Semiring.String(),
		Scenarios: res.Scenarios,
		Rows:      make([]queryRowJSON, len(res.Rows)),
		Errors:    res.Errors,
		Truncated: res.Truncated,
	}
	for i, row := range res.Rows {
		resp.Rows[i] = toQueryRowJSON(row)
	}
	s.writeJSON(w, r, http.StatusOK, resp)
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
	enc := json.NewEncoder(w)
	rc := http.NewResponseController(w)
	if info.Explain != nil {
		if err := enc.Encode(info.Explain); err != nil {
			s.logger.Printf("server: %s %s: explain write: %v", r.Method, r.URL.Path, err)
		}
		return
	}
	if err := enc.Encode(queryStreamHeader{Semiring: info.Semiring.String(), Scenarios: info.Scenarios}); err != nil {
		s.logger.Printf("server: %s %s: header write: %v", r.Method, r.URL.Path, err)
		return
	}
	if err := rc.Flush(); err != nil {
		s.logger.Printf("server: %s %s: header flush: %v", r.Method, r.URL.Path, err)
		return
	}
	for row := range rows {
		if err := enc.Encode(toQueryRowJSON(row)); err != nil {
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
		if encErr := enc.Encode(map[string]string{"error": err.Error()}); encErr != nil {
			s.logger.Printf("server: %s %s: stream terminal error write: %v", r.Method, r.URL.Path, encErr)
		}
	}
}
