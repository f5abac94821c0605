package server

// Durability-facing endpoints: the add-ingestion stream (write-ahead
// logged when the registry is durable), session export as a self-contained
// snapshot, and create-from-export import.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"provabs/internal/durable"
	"provabs/internal/registry"
	"provabs/internal/reqbody"
	"provabs/internal/session"
)

// handleExport streams the session's state as a snapshot — the same
// versioned, checksummed binary the durable store keeps on disk. The body
// round-trips through create's snapshot_b64 to clone the session (its
// compression state included) here or on another server.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request, sess *registry.Session) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", sess.Name()+".pvsn"))
	if err := sess.Export(w); err != nil {
		// The status line may be gone; the truncated body fails the
		// importer's checksum, so a partial export cannot be mistaken for a
		// whole one.
		s.logger.Printf("server: %s %s: export: %v", r.Method, r.URL.Path, err)
	}
}

// handleCreateFromSnapshot is the import half of export: decode, validate
// (checksums, kernel consistency), restore without recompiling, register.
func (s *Server) handleCreateFromSnapshot(w http.ResponseWriter, r *http.Request, req *createRequest) {
	if req.Path != "" || len(req.provB64) > 0 || len(req.Trees) > 0 {
		s.writeError(w, r, http.StatusBadRequest,
			fmt.Errorf("create: snapshot_b64 is a complete session; path, provenance_b64 and trees must be empty"))
		return
	}
	raw, err := unbase64(req.snapB64)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("create: bad snapshot_b64: %w", err))
		return
	}
	st, _, err := durable.DecodeSnapshot(bytes.NewReader(raw))
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("create: %w", err))
		return
	}
	eng, err := session.Restore(st,
		session.WithWorkers(req.Workers),
		session.WithDeltaCutoff(req.DeltaCutoff),
		session.WithStreamBuffer(req.StreamBuffer),
		session.WithStreamBatch(req.StreamBatch))
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("create: %w", err))
		return
	}
	sess, err := s.reg.Adopt(req.Name, eng)
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

// addLine is one NDJSON line of the add-ingestion stream: a tag and a
// polynomial in text form ("2·x·y + 3·z"; * works as the product too).
type addLine struct {
	Tag  string `json:"tag"`
	Poly string `json:"poly"`
}

// ackLine is the per-add acknowledgement. Under a durable registry an ack
// without error means the add is fsynced — it survives any crash from
// here on. An in-band error (a malformed polynomial) skips that line and
// the stream continues; a persistence failure ends the stream, since
// later acks could not promise durability anymore.
type ackLine struct {
	Index int    `json:"index"`
	Error string `json:"error,omitempty"`
}

// handleAddStream ingests polynomials over NDJSON, full duplex: each line
// is applied (and, when durable, logged + fsynced) before its ack is
// flushed, so a client pipelining adds gets exact knowledge of what is
// durable when the connection dies. The stream ends early on session
// close or server drain — the ack sequence tells the client where it
// stopped.
func (s *Server) handleAddStream(w http.ResponseWriter, r *http.Request, sess *registry.Session) {
	releaseStream, ok := s.acquireStream(w, r)
	if !ok {
		return
	}
	defer releaseStream()
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-sess.Done():
			cancel()
		case <-ctx.Done():
		}
	}()

	enc := json.NewEncoder(w)
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		s.logger.Printf("server: %s %s: full duplex: %v", r.Method, r.URL.Path, err)
	}
	s.unblockOnDrain(ctx, rc)
	defer func() {
		// See maxStreamDrainBytes: reach the body's EOF in-handler so a
		// reused keep-alive connection never races a background drain.
		// Skipped when the request is being torn down (ctx cancelled) — the
		// connection is not reused then.
		if ctx.Err() == nil {
			io.Copy(io.Discard, io.LimitReader(r.Body, maxStreamDrainBytes)) //nolint:errcheck
		}
	}()

	scan := bufio.NewScanner(r.Body)
	bufCap := 64 * 1024
	if int(s.maxLine) < bufCap {
		bufCap = int(s.maxLine)
	}
	scan.Buffer(make([]byte, 0, bufCap), int(s.maxLine))

	wrote := false
	var ackBuf []byte
	writeAck := func(ack ackLine) bool {
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			wrote = true
		}
		var err error
		if ack.Error == "" {
			// The common ack, as enc.Encode writes it.
			ackBuf = strconv.AppendInt(append(ackBuf[:0], `{"index":`...), int64(ack.Index), 10)
			ackBuf = append(ackBuf, "}\n"...)
			_, err = w.Write(ackBuf)
		} else {
			err = enc.Encode(ack)
		}
		if err != nil {
			s.logger.Printf("server: %s %s: ack write: %v", r.Method, r.URL.Path, err)
			return false
		}
		if err := rc.Flush(); err != nil {
			s.logger.Printf("server: %s %s: ack flush: %v", r.Method, r.URL.Path, err)
			return false
		}
		return true
	}

	index := -1
	var terminal error
	var lifted [2][]byte
	for scan.Scan() {
		if sess.Closed() {
			break
		}
		line := bytes.TrimSpace(scan.Bytes())
		if len(line) == 0 {
			continue
		}
		index++
		// The common line holds only a plain tag and polynomial, lifted
		// without encoding/json.
		var req addLine
		if reqbody.LiftAll(line, lifted[:], "tag", "poly") {
			req.Tag, req.Poly = string(lifted[0]), string(lifted[1])
		} else if err := json.Unmarshal(line, &req); err != nil {
			// Malformed JSON: the rest of the body cannot be trusted to be
			// line-aligned.
			terminal = fmt.Errorf("bad add line: %v", err)
			break
		}
		if req.Poly == "" {
			if !writeAck(ackLine{Index: index, Error: "add line needs a poly"}) {
				return
			}
			continue
		}
		// A bad polynomial is this line's problem only, but a failure
		// applying a parsed one is a persistence failure — acking later
		// adds would promise a durability the log can no longer provide.
		if err := sess.AddText(req.Tag, req.Poly); err != nil {
			var bad *registry.ParseError
			if !errors.As(err, &bad) {
				terminal = err
				break
			}
			if !writeAck(ackLine{Index: index, Error: err.Error()}) {
				return
			}
			continue
		}
		if !writeAck(ackLine{Index: index}) {
			return
		}
	}
	if terminal == nil {
		terminal = s.drainedErr(scan.Err())
		if terminal != nil && errors.Is(terminal, bufio.ErrTooLong) {
			terminal = fmt.Errorf("add line exceeds the %d-byte limit: %w", s.maxLine, terminal)
		}
	}
	if terminal == nil {
		return
	}
	if !wrote {
		status := http.StatusBadRequest
		if errors.Is(terminal, bufio.ErrTooLong) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, r, status, terminal)
		return
	}
	if err := enc.Encode(map[string]string{"error": terminal.Error()}); err != nil {
		s.logger.Printf("server: %s %s: terminal error write: %v", r.Method, r.URL.Path, err)
	}
}
