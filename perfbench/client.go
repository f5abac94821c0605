package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"provabs/internal/session"
)

// client talks to the gateway over its own connection pool. Each load
// generator gets its own client so its connection count is explicit.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer // nil: untraced
}

func newClient(base string, conns int, tr *tracer) *client {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: t}, tr: tr}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// bufPool holds response buffers, so reading a response the generator
// does not keep allocates nothing in the process under measurement.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// do sends one request and reads the whole response body, returning the
// status, the body's size and, when keep is set or the status is not 200,
// the body itself. A traced client tags the request with a fresh span ID
// and records the client span around the round trip, body read included.
func (c *client) do(ctx context.Context, op, method, path string, body []byte, keep bool) (int, int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var id uint64
	var start time.Duration
	if c.tr != nil {
		id = c.tr.newID()
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10)+" "+op)
		start = c.tr.now()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	if c.tr != nil {
		c.tr.record(span{ID: id, Op: op, Name: "client", Start: start, End: c.tr.now()})
	}
	var raw []byte
	if keep || resp.StatusCode != http.StatusOK {
		raw = bytes.Clone(buf.Bytes())
	}
	return resp.StatusCode, buf.Len(), raw, err
}

// call is do for admin requests: anything but want is an error.
func (c *client) call(ctx context.Context, method, path string, body any, want int, out any) error {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return err
		}
	}
	status, _, resp, err := c.do(ctx, "admin", method, path, raw, true)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(resp))
	}
	if out != nil {
		if err := json.Unmarshal(resp, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return nil
}

type compressReply struct {
	VariableLoss int      `json:"variable_loss"`
	Monomials    int      `json:"monomials"`
	VVS          []string `json:"vvs"`
}

func (c *client) create(ctx context.Context, name, provB64 string, trees []string) error {
	return c.call(ctx, http.MethodPost, "/v1/sessions",
		map[string]any{"name": name, "provenance_b64": provB64, "trees": trees}, http.StatusCreated, nil)
}

func (c *client) compress(ctx context.Context, name string, bound int) (*compressReply, error) {
	var out compressReply
	err := c.call(ctx, http.MethodPost, "/v1/sessions/"+name+"/compress",
		map[string]any{"bound": bound, "strategy": "greedy"}, http.StatusOK, &out)
	return &out, err
}

// export fetches the session's snapshot: its source and compressed sets,
// compiled kernel included.
func (c *client) export(ctx context.Context, name string) ([]byte, error) {
	status, _, raw, err := c.do(ctx, "admin", http.MethodPost, "/v1/sessions/"+name+"/export", nil, true)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("export %s: status %d: %s", name, status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

func (c *client) remove(ctx context.Context, name string) error {
	return c.call(ctx, http.MethodDelete, "/v1/sessions/"+name, nil, http.StatusOK, nil)
}

func (c *client) stats(ctx context.Context, name string) (session.Stats, error) {
	var out session.Stats
	err := c.call(ctx, http.MethodGet, "/v1/sessions/"+name+"/stats", nil, http.StatusOK, &out)
	return out, err
}

type gatewayCounters struct {
	retries, trips int64
}

func (c *client) gatewayCounters(ctx context.Context) (gatewayCounters, error) {
	var out struct {
		Backends []struct {
			Trips int64 `json:"breaker_trips"`
		} `json:"backends"`
		Resilience struct {
			Retries int64 `json:"retries"`
		} `json:"resilience"`
	}
	if err := c.call(ctx, http.MethodGet, "/gateway/backends", nil, http.StatusOK, &out); err != nil {
		return gatewayCounters{}, err
	}
	gc := gatewayCounters{retries: out.Resilience.Retries}
	for _, b := range out.Backends {
		gc.trips += b.Trips
	}
	return gc, nil
}

// whatif sends one one-shot what-if and returns the response size and,
// when keep is set, the response body.
func (c *client) whatif(ctx context.Context, name string, body []byte, keep bool) (int, []byte, error) {
	status, size, raw, err := c.do(ctx, "whatif", http.MethodPost, "/v1/sessions/"+name+"/whatif", body, keep)
	if err != nil {
		return 0, nil, err
	}
	if status != http.StatusOK {
		return 0, nil, fmt.Errorf("whatif %s: status %d: %s", name, status, bytes.TrimSpace(raw))
	}
	return size, raw, nil
}

// wireAnswer is one answer as the server encodes it.
type wireAnswer struct {
	Tag   string  `json:"tag"`
	Value float64 `json:"value"`
}

func decodeWhatIf(raw []byte) ([]wireAnswer, error) {
	var out struct {
		Answers []wireAnswer `json:"answers"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("decode whatif: %w", err)
	}
	return out.Answers, nil
}

// queryRow is one row of a query/stream response.
type queryRow struct {
	Index   int64              `json:"index"`
	Assign  map[string]float64 `json:"assign"`
	Answers []wireAnswer       `json:"answers"`
	Error   string             `json:"error"`
}

// query runs one ScenQL statement through /query/stream and returns the
// header's scenario count and the rows.
func (c *client) query(ctx context.Context, name, stmt string) (int64, []queryRow, error) {
	body, err := json.Marshal(map[string]string{"query": stmt})
	if err != nil {
		return 0, nil, err
	}
	status, _, raw, err := c.do(ctx, "query", http.MethodPost, "/v1/sessions/"+name+"/query/stream", body, true)
	if err != nil {
		return 0, nil, err
	}
	if status != http.StatusOK {
		return 0, nil, fmt.Errorf("query %s: status %d: %s", name, status, bytes.TrimSpace(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	var head struct {
		Scenarios int64  `json:"scenarios"`
		Error     string `json:"error"`
	}
	if err := dec.Decode(&head); err != nil {
		return 0, nil, fmt.Errorf("query %s: header: %w", name, err)
	}
	if head.Error != "" {
		return 0, nil, fmt.Errorf("query %s: %s", name, head.Error)
	}
	var rows []queryRow
	for dec.More() {
		var row queryRow
		if err := dec.Decode(&row); err != nil {
			return 0, nil, fmt.Errorf("query %s: row: %w", name, err)
		}
		if row.Error != "" {
			return 0, nil, fmt.Errorf("query %s: in-band error at row %d: %s", name, row.Index, row.Error)
		}
		rows = append(rows, row)
	}
	return head.Scenarios, rows, nil
}

// addStream is one full-duplex /add stream: lines go out through a pipe
// as the feed writes them, acks come back on the response as the backend
// applies them.
type addStream struct {
	pw    *io.PipeWriter
	reply chan addReply
	id    uint64
	start time.Duration
	tr    *tracer
}

type addReply struct {
	resp *http.Response
	err  error
}

func (c *client) openAdd(ctx context.Context, name string) *addStream {
	pr, pw := io.Pipe()
	as := &addStream{pw: pw, reply: make(chan addReply, 1), tr: c.tr}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sessions/"+name+"/add", pr)
	if err != nil {
		as.reply <- addReply{err: err}
		return as
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if c.tr != nil {
		as.id = c.tr.newID()
		req.Header.Set(spanHeader, strconv.FormatUint(as.id, 10)+" add")
		as.start = c.tr.now()
	}
	// The response headers arrive with the first ack, so the round trip
	// runs beside the feed, which starts writing at once.
	go func() {
		resp, err := c.hc.Do(req)
		if err != nil {
			pr.CloseWithError(err)
		}
		as.reply <- addReply{resp, err}
	}()
	return as
}

// write sends one NDJSON add line.
func (as *addStream) write(line []byte) error {
	_, err := as.pw.Write(line)
	return err
}

// closeSend ends the request body: the backend acks what it has and
// finishes the response.
func (as *addStream) closeSend() error { return as.pw.Close() }

// acks reads the acks in order, calling onAck with each line's index and
// in-band error as it arrives. It returns once the response ends, with an
// error for a refused stream or a terminal error line.
func (as *addStream) acks(onAck func(index int, inBand string)) error {
	rep := <-as.reply
	if rep.err != nil {
		return rep.err
	}
	defer rep.resp.Body.Close()
	if rep.resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(rep.resp.Body)
		return fmt.Errorf("add stream: status %d: %s", rep.resp.StatusCode, bytes.TrimSpace(raw))
	}
	sc := bufio.NewScanner(rep.resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ack struct {
			Index *int   `json:"index"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ack); err != nil {
			return fmt.Errorf("add stream: bad ack %q: %w", sc.Bytes(), err)
		}
		if ack.Index == nil {
			return fmt.Errorf("add stream: terminal error: %s", ack.Error)
		}
		onAck(*ack.Index, ack.Error)
	}
	if as.tr != nil {
		as.tr.record(span{ID: as.id, Op: "add", Name: "client", Start: as.start, End: as.tr.now()})
	}
	return sc.Err()
}
