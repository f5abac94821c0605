package server

// Answers on the wire. /whatif, /whatif/stream, /query and /query/stream
// append their JSON straight from each row's answer vector, in whatever
// carrier it was evaluated: one type switch per row, no answer boxed, no
// reflection. The bytes are exactly those encoding/json produces for the
// same answers boxed as {"tag","value"} objects (TestWireGolden and
// FuzzAnswerEncoding pin them): HTML-safe string escaping, its float
// format switch, and ±Inf as the strings "+Inf"/"-Inf". A NaN answer,
// which encoding/json rejects, is the string "NaN".
//
// A scenario changes few answers, so a row that carries its kernel's
// baseline (hypo.Row.Base) is spliced: each maximal run of answers whose
// bits equal the baseline's is copied from the baseline's encoding, built
// once per baseline, and a changed answer copies its encoded tag and
// formats only its value. Equal bits under the same tag encode to the
// same bytes, so splicing never changes the output (FuzzAnswerSplice).

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"provabs/internal/hypo"
	"provabs/internal/session"
)

// maxPooledBytes caps the response buffers kept for reuse, so one huge
// /query document does not pin its buffer in the pool.
const maxPooledBytes = 1 << 20

// respBuf is a pooled response buffer: a body is appended into b, written,
// and the buffer released for the next response.
type respBuf struct{ b []byte }

var respBufs = sync.Pool{New: func() any { return new(respBuf) }}

func getRespBuf() *respBuf {
	rb := respBufs.Get().(*respBuf)
	rb.b = rb.b[:0]
	return rb
}

func (rb *respBuf) release() {
	if cap(rb.b) <= maxPooledBytes {
		respBufs.Put(rb)
	}
}

// writeBody sends a complete JSON body. The status line goes out only once
// the body is in hand, with its Content-Length, so no hop needs chunked
// framing.
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.logger.Printf("server: %s %s: writing response: %v", r.Method, r.URL.Path, err)
	}
}

// appendWhatIf appends a one-shot's response body.
func appendWhatIf(buf []byte, row hypo.Row) []byte {
	buf = append(buf, `{"answers":`...)
	buf = appendAnswers(buf, row)
	return append(buf, "}\n"...)
}

// appendStreamLine appends one /whatif/stream result line.
func appendStreamLine(buf []byte, res session.ValueStreamResult) []byte {
	buf = append(buf, `{"index":`...)
	buf = strconv.AppendInt(buf, int64(res.Index), 10)
	buf = appendOutcome(buf, res.Row, res.Err)
	return append(buf, "}\n"...)
}

// AppendQueryHeader appends the header line of a streaming query, as
// /query/stream sends it.
func AppendQueryHeader(buf []byte, info *session.QueryInfo) []byte {
	buf = append(buf, `{"semiring":`...)
	buf = appendJSONString(buf, info.Semiring.String())
	buf = append(buf, `,"scenarios":`...)
	buf = strconv.AppendInt(buf, info.Scenarios, 10)
	return append(buf, "}\n"...)
}

// AppendQueryLine appends one row line of a streaming query, as
// /query/stream sends it.
func AppendQueryLine(buf []byte, row session.QueryRow) []byte {
	return append(appendQueryRow(buf, row), '\n')
}

// appendQueryResult appends a /query response body.
func appendQueryResult(buf []byte, res *session.QueryResult) []byte {
	buf = append(buf, `{"semiring":`...)
	buf = appendJSONString(buf, res.Semiring.String())
	buf = append(buf, `,"scenarios":`...)
	buf = strconv.AppendInt(buf, res.Scenarios, 10)
	buf = append(buf, `,"rows":[`...)
	for i, row := range res.Rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendQueryRow(buf, row)
	}
	buf = append(buf, ']')
	if res.Errors != 0 {
		buf = append(buf, `,"errors":`...)
		buf = strconv.AppendInt(buf, res.Errors, 10)
	}
	if res.Truncated {
		buf = append(buf, `,"truncated":true`...)
	}
	return append(buf, "}\n"...)
}

// appendQueryRow appends one scenario's outcome object: its generation
// index, the assignments (omitted when empty) and the outcome.
func appendQueryRow(buf []byte, row session.QueryRow) []byte {
	buf = append(buf, `{"index":`...)
	buf = strconv.AppendInt(buf, row.Index, 10)
	if len(row.Assign) > 0 {
		buf = append(buf, `,"assign":`...)
		buf = appendAssign(buf, row.Assign)
	}
	buf = appendOutcome(buf, row.Row, row.Err)
	return append(buf, '}')
}

// appendOutcome appends a row's "answers" member, or the in-band "error"
// member that replaced it; either is omitted when empty.
func appendOutcome(buf []byte, row hypo.Row, err error) []byte {
	if err != nil {
		if msg := err.Error(); msg != "" {
			buf = append(buf, `,"error":`...)
			buf = appendJSONString(buf, msg)
		}
		return buf
	}
	if row.Len() > 0 {
		buf = append(buf, `,"answers":`...)
		buf = appendAnswers(buf, row)
	}
	return buf
}

// appendError appends an {"error": msg} line: an error response body, or
// a stream's terminal line.
func appendError(buf []byte, msg string) []byte {
	buf = append(buf, `{"error":`...)
	buf = appendJSONString(buf, msg)
	return append(buf, "}\n"...)
}

// appendAnswers appends a row's answers as an array of {"tag","value"}
// objects, the value in its carrier's JSON form.
func appendAnswers(buf []byte, row hypo.Row) []byte {
	buf = append(buf, '[')
	var j int // the first answer the baseline does not cover
	switch vals := row.Values.(type) {
	case []float64:
		buf, j = spliceAnswers(buf, row, vals, sameFloats, appendJSONFloat)
		for ; j < len(vals); j++ {
			buf = appendJSONFloat(appendAnswerTag(buf, row, j), vals[j])
			buf = append(buf, '}')
		}
	case []int64:
		buf, j = spliceAnswers(buf, row, vals, sameValues[int64], appendJSONInt)
		for ; j < len(vals); j++ {
			buf = appendJSONInt(appendAnswerTag(buf, row, j), vals[j])
			buf = append(buf, '}')
		}
	case []bool:
		buf, j = spliceAnswers(buf, row, vals, sameValues[bool], strconv.AppendBool)
		for ; j < len(vals); j++ {
			buf = strconv.AppendBool(appendAnswerTag(buf, row, j), vals[j])
			buf = append(buf, '}')
		}
	case nil:
	default:
		panic(fmt.Sprintf("server: answer row holds %T, not a carrier's answer vector", row.Values))
	}
	return append(buf, ']')
}

// spliceAnswers appends the answer objects the row's baseline covers and
// returns the index of the first one it does not (0 without a baseline);
// the caller formats the rest. same(vals, base, j) is the end of the run
// of answers from j on whose bits equal the baseline's.
func spliceAnswers[T any](buf []byte, row hypo.Row, vals []T, same func(vals, base []T, j int) int, value func([]byte, T) []byte) ([]byte, int) {
	enc, base := spliceBase(row, vals)
	j := 0
	for j < len(base) {
		if k := same(vals, base, j); k > j {
			buf = append(buf, enc.Bytes[enc.Off[j]:enc.Off[k]]...)
			if j = k; j == len(base) {
				break
			}
		}
		buf = append(buf, enc.Bytes[enc.Off[j]:enc.Val[j]]...)
		buf = append(value(buf, vals[j]), '}')
		j++
	}
	return buf, j
}

// spliceBase returns the encoding of the row's baseline and the baseline
// answers it covers; nil when the row carries no baseline of its carrier.
func spliceBase[T any](row hypo.Row, vals []T) (*hypo.Encoding, []T) {
	if row.Base == nil {
		return nil, nil
	}
	base, ok := row.Base.Row.Values.([]T)
	if !ok {
		return nil, nil
	}
	return row.Base.Encoded(encodeBaseline), base[:row.Base.Covers(row)]
}

// encodeBaseline encodes a baseline's answers once, recording where each
// answer object and each value starts.
func encodeBaseline(row hypo.Row) hypo.Encoding {
	switch vals := row.Values.(type) {
	case []float64:
		return encodeValues(row, vals, appendJSONFloat)
	case []int64:
		return encodeValues(row, vals, appendJSONInt)
	case []bool:
		return encodeValues(row, vals, strconv.AppendBool)
	}
	panic(fmt.Sprintf("server: baseline holds %T, not a carrier's answer vector", row.Values))
}

func encodeValues[T any](row hypo.Row, vals []T, value func([]byte, T) []byte) hypo.Encoding {
	enc := hypo.Encoding{Off: make([]int, len(vals)+1), Val: make([]int, len(vals))}
	var buf []byte
	for j, v := range vals {
		enc.Off[j] = len(buf)
		buf = appendAnswerTag(buf, row, j)
		enc.Val[j] = len(buf)
		buf = append(value(buf, v), '}')
	}
	enc.Off[len(vals)] = len(buf)
	enc.Bytes = buf
	return enc
}

// sameFloats is the end of the run of floats from j on whose bits equal
// the baseline's: -0 is not 0, and a NaN whose payload differs is not the
// same NaN (it still encodes the same, so it is merely formatted again).
func sameFloats(vals, base []float64, j int) int {
	for j < len(base) && math.Float64bits(vals[j]) == math.Float64bits(base[j]) {
		j++
	}
	return j
}

// sameValues is sameFloats for counts and booleans, where equal means
// equal bits.
func sameValues[T comparable](vals, base []T, j int) int {
	for j < len(base) && vals[j] == base[j] {
		j++
	}
	return j
}

func appendJSONInt(buf []byte, n int64) []byte { return strconv.AppendInt(buf, n, 10) }

// appendAnswerTag opens answer j's object, up to its value.
func appendAnswerTag(buf []byte, row hypo.Row, j int) []byte {
	if j > 0 {
		buf = append(buf, ',')
	}
	buf = append(buf, `{"tag":`...)
	buf = appendJSONString(buf, row.Tag(j))
	return append(buf, `,"value":`...)
}

// appendAssign appends a scenario's assignments as a JSON object with the
// bytes encoding/json's map encoder gives (sorted keys, its float form).
// On a 100k-row sweep the assign object is a hot part of each row.
func appendAssign(buf []byte, assign map[string]float64) []byte {
	names := make([]string, 0, len(assign))
	for name := range assign {
		names = append(names, name)
	}
	slices.Sort(names)
	buf = append(buf, '{')
	for i, name := range names {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, name)
		buf = append(buf, ':')
		buf = appendJSONFloat(buf, assign[name])
	}
	return append(buf, '}')
}

// appendJSONString appends s as a JSON string, taking the fast path for
// plain printable ASCII and deferring anything that needs escaping to
// encoding/json.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s)
			return append(buf, quoted...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// appendJSONFloat mirrors encoding/json's float encoding: shortest form,
// %f for mid-range exponents, %e otherwise with the exponent's leading
// zero stripped. Non-finite values, which JSON numbers cannot carry, are
// the strings "+Inf", "-Inf" and "NaN".
func appendJSONFloat(buf []byte, f float64) []byte {
	switch {
	case math.IsInf(f, 1):
		return append(buf, `"+Inf"`...)
	case math.IsInf(f, -1):
		return append(buf, `"-Inf"`...)
	case math.IsNaN(f):
		return append(buf, `"NaN"`...)
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
