// Package reqbody reads a bounded HTTP body in one pass and lifts long
// string members out of a JSON object body, so that encoding/json decodes
// only the small remainder, or nothing. The server and the gateway both
// read session-create bodies, which carry a whole encoded provenance set
// or snapshot as one base64 string, through it; the gateway reads every
// body it buffers, request or backend response, with ReadAll; the server
// lifts each add line's tag and polynomial (LiftAll).
package reqbody

import (
	"bytes"
	"io"
	"net/http"
)

// Read reads r's body, at most limit bytes, with ReadAll. A declared
// length over limit is refused with an *http.MaxBytesError before anything
// is read or allocated, and the connection is marked to close as
// http.MaxBytesReader marks it; a longer body of unknown length meets the
// same error from http.MaxBytesReader once limit bytes have arrived. On an
// error Read returns the bytes read before it.
func Read(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		if w != nil {
			w.Header().Set("Connection", "close")
		}
		return nil, &http.MaxBytesError{Limit: limit}
	}
	return ReadAll(nil, http.MaxBytesReader(w, r.Body, limit), r.ContentLength)
}

// firstBuf is the most ReadAll allocates before the first byte arrives.
const firstBuf = 64 << 10

// ReadAll reads src to its end and appends what it read to dst. size is
// the length src declares, or -1 when it declares none; src itself must
// bound how much it yields. The buffer starts with room for size+1 bytes
// past dst's contents, but no more than 64 KiB (for 512, as io.ReadAll's
// does, when no size is declared); dst itself is that buffer when its
// spare capacity holds that much. It grows fourfold each time it fills,
// never past room for size+1 bytes while the body is within its declared
// length. So the memory held stays in proportion to the bytes received,
// whatever a header declares, and a body of declared length is copied a
// few times at most. The +1 leaves room to read the end without growing.
// On an error ReadAll returns dst with the bytes read before it.
func ReadAll(dst []byte, src io.Reader, size int64) ([]byte, error) {
	n := int64(512)
	if size >= 0 {
		n = min(size+1, firstBuf)
	}
	b := dst
	if int64(cap(b)-len(b)) < n {
		b = append(make([]byte, 0, int64(len(b))+n), b...)
	}
	want := int64(len(dst)) + size + 1
	for {
		m, err := src.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			grown := 4 * int64(cap(b))
			if size >= 0 && want > int64(cap(b)) && want < grown {
				grown = want
			}
			b = append(make([]byte, 0, grown), b...)
		}
	}
}

// Lift finds, among the top-level members of the JSON object body, those
// named by keys, and cuts out their string values. It returns the body with
// each such value emptied to "", and the values' bytes (views into body)
// in the order of keys, nil for a key the object lacks.
//
// A lifted value is a string of printable ASCII with no escapes, so
// decoding rest with encoding/json gives exactly what decoding body does —
// the same fields, the same error — except that each lifted field holds ""
// instead of its value. ok is false, and the caller must decode body
// whole, when body is not one object with only whitespace after it, when a
// top-level key is not printable ASCII without escapes, when a key equals
// one of keys only up to case or appears twice, or when a member named by
// keys holds anything else than such a string.
func Lift(body []byte, keys ...string) (rest []byte, vals [][]byte, ok bool) {
	vals = make([][]byte, len(keys))
	var cuts [][2]int // [start, end) of each lifted value's contents
	if _, ok := members(body, keys, vals, &cuts); !ok {
		return nil, nil, false
	}
	if len(cuts) == 0 {
		return body, vals, true
	}
	cut := 0
	for _, c := range cuts {
		cut += c[1] - c[0]
	}
	rest = make([]byte, 0, len(body)-cut)
	from := 0
	for _, c := range cuts {
		rest = append(rest, body[from:c[0]]...)
		from = c[1]
	}
	return append(rest, body[from:]...), vals, true
}

// LiftAll is Lift for an object body whose members are all named by keys:
// it sets vals[j] to the value of keys[j] (a view into body; nil when the
// object lacks the key) and reports true only when Lift would lift them
// and the object has no other member. Decoding body with encoding/json
// would then set exactly the fields named by keys, each to its lifted
// bytes, so the caller need not decode it. LiftAll allocates nothing.
func LiftAll(body []byte, vals [][]byte, keys ...string) bool {
	clear(vals)
	others, ok := members(body, keys, vals, nil)
	return ok && others == 0
}

// members walks the top-level members of the JSON object body, setting
// vals[j] to the string value of keys[j] and, when cuts is not nil,
// recording each such value's bounds there. It returns the number of
// other members, and ok false on anything Lift refuses.
func members(body []byte, keys []string, vals [][]byte, cuts *[][2]int) (others int, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return 0, false
	}
	i = skipSpace(body, i+1)
	for first := true; ; first = false {
		if i < len(body) && body[i] == '}' && first {
			i++
			break
		}
		ks, ke, next := scanString(body, i)
		if next < 0 {
			return 0, false
		}
		match := -1
		for j, k := range keys {
			if bytes.EqualFold(body[ks:ke], []byte(k)) {
				if string(body[ks:ke]) != k || vals[j] != nil {
					return 0, false // encoding/json would fold or overwrite
				}
				match = j
			}
		}
		i = skipSpace(body, next)
		if i == len(body) || body[i] != ':' {
			return 0, false
		}
		i = skipSpace(body, i+1)
		if match >= 0 {
			vs, ve, next := scanString(body, i)
			if next < 0 {
				return 0, false
			}
			vals[match] = body[vs:ve:ve]
			if cuts != nil {
				*cuts = append(*cuts, [2]int{vs, ve})
			}
			i = next
		} else if i = skipValue(body, i); i < 0 {
			return 0, false
		} else {
			others++
		}
		i = skipSpace(body, i)
		if i == len(body) {
			return 0, false
		}
		if body[i] == '}' {
			i++
			break
		}
		if body[i] != ',' {
			return 0, false
		}
		i = skipSpace(body, i+1)
	}
	if skipSpace(body, i) != len(body) {
		return 0, false
	}
	return others, true
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString scans the string starting at b[i] and returns the bounds of
// its contents and the index after its closing quote, or next = -1 when
// b[i] opens no string of printable ASCII without a backslash.
func scanString(b []byte, i int) (start, end, next int) {
	if i == len(b) || b[i] != '"' {
		return 0, 0, -1
	}
	start = i + 1
	j := start
	for j < len(b) && plain[b[j]] {
		j++
	}
	if j == len(b) || b[j] != '"' {
		return 0, 0, -1
	}
	return start, j, j + 1
}

// plain marks the bytes a lifted string may hold: printable ASCII, from
// 0x20 to 0x7e, other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// skipValue returns the index just after the JSON value starting at b[i],
// or -1 when a string or container runs off the end. It tracks strings,
// escapes and nesting without validating what it passes over: every byte
// it skips stays in the remainder Lift returns, where encoding/json judges
// it, and on valid JSON it ends where encoding/json's scanner does.
func skipValue(b []byte, i int) int {
	depth := 0
	for i < len(b) {
		c := b[i]
		switch {
		case c == '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			if i >= len(b) {
				return -1
			}
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			if depth == 0 {
				return i // the container around a scalar closes
			}
			depth--
		case depth == 0 && (c == ',' || c == ' ' || c == '\t' || c == '\n' || c == '\r'):
			return i
		}
		i++
		if depth == 0 && (c == '"' || c == '}' || c == ']') {
			return i
		}
	}
	if depth > 0 {
		return -1
	}
	return i
}
