package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"provabs/internal/hypo"
	"provabs/internal/session"
)

// The encoding/json answer path the typed appender replaced, kept verbatim
// as the oracle FuzzAnswerEncoding compares against, with the wire structs
// the endpoint tests decode into.

// answerJSON is one tagged answer on the wire. Value is the evaluation
// carrier's value — a float64 magnitude, a bool, an int64 count — except
// that the non-finite tropical/minmax identities, which JSON cannot carry
// as numbers, are encoded as the strings "+Inf" and "-Inf".
type answerJSON struct {
	Tag   string `json:"tag"`
	Value any    `json:"value"`
}

// wireValue maps a carrier value to its JSON encoding (±Inf as strings;
// encoding/json rejects non-finite floats).
func wireValue(v any) any {
	if f, ok := v.(float64); ok && math.IsInf(f, 0) {
		if f > 0 {
			return "+Inf"
		}
		return "-Inf"
	}
	return v
}

func toAnswerJSON(answers []hypo.ValueAnswer) []answerJSON {
	out := make([]answerJSON, len(answers))
	for i, a := range answers {
		out[i] = answerJSON{Tag: a.Tag, Value: wireValue(a.Value)}
	}
	return out
}

// streamLine is one NDJSON response line of whatif/stream.
type streamLine struct {
	Index   int          `json:"index"`
	Answers []answerJSON `json:"answers,omitempty"`
	Error   string       `json:"error,omitempty"`
}

// queryRowJSON is one scenario's outcome on the wire: the generated
// assignments and the answers, or an in-band per-scenario error.
type queryRowJSON struct {
	Index   int64              `json:"index"`
	Assign  map[string]float64 `json:"assign,omitempty"`
	Answers []answerJSON       `json:"answers,omitempty"`
	Error   string             `json:"error,omitempty"`
}

// queryStreamHeader is the first NDJSON line of a streaming query.
type queryStreamHeader struct {
	Semiring  string `json:"semiring"`
	Scenarios int64  `json:"scenarios"`
}

// oracleAnswers is the replaced encoding of a row's answers, with the one
// intended change: a NaN answer, which encoding/json rejects, is "NaN".
func oracleAnswers(row hypo.Row) []answerJSON {
	out := toAnswerJSON(row.Erase())
	for i, a := range out {
		if f, ok := a.Value.(float64); ok && math.IsNaN(f) {
			out[i].Value = "NaN"
		}
	}
	return out
}

func marshalLine(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzAnswerEncoding checks the appender against encoding/json over the
// same answers boxed: one row per carrier built from random tag bytes,
// float bits, an int64 and a bool, as a one-shot body, a stream line and a
// query row, plus the tag bytes as an in-band error and an assignment name.
func FuzzAnswerEncoding(f *testing.F) {
	for _, seed := range []struct {
		tag  string
		bits uint64
		n    int64
		b    bool
	}{
		{"zip 10001", math.Float64bits(1234.5), 3, true},
		{`q"uote\`, math.Float64bits(math.Inf(1)), -1, false},
		{"<lt>&gt;", math.Float64bits(math.Inf(-1)), math.MaxInt64, true},
		{"line\u2028sep\u2029", math.Float64bits(math.Copysign(0, -1)), math.MinInt64, false},
		{"ctl\x00\x01\x1f\t\n\r\b\f", math.Float64bits(1e-7), 0, true},
		{"bad\xff\xfe", math.Float64bits(1e21), 42, false},
		{"é ✓", math.Float64bits(9.999999e-7), 7, true},
		{"", math.Float64bits(math.NaN()), 1, false},
		{"tiny", 1, 2, true}, // the smallest subnormal
		{"\x7f\u00a0", math.Float64bits(-1e-300), -99, false},
	} {
		f.Add([]byte(seed.tag), seed.bits, seed.n, seed.b)
	}
	f.Fuzz(func(t *testing.T, tag []byte, bits uint64, n int64, b bool) {
		x := math.Float64frombits(bits)
		tags := []string{string(tag), "t", string(bytes.ToUpper(tag))}
		for _, row := range []hypo.Row{
			hypo.RowOf(tags, []float64{x, float64(n), -x}, nil),
			hypo.RowOf(tags, []int64{n, -n, 0}, nil),
			hypo.RowOf(tags, []bool{b, !b, true}, nil),
			hypo.RowOf(tags[:1], []float64{x, x}, nil), // more answers than tags
			{},
		} {
			want := oracleAnswers(row)
			if got := appendWhatIf(nil, row); !bytes.Equal(got, marshalLine(t, map[string]any{"answers": want})) {
				t.Fatalf("whatif %v:\n got %s\nwant %s", row, got, marshalLine(t, map[string]any{"answers": want}))
			}
			res := session.ValueStreamResult{Index: int(n & 0xffff), Row: row}
			wantLine := marshalLine(t, streamLine{Index: res.Index, Answers: want})
			if got := appendStreamLine(nil, res); !bytes.Equal(got, wantLine) {
				t.Fatalf("stream line %v:\n got %s\nwant %s", row, got, wantLine)
			}
			qr := session.QueryRow{Index: n, Row: row}
			wantRow := queryRowJSON{Index: n, Answers: want}
			if !math.IsInf(x, 0) && !math.IsNaN(x) {
				qr.Assign = map[string]float64{string(tag): x} // one key: sorting is TestEncodeAssign's
				wantRow.Assign = qr.Assign
			}
			if got, want := AppendQueryLine(nil, qr), marshalLine(t, wantRow); !bytes.Equal(got, want) {
				t.Fatalf("query row %v:\n got %s\nwant %s", row, got, want)
			}
		}
		msg := string(tag)
		res := session.ValueStreamResult{Index: 1, Err: errors.New(msg)}
		if got, want := appendStreamLine(nil, res), marshalLine(t, streamLine{Index: 1, Error: msg}); !bytes.Equal(got, want) {
			t.Fatalf("error line:\n got %s\nwant %s", got, want)
		}
		if got, want := appendError(nil, msg), marshalLine(t, map[string]string{"error": msg}); !bytes.Equal(got, want) {
			t.Fatalf("error body:\n got %s\nwant %s", got, want)
		}
	})
}
