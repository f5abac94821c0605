package reqbody

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

func TestLift(t *testing.T) {
	keys := []string{"provenance_b64", "snapshot_b64"}
	cases := []struct {
		name, body string
		ok         bool
		rest       string   // when ok
		vals       []string // when ok; "-" for an absent key
	}{
		{"lifts one", `{"name":"a","provenance_b64":"QUJD+/=="}`, true,
			`{"name":"a","provenance_b64":""}`, []string{"QUJD+/==", "-"}},
		{"lifts both around nesting", " {\"trees\":[\"{a,b}\",\"x\\\"y\"],\"snapshot_b64\" : \"AA\",\n\"o\":{\"provenance_b64\":1},\"provenance_b64\":\"\"}\t", true,
			" {\"trees\":[\"{a,b}\",\"x\\\"y\"],\"snapshot_b64\" : \"\",\n\"o\":{\"provenance_b64\":1},\"provenance_b64\":\"\"}\t", []string{"", "AA"}},
		{"nothing to lift", `{"name":"a","path":"t.pvab","workers":2,"delta_cutoff":0.5,"x":null,"y":true}`, true,
			`{"name":"a","path":"t.pvab","workers":2,"delta_cutoff":0.5,"x":null,"y":true}`, []string{"-", "-"}},
		{"empty object", `{}`, true, `{}`, []string{"-", "-"}},
		{"escaped value", `{"provenance_b64":"QU\/J"}`, false, "", nil},
		{"unicode escape", "{\"provenance_b64\":\"\\u0041\"}", false, "", nil},
		{"non-ASCII value", "{\"provenance_b64\":\"Q\xc3\xa9\"}", false, "", nil},
		{"DEL in value", "{\"provenance_b64\":\"Q\x7f\"}", false, "", nil},
		{"key differs in case", `{"Provenance_B64":"QUJD"}`, false, "", nil},
		{"key differs in case after the key", `{"provenance_b64":"QUJD","PROVENANCE_B64":"QQ"}`, false, "", nil},
		{"repeated key", `{"provenance_b64":"QUJD","provenance_b64":"QQ"}`, false, "", nil},
		{"escaped key", "{\"provenance\\u005fb64\":\"QUJD\"}", false, "", nil},
		{"non-ASCII key", "{\"\xc5\xbfnapshot_b64\":\"QUJD\"}", false, "", nil},
		{"value not a string", `{"provenance_b64":null}`, false, "", nil},
		{"trailing bytes", `{"provenance_b64":"QUJD"} {}`, false, "", nil},
		{"not an object", `["provenance_b64","QUJD"]`, false, "", nil},
		{"empty body", ``, false, "", nil},
		{"unterminated", `{"provenance_b64":"QUJD"`, false, "", nil},
		{"missing comma", `{"name":"a" "provenance_b64":"QUJD"}`, false, "", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rest, vals, ok := Lift([]byte(tc.body), keys...)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if !ok {
				return
			}
			if string(rest) != tc.rest {
				t.Errorf("rest = %q, want %q", rest, tc.rest)
			}
			for i, want := range tc.vals {
				switch {
				case want == "-" && vals[i] != nil:
					t.Errorf("%s = %q, want absent", keys[i], vals[i])
				case want != "-" && (vals[i] == nil || string(vals[i]) != want):
					t.Errorf("%s = %q, want %q", keys[i], vals[i], want)
				}
			}
		})
	}
}

// FuzzLiftAll: whenever LiftAll lifts an add line, encoding/json decodes
// the line into the add stream's struct without error and to the same tag
// and polynomial, and without allocating.
func FuzzLiftAll(f *testing.F) {
	for _, s := range []string{`{"tag":"a1","poly":"2*x*y + 3"}`, ` {"poly":"x·y"} `, `{}`, `{"tag":"a","poly":"x","n":1}`,
		`{"tag":"a","tag":"b"}`, `{"TAG":"a"}`, `{"tag":"a\u0041"}`, `{"poly":null}`, `{"tag":"a"`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var vals [2][]byte
		if !LiftAll(line, vals[:], "tag", "poly") {
			return
		}
		var want struct {
			Tag  string `json:"tag"`
			Poly string `json:"poly"`
		}
		if err := json.Unmarshal(line, &want); err != nil || string(vals[0]) != want.Tag || string(vals[1]) != want.Poly {
			t.Fatalf("LiftAll(%q) = %q, %q; encoding/json: %q, %q, %v", line, vals[0], vals[1], want.Tag, want.Poly, err)
		}
		if allocs := testing.AllocsPerRun(1, func() { LiftAll(line, vals[:], "tag", "poly") }); allocs != 0 {
			t.Fatalf("LiftAll(%q) allocated %v times", line, allocs)
		}
	})
}

// unread fails the test if the body is read at all.
type unread struct{ t *testing.T }

func (u unread) Read([]byte) (int, error) {
	u.t.Error("the body was read")
	return 0, io.EOF
}

func TestReadRefusesDeclaredLengthOverLimit(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/", io.NopCloser(unread{t}))
	r.ContentLength = 101
	w := httptest.NewRecorder()
	b, err := Read(w, r, 100)
	var tooBig *http.MaxBytesError
	if !errors.As(err, &tooBig) || tooBig.Limit != 100 || b != nil {
		t.Fatalf("Read = %q, %v; want a MaxBytesError of limit 100", b, err)
	}
	if got := w.Header().Get("Connection"); got != "close" {
		t.Errorf("Connection header %q, want close", got)
	}
}

func TestRead(t *testing.T) {
	body := strings.Repeat("x", 1000)
	for _, tc := range []struct {
		name    string
		n       int64 // the declared length; -1 unknown
		limit   int64
		wantErr bool
	}{
		{"declared", 1000, 1000, false},
		{"unknown length", -1, 1000, false},
		{"unknown length over the limit", -1, 999, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
			r.ContentLength = tc.n
			b, err := Read(httptest.NewRecorder(), r, tc.limit)
			if tc.wantErr {
				var tooBig *http.MaxBytesError
				if !errors.As(err, &tooBig) {
					t.Fatalf("err = %v, want a MaxBytesError", err)
				}
				return
			}
			if err != nil || !bytes.Equal(b, []byte(body)) {
				t.Fatalf("Read = %d bytes, %v", len(b), err)
			}
			if tc.n >= 0 && cap(b) != int(tc.n)+1 {
				t.Errorf("cap = %d, want the declared length plus one", cap(b))
			}
		})
	}
}

// stalled is a body whose sender declared its length and has sent nothing:
// its first Read closes started and then waits on the pipe.
type stalled struct {
	*io.PipeReader
	started chan struct{}
}

func (s *stalled) Read(p []byte) (int, error) {
	if s.started != nil {
		close(s.started)
		s.started = nil
	}
	return s.PipeReader.Read(p)
}

// TestReadHoldsOnlyWhatArrived declares a 64 MiB body, sends none of it,
// and checks that Read waits for it holding a small buffer, not one of the
// declared size.
func TestReadHoldsOnlyWhatArrived(t *testing.T) {
	const declared = 64 << 20
	pr, pw := io.Pipe()
	body := &stalled{pr, make(chan struct{})}
	started := body.started
	r := httptest.NewRequest(http.MethodPost, "/", io.NopCloser(body))
	r.ContentLength = declared
	w := httptest.NewRecorder()

	var before, waiting runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan error)
	go func() {
		_, err := Read(w, r, declared)
		done <- err
	}()
	<-started
	runtime.ReadMemStats(&waiting)
	pw.CloseWithError(io.ErrUnexpectedEOF)
	if err := <-done; !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Read = %v, want the sender's error", err)
	}
	if got := waiting.TotalAlloc - before.TotalAlloc; got > 256<<10 {
		t.Errorf("waiting for a declared %d-byte body that sent nothing, Read allocated %d bytes", declared, got)
	}
}

// trickle yields its data a few bytes at a time and records, before each
// Read, how many bytes it had yielded and how large a buffer it was offered.
type trickle struct {
	data   []byte
	step   int
	sent   int
	offers [][2]int // {bytes sent so far, len of the buffer offered}
}

func (c *trickle) Read(p []byte) (int, error) {
	c.offers = append(c.offers, [2]int{c.sent, len(p)})
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.data[:min(c.step, len(c.data))])
	c.data, c.sent = c.data[n:], c.sent+n
	return n, nil
}

// TestReadAllGrowsWithTheBytesReceived checks that ReadAll's buffer is
// never more than four times the bytes received, or 64 KiB, and that a
// body of declared length ends in a buffer of exactly its length plus one.
func TestReadAllGrowsWithTheBytesReceived(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcdef"), 300_000) // 4.8 MB
	for _, tc := range []struct {
		name string
		size int64
	}{
		{"declared", int64(len(data))},
		{"unknown length", -1},
		{"longer than declared", 100_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &trickle{data: data, step: 40_000}
			b, err := ReadAll(nil, src, tc.size)
			if err != nil || !bytes.Equal(b, data) {
				t.Fatalf("ReadAll = %d bytes, %v", len(b), err)
			}
			grows := 0
			for i, o := range src.offers {
				if held := o[0] + o[1]; held > max(firstBuf, 4*o[0]) {
					t.Fatalf("read %d: %d bytes received, buffer of %d", i, o[0], held)
				}
				if prev := src.offers[max(i-1, 0)]; i > 0 && o[1] > prev[1]-(o[0]-prev[0]) {
					grows++
				}
			}
			if tc.size == int64(len(data)) {
				if cap(b) != len(data)+1 {
					t.Errorf("cap = %d, want the declared length plus one", cap(b))
				}
				if grows > 4 {
					t.Errorf("the buffer grew %d times for a %d-byte body", grows, len(data))
				}
			}
		})
	}
}

// TestReadAllAppendsToDst checks that ReadAll appends to dst, in dst's own
// array when its spare capacity holds the declared body, and keeps dst's
// contents when it has to start a buffer of its own.
func TestReadAllAppendsToDst(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcdef"), 100)
	for _, tc := range []struct {
		name  string
		room  int
		size  int64
		fresh bool // a new buffer must be started
	}{
		{"fits", len(data) + 1, int64(len(data)), false},
		{"too small", 10, int64(len(data)), true},
		{"unknown length, fits", 4096, -1, false},
		{"unknown length, too small", 100, -1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := append(make([]byte, 0, 2+tc.room), "ab"...)
			b, err := ReadAll(dst, &trickle{data: data, step: 300}, tc.size)
			if err != nil || !bytes.Equal(b, append([]byte("ab"), data...)) {
				t.Fatalf("ReadAll = %q, %v", b, err)
			}
			if same := &b[0] == &dst[0]; same == tc.fresh {
				t.Errorf("read into dst's array: %v, want %v", same, !tc.fresh)
			}
			if tc.fresh && tc.size >= 0 && cap(b) != len(b)+1 {
				t.Errorf("cap = %d, want dst's length plus the declared length plus one", cap(b))
			}
		})
	}
}
