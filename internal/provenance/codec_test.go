package provenance

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// encodeSet is Encode into a fresh slice.
func encodeSet(tb testing.TB, s *Set) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		tb.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// rawSet assembles an encoded set by hand: a vocabulary, then polynomials
// written by fn through the varint helpers, so tests can state counts and
// orders Encode never writes.
func rawSet(names []string, fn func(b []byte) []byte) []byte {
	b := append([]byte(codecMagic), codecVersion)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, n := range names {
		b = binary.AppendUvarint(b, uint64(len(n)))
		b = append(b, n...)
	}
	return fn(b)
}

// term appends one term: coefficient, pair count, then (var, pow) pairs.
func term(b []byte, coeff float64, pairs ...VarPow) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(coeff))
	b = binary.AppendUvarint(b, uint64(len(pairs)))
	for _, p := range pairs {
		b = binary.AppendVarint(b, int64(p.Var))
		b = binary.AppendUvarint(b, uint64(p.Pow))
	}
	return b
}

// allocated runs fn and reports the bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeAllocBound is what decoding n input bytes may allocate: a small
// multiple of the input plus a fixed allowance for the set's own headers.
func decodeAllocBound(n int) uint64 { return uint64(64*n + 16<<10) }

func TestDecodeHostileCounts(t *testing.T) {
	header := func(names ...string) []byte {
		return rawSet(names, func(b []byte) []byte { return b })
	}
	oneTerm := func(nvp uint64) []byte {
		b := header("a")
		b = binary.AppendUvarint(b, 1) // one polynomial
		b = binary.AppendUvarint(b, 0) // empty tag
		b = binary.AppendUvarint(b, 1) // one term
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
		return binary.AppendUvarint(b, nvp) // and no pairs
	}
	dupNames := rawSet([]string{"a", "b", "a", "c"}, func(b []byte) []byte {
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, 0)
		b = binary.AppendUvarint(b, 1)
		return term(b, 2, VarPow{Var: 3, Pow: 1}) // the file's third name
	})
	maxPow := VarPow{Var: 1, Pow: math.MaxInt32}
	wrapped := rawSet([]string{"x"}, func(b []byte) []byte {
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, 0)
		b = binary.AppendUvarint(b, 1)
		return term(b, 1, maxPow, maxPow) // x^(2^32−2), which an int32 wraps to −2
	})
	cases := []struct {
		name string
		in   []byte
		want string // substring of the error
	}{
		{"2^24 pairs in 23 bytes", oneTerm(1 << 24), ""},
		{"2^62 pairs", oneTerm(1 << 62), ""},
		{"repeated variable name", dupNames, "appears twice"},
		{"repeated variable's exponents past int32", wrapped, "exponent 4294967294 out of range"},
	}
	if n := len(cases[0].in); n != 23 {
		t.Fatalf("the 2^24-pair input is %d bytes, want 23", n)
	}
	if n := len(cases[3].in); n != 32 {
		t.Fatalf("the wrapping input is %d bytes, want 32", n)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			var panicked any
			total := allocated(func() {
				defer func() { panicked = recover() }()
				_, err = Decode(bytes.NewReader(tc.in))
			})
			if panicked != nil {
				t.Fatalf("Decode panicked: %v", panicked)
			}
			if err == nil {
				t.Fatal("Decode accepted the input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if bound := decodeAllocBound(len(tc.in)); total > bound {
				t.Errorf("Decode of %d bytes allocated %d bytes, bound %d", len(tc.in), total, bound)
			}
		})
	}
}

// TestDecodeMatchesOracle decodes sets the fast path and the merge path
// both see — canonical terms, descending and repeated pairs, duplicate and
// cancelling keys, zero and NaN coefficients — and checks the result
// against the oracle's, re-encoded byte for byte.
func TestDecodeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inputs := [][]byte{
		rawSet([]string{"x", "y", "z"}, func(b []byte) []byte {
			b = binary.AppendUvarint(b, 3)
			b = append(b, 1, 't')
			b = binary.AppendUvarint(b, 7)
			b = term(b, 2, VarPow{1, 1}, VarPow{2, 3})
			b = term(b, 5, VarPow{2, 3}, VarPow{1, 1}) // same key, descending: merges to 7
			b = term(b, 1, VarPow{3, 1})
			b = term(b, -1, VarPow{3, 1}) // cancels the previous term
			b = term(b, 4, VarPow{1, 1}, VarPow{1, 2})
			b = term(b, 0, VarPow{2, 1})
			b = term(b, math.Float64frombits(0x7ff0000000000001)) // signalling NaN constant
			b = append(b, 0)                                      // empty tag
			b = binary.AppendUvarint(b, 2)
			b = term(b, 3, VarPow{3, 2})
			b = term(b, 1, VarPow{1, 1}) // below the previous key: looked up
			b = append(b, 0, 0)          // an empty polynomial
			return b
		}),
		rawSet([]string{"x"}, func(b []byte) []byte {
			b = append(b, 1, 0, 1)
			return term(b, 1, VarPow{1, math.MaxInt32 - 1}, VarPow{1, 1}) // merges to exactly 2^31−1
		}),
	}
	for i := 0; i < 50; i++ {
		vb := NewVocab()
		s := NewSet(vb)
		for j := 0; j < rng.Intn(5)+1; j++ {
			s.Add("p"+itoa(j), randomPoly(rng, vb, 6, rng.Intn(12)))
		}
		inputs = append(inputs, encodeSet(t, s))
	}
	for i, in := range inputs {
		got, err := DecodeBytes(in)
		if err != nil {
			t.Fatalf("input %d: DecodeBytes: %v", i, err)
		}
		want, err := decodeOracle(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("input %d: oracle: %v", i, err)
		}
		if g, w := encodeSet(t, got), encodeSet(t, want); !bytes.Equal(g, w) {
			t.Fatalf("input %d: decoded set re-encodes differently from the oracle's", i)
		}
		if got.VarCount() != want.Granularity() {
			t.Fatalf("input %d: VarCount %d, oracle Granularity %d", i, got.VarCount(), want.Granularity())
		}
	}
}

// TestDecodeReaderErrors pins Decode's reader contract: a read error that
// cuts the set short is returned, one met after a complete set is not.
func TestDecodeReaderErrors(t *testing.T) {
	vb := NewVocab()
	s := NewSet(vb)
	s.Add("a", MustParse(vb, "2·x·y + 3"))
	enc := encodeSet(t, s)
	boom := errors.New("boom")
	if _, err := Decode(&failingReader{data: enc, err: boom}); err != nil {
		t.Errorf("a read error after the whole set failed Decode: %v", err)
	}
	if _, err := Decode(&failingReader{data: enc[:len(enc)-3], err: boom}); !errors.Is(err, boom) {
		t.Errorf("a read error inside the set: got %v, want %v", err, boom)
	}
	if _, err := Decode(&failingReader{data: enc[:2], err: boom}); !errors.Is(err, boom) {
		t.Errorf("a read error inside the magic: got %v, want %v", err, boom)
	}
	for n := range enc {
		_, err := Decode(bytes.NewReader(enc[:n]))
		_, want := decodeOracle(bytes.NewReader(enc[:n]))
		if err == nil || err.Error() != want.Error() {
			t.Errorf("the first %d bytes: got %v, oracle %v", n, err, want)
		}
	}
}

// failingReader returns data, then err instead of io.EOF.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// oracleOverAllocates reports whether the oracle, which sizes a term's pair
// slice and each string by the declared count before reading, would
// allocate for more than the rest of the input holds. Such an input is
// truncated, so both decoders reject it; only DecodeBytes does so cheaply.
func oracleOverAllocates(data []byte) bool {
	if len(data) < len(codecMagic)+1 {
		return false
	}
	d := decoder{data: data, off: len(codecMagic) + 1}
	str := func() bool { // reports whether to stop
		n, err := d.uvarint()
		if err != nil || n > uint64(len(data)-d.off) {
			return true
		}
		d.off += int(n)
		return false
	}
	stringTooLong := func() bool {
		save := d.off
		n, err := d.uvarint()
		d.off = save
		return err == nil && n <= 1<<24 && n > uint64(len(data)-d.off)
	}
	nvars, err := d.uvarint()
	if err != nil {
		return false
	}
	for i := uint64(0); i < nvars; i++ {
		if stringTooLong() {
			return true
		}
		if str() {
			return false
		}
	}
	npolys, err := d.uvarint()
	if err != nil {
		return false
	}
	for i := uint64(0); i < npolys; i++ {
		if stringTooLong() {
			return true
		}
		if str() {
			return false
		}
		nterms, err := d.uvarint()
		if err != nil {
			return false
		}
		for t := uint64(0); t < nterms; t++ {
			if len(data)-d.off < 8 {
				return false
			}
			d.off += 8
			nvp, err := d.uvarint()
			if err != nil {
				return false
			}
			if nvp > uint64(len(data)-d.off)/2 {
				return true
			}
			for j := uint64(0); j < 2*nvp; j++ {
				if _, err := d.uvarint(); err != nil {
					return false
				}
			}
		}
	}
	return false
}

func FuzzDecode(f *testing.F) {
	vb := NewVocab()
	s := NewSet(vb)
	s.Add("zip 10001", MustParse(vb, "220.8·p1·m1 + 240·p1·m3 - 3·v"))
	s.Add("", MustParse(vb, "77.9·b1·m1^2 + 0.125"))
	enc := encodeSet(f, s)
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add([]byte{})
	f.Add([]byte("PVAB\x01"))
	f.Add(rawSet([]string{"a", "b", "a"}, func(b []byte) []byte { return append(b, 0) }))
	f.Add(rawSet([]string{"a"}, func(b []byte) []byte {
		b = append(b, 1, 0, 1)
		return term(b, 1, VarPow{1, math.MaxInt32}, VarPow{1, math.MaxInt32})
	}))
	f.Add(rawSet([]string{"a", "b"}, func(b []byte) []byte {
		b = append(b, 1, 0, 3)
		b = term(b, 1, VarPow{2, 1}, VarPow{1, 1})
		b = term(b, -1, VarPow{1, 1}, VarPow{2, 1})
		return term(b, 2, VarPow{1, 2})
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *Set
		var err error
		total := allocated(func() { got, err = DecodeBytes(data) })
		if bound := decodeAllocBound(len(data)); total > bound {
			t.Fatalf("DecodeBytes of %d bytes allocated %d bytes, bound %d", len(data), total, bound)
		}
		if derr := err; derr != nil {
			if strings.Contains(derr.Error(), "appears twice") || oracleOverAllocates(data) {
				return // the oracle accepts a repeated name; an over-allocating input it rejects slowly
			}
			var panicked any
			func() {
				defer func() { panicked = recover() }()
				_, err = decodeOracle(bytes.NewReader(data))
			}()
			// The oracle wraps a repeated variable's exponent sum past
			// int32; DecodeBytes refuses it as out of range.
			if panicked == nil && err == nil && !strings.Contains(derr.Error(), "exponent") {
				t.Fatalf("DecodeBytes rejected an input the oracle accepts: %v", derr)
			}
			return
		}
		want, oerr := decodeOracle(bytes.NewReader(data))
		if oerr != nil {
			t.Fatalf("DecodeBytes accepted an input the oracle rejects: %v", oerr)
		}
		if g, w := encodeSet(t, got), encodeSet(t, want); !bytes.Equal(g, w) {
			t.Fatalf("decoded set re-encodes differently from the oracle's")
		}
		// The decoded kernel is the one the oracle's maps flatten into,
		// whatever order the terms arrived in.
		if diff := kernelDiff(got.Compiled(), want.Compiled()); diff != "" {
			t.Fatalf("decoded kernel vs the oracle's maps flattened: %s", diff)
		}
		if got.VarCount() != want.Granularity() {
			t.Fatalf("VarCount %d, oracle Granularity %d", got.VarCount(), want.Granularity())
		}
	})
}
