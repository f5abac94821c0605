package durable

// Fuzzers for the two recovery-path decoders. Both parse bytes that, in
// production, come off a disk that may have crashed mid-write or rotted:
// the contract is an error — never a panic, never an allocation sized by
// an unvalidated length field. The committed seed corpus under
// testdata/fuzz (regenerated with PROVABS_WRITE_FUZZ_CORPUS=1) starts the
// fuzzers from structurally valid inputs so mutation explores deep paths
// instead of bouncing off the magic check.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"provabs/internal/abstree"
	"provabs/internal/provenance"
	"provabs/internal/session"
)

// seedWAL builds a small valid log: a vocab record and two add records.
func seedWAL(tb testing.TB) []byte {
	vb := provenance.NewVocab()
	p1 := provenance.MustParse(vb, "2·x·y + 3·z")
	p2 := provenance.MustParse(vb, "0.5·x^2")
	var b []byte
	b = appendFrame(b, appendVocabRecord(nil, 1, []string{"x", "y", "z"}))
	b = appendFrame(b, appendAddRecord(nil, 2, "first", p1.Compile()))
	b = appendFrame(b, appendAddRecord(nil, 3, "second", p2.Compile()))
	return b
}

// seedSnapshot encodes the session-test fixture, compressed and not.
func seedSnapshot(tb testing.TB, compress bool) []byte {
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	set.Add("zip 10001", provenance.MustParse(vb,
		"220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 + "+
			"75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3"))
	set.Add("zip 10002", provenance.MustParse(vb, "100·p1·m1 + 50·f1·m3 + 25·y1·m1"))
	forest, err := abstree.NewForest(abstree.MustParseTree("Year(q1(m1,m3))"))
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := session.Open(set, forest)
	if err != nil {
		tb.Fatal(err)
	}
	if compress {
		if _, err := eng.Compress(7); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := eng.WithState(func(st *session.SnapshotState) error {
		return EncodeSnapshot(&buf, st, 42)
	}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzWALScan(f *testing.F) {
	valid := seedWAL(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])               // torn tail
	f.Add(append(valid, make([]byte, 32)...)) // zero-filled tail
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := scanWAL(data)
		if s.validLen < 0 || s.validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside [0, %d]", s.validLen, len(data))
		}
		if err != nil {
			return
		}
		// Accepted records must survive application: building kernels
		// from them may reject out-of-vocabulary variables but must not
		// panic.
		vb := provenance.NewVocab()
		var pb provenance.PolyBuilder
		for _, rec := range s.records {
			switch rec.kind {
			case recVocab:
				vb.Vars(rec.names...)
			case recAdd:
				buildKernel(&pb, rec.terms, vb) //nolint:errcheck // only panics fail
			}
		}
	})
}

// kernelSnapshot is the snapshot of the one-polynomial set expr over x and
// y, with its kernel section's coefficients, factor variables and
// exponents overwritten by coeffs, vars and pows (each as long as the
// kernel's own) and the section's checksum recomputed. The baseline and
// inverted index sections are left as they are.
func kernelSnapshot(tb testing.TB, expr string, coeffs []float64, vars []string, pows []int32) []byte {
	vb := provenance.NewVocab()
	vb.Vars("x", "y")
	set := provenance.NewSet(vb)
	set.Add("P", provenance.MustParse(vb, expr))
	eng, err := session.Open(set, nil)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.WithState(func(st *session.SnapshotState) error {
		return EncodeSnapshot(&buf, st, 1)
	}); err != nil {
		tb.Fatal(err)
	}
	b := buf.Bytes()
	for off := 24; off+8 <= len(b); { // sections follow the 24-byte header
		id := binary.LittleEndian.Uint32(b[off:])
		n := int(binary.LittleEndian.Uint32(b[off+4:]))
		payload := b[off+8 : off+8+n]
		if id == secKernel {
			// 1 polynomial, then the term and factor counts, PolyOff (2)
			// and FactOff (terms+1); then the coefficients, the factor
			// variables and the exponents.
			at := 3 + 4*2 + 4*(int(payload[1])+1)
			for _, c := range coeffs {
				binary.LittleEndian.PutUint64(payload[at:], math.Float64bits(c))
				at += 8
			}
			for _, v := range vars {
				binary.LittleEndian.PutUint32(payload[at:], uint32(vb.Var(v)))
				at += 4
			}
			for _, pw := range pows {
				binary.LittleEndian.PutUint32(payload[at:], uint32(pw))
				at += 4
			}
			binary.LittleEndian.PutUint32(b[off+8+n:], crc32.Checksum(payload, castagnoli))
			return b
		}
		off += 8 + n + 4
	}
	tb.Fatal("no kernel section")
	return nil
}

// seedRepeatedVarSnapshot is a snapshot whose kernel is consistent in
// every checked respect but one: a term lists a variable twice. It is the
// snapshot of x + x·y with the kernel's factor variables [x, x, y]
// rewritten to [y, x, x], which leaves the baseline and the inverted index
// unchanged.
func seedRepeatedVarSnapshot(tb testing.TB) []byte {
	return kernelSnapshot(tb, "x + x·y", []float64{1, 1}, []string{"y", "x", "x"}, []int32{1, 1, 1})
}

// seedPermutedKernelSnapshot is a snapshot whose kernel is consistent in
// every checked respect but one: a polynomial's terms are out of key
// order. It is the snapshot of x + 2·x^2 with its two terms swapped, which
// leaves the baseline (3 either way) and the inverted index (x in both
// terms) unchanged.
func seedPermutedKernelSnapshot(tb testing.TB) []byte {
	return kernelSnapshot(tb, "x + 2·x^2", []float64{2, 1}, []string{"x", "x"}, []int32{2, 1})
}

// TestDecodeRejectsRepeatedVariable: a term that lists one variable twice
// is refused in a snapshot's kernel and in a WAL add record, where it used
// to reach NewMonomialPows, which adds the exponents in int32.
func TestDecodeRejectsRepeatedVariable(t *testing.T) {
	if _, _, err := DecodeSnapshot(bytes.NewReader(seedRepeatedVarSnapshot(t))); !errors.Is(err, ErrCorrupt) ||
		!strings.Contains(err.Error(), "strictly ascending") {
		t.Errorf("DecodeSnapshot of a kernel term x·x: err = %v, want a corrupt snapshot", err)
	}
	rec := append([]byte{recAdd}, 2) // seq 2
	rec = append(rec, 1, 'P', 1)     // tag "P", one term
	rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(1))
	rec = append(rec, 2, 1, 0xff, 0xff, 0xff, 0xff, 0x07, 1, 0xff, 0xff, 0xff, 0xff, 0x07) // x^(2^31−1)·x^(2^31−1)
	if _, err := decodeRecord(rec); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "strictly ascending") {
		t.Errorf("decodeRecord of an add record holding x·x: err = %v, want a corrupt record", err)
	}
}

// TestDecodeRejectsPermutedKernel: a snapshot whose kernel lists a
// polynomial's terms out of key order is refused. It used to restore, and
// the compatibility check and compression, which read terms in key order,
// then met them in another.
func TestDecodeRejectsPermutedKernel(t *testing.T) {
	if _, _, err := DecodeSnapshot(bytes.NewReader(seedPermutedKernelSnapshot(t))); !errors.Is(err, ErrCorrupt) ||
		!strings.Contains(err.Error(), "ascending key order") {
		t.Errorf("DecodeSnapshot of a kernel holding 2·x^2 + x: err = %v, want a corrupt snapshot", err)
	}
}

func FuzzSnapshotDecode(f *testing.F) {
	f.Add(seedSnapshot(f, false))
	f.Add(seedSnapshot(f, true))
	f.Add(seedRepeatedVarSnapshot(f))
	f.Add(seedPermutedKernelSnapshot(f))
	f.Add([]byte("PVSN"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, _, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything the decoder accepts must restore into a working engine.
		if _, err := session.Restore(st); err != nil {
			t.Fatalf("decoded snapshot failed Restore: %v", err)
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus when
// PROVABS_WRITE_FUZZ_CORPUS=1 is set; otherwise it only checks the files
// exist, so a refactor that forgets to regenerate fails loudly.
func TestWriteFuzzCorpus(t *testing.T) {
	seeds := map[string][][]byte{
		"FuzzWALScan":        {seedWAL(t)},
		"FuzzSnapshotDecode": {seedSnapshot(t, false), seedSnapshot(t, true), seedRepeatedVarSnapshot(t), seedPermutedKernelSnapshot(t)},
	}
	write := os.Getenv("PROVABS_WRITE_FUZZ_CORPUS") == "1"
	for target, inputs := range seeds {
		dir := filepath.Join("testdata", "fuzz", target)
		for i, in := range inputs {
			path := filepath.Join(dir, fmt.Sprintf("seed-%d", i))
			if write {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", in)
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("missing fuzz seed %s (regenerate with PROVABS_WRITE_FUZZ_CORPUS=1): %v", path, err)
			}
		}
	}
}
