package provenance_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"provabs/internal/provenance"
	"provabs/internal/telco"
	"provabs/internal/tpch"
)

// setupWorkloads are the sets the set-up path is measured on: perfbench's
// two telco sizes and TPC-H Q5. telco-m is left out under -short.
func setupWorkloads(t *testing.T) map[string]*provenance.Set {
	t.Helper()
	configs := map[string]telco.Config{"telco-s": {Customers: 2000, Zips: 200, Plans: 128, Months: 12, Seed: 1000}}
	if !testing.Short() {
		configs["telco-m"] = telco.Config{Customers: 20000, Zips: 2000, Plans: 128, Months: 12, Seed: 1000}
	}
	sets := map[string]*provenance.Set{}
	for name, cfg := range configs {
		s, err := telco.SyntheticProvenance(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sets[name] = s
	}
	d, err := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sets["Q5"], err = d.Provenance("Q5"); err != nil {
		t.Fatal(err)
	}
	return sets
}

// encodeDigests are the SHA-256 digests of the set-up workloads as the
// map-based encoder (encodeMapOracle) wrote them.
var encodeDigests = map[string]string{
	"telco-s": "2e443d25c21c2f2286e4fb195b57cece2818418c6af07e98ae0ab387ce4dfb2d",
	"telco-m": "1fb411f6cbc861cbe957399c0a7eeb1fa64c1e0194125f3cc4af5d27c3ee2b52",
	"Q5":      "45be386f9524e22604a84cfc6157d6dc001b0eeda7a7b742043e49f9970b0181",
}

// encodeMapOracle is Encode as it ran on map polynomials: each member's
// Monomials, sorted by key, kept as the oracle the array encoder is
// checked against.
func encodeMapOracle(s *provenance.Set) []byte {
	b := append([]byte("PVAB"), 1)
	b = binary.AppendUvarint(b, uint64(s.Vocab.Len()))
	for v := 1; v <= s.Vocab.Len(); v++ {
		name := s.Vocab.Name(provenance.Var(v))
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
	}
	b = binary.AppendUvarint(b, uint64(s.Len()))
	for i := range s.Len() {
		tag := ""
		if i < len(s.Tags) {
			tag = s.Tags[i]
		}
		b = binary.AppendUvarint(b, uint64(len(tag)))
		b = append(b, tag...)
		ms := s.Poly(i).Monomials()
		b = binary.AppendUvarint(b, uint64(len(ms)))
		for _, m := range ms {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Coeff))
			b = binary.AppendUvarint(b, uint64(len(m.Vars())))
			for _, vp := range m.Vars() {
				b = binary.AppendVarint(b, int64(vp.Var))
				b = binary.AppendUvarint(b, uint64(vp.Pow))
			}
		}
	}
	return b
}

// TestEncodeMatchesMapEncoder: Encode, which reads the kernel's arrays,
// writes the set-up workloads byte for byte as the map-based encoder does,
// and as it wrote them when sets held map polynomials (the digests).
func TestEncodeMatchesMapEncoder(t *testing.T) {
	for name, s := range setupWorkloads(t) {
		var buf bytes.Buffer
		if err := provenance.Encode(&buf, s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), encodeMapOracle(s)) {
			t.Errorf("%s: Encode differs from the map-based encoder", name)
		}
		if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != encodeDigests[name] {
			t.Errorf("%s: Encode's digest %x, recorded %s", name, sum, encodeDigests[name])
		}
	}
}

// decodeHeapPerByte bounds what DecodeBytes allocates per input byte on
// telco. A decoded set is its kernel's arrays: per term an
// 8-byte coefficient and a 4-byte factor offset, per (Var, Pow) pair 8
// bytes, against the 13 or so bytes a two-factor term takes encoded —
// about 2.1 bytes per input byte on telco.
const decodeHeapPerByte = 3.0

// TestDecodeHeapPerByte states the heap one create body buys: decoding
// telco-s (and telco-m unless -short) allocates at most decodeHeapPerByte
// bytes per input byte. (Q5, 7 KB encoded, is too small for the per-byte
// figure: its vocabulary and tags dominate.)
func TestDecodeHeapPerByte(t *testing.T) {
	for name, s := range setupWorkloads(t) {
		if name == "Q5" {
			continue
		}
		var buf bytes.Buffer
		if err := provenance.Encode(&buf, s); err != nil {
			t.Fatal(err)
		}
		enc := buf.Bytes()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := provenance.DecodeBytes(enc)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(enc))
		t.Logf("%s: %d bytes decoded into %d allocated bytes, %.2f per input byte", name, len(enc), after.TotalAlloc-before.TotalAlloc, perByte)
		if perByte > decodeHeapPerByte {
			t.Errorf("%s: DecodeBytes allocated %.2f bytes per input byte, bound %.1f", name, perByte, decodeHeapPerByte)
		}
	}
}
