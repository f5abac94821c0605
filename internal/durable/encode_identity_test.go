package durable_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"provabs/internal/abstree"
	"provabs/internal/durable"
	"provabs/internal/provenance"
	"provabs/internal/session"
	"provabs/internal/telco"
	"provabs/internal/tpch"
	"provabs/internal/treegen"
)

// snapshotDigests are the SHA-256 digests of EncodeSnapshot's output on
// the sessions identitySession builds, recorded when the source section
// was written from map polynomials (sourceMapOracle).
var snapshotDigests = map[string]string{
	"telco-s": "2a3121336afb6c3b60471a1d5c2e9c9750369f5f1a95eeb47f35e837d8abf377",
	"telco-m": "39e268080741ef8e576646f1b5d249d755ba181f9d91dbf34fdd2691ee161a10",
	"Q5":      "c05bd0e970b61b9faf9cc7b84010e9ca713288fc0867486d6ea8637c4583dca5",
}

// identitySession compresses one set-up workload to half its size and
// adds one polynomial: telco-s and telco-m with greedy on the plans and
// quarter trees, Q5 with optimal on the smallest type 1 tree.
func identitySession(t *testing.T, name string) *session.Engine {
	t.Helper()
	var (
		set      *provenance.Set
		forest   *abstree.Forest
		strategy = session.StrategyGreedy
		add      = "2.5·m3·zip10000 + 3*pl7^2"
		err      error
	)
	switch name {
	case "telco-s", "telco-m":
		cfg := telco.Config{Customers: 2000, Zips: 200, Plans: 128, Months: 12, Seed: 1000}
		if name == "telco-m" {
			cfg.Customers, cfg.Zips = 20000, 2000
		}
		if set, err = telco.SyntheticProvenance(cfg); err != nil {
			t.Fatal(err)
		}
		plans, err := telco.PlansTree(treegen.Shape{Type: 1, Fanouts: []int{2, 64}})
		if err != nil {
			t.Fatal(err)
		}
		forest = abstree.MustForest(plans, telco.QuarterTree())
	case "Q5":
		d, err := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if set, err = d.Provenance("Q5"); err != nil {
			t.Fatal(err)
		}
		forest = abstree.MustForest(treegen.SmallestOfType(1).Build("Q5Root", treegen.NumberedLeaves("s")))
		strategy, add = session.StrategyOptimal, "2.5·s1·s2 + 3·s3^2 + 1"
	}
	e, err := session.Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compress(set.Size()/2, session.WithStrategy(strategy)); err != nil {
		t.Fatal(err)
	}
	e.Add("x1", provenance.MustParse(e.Source().Vocab, add))
	return e
}

// sourceMapOracle is the snapshot's source section as it was written from
// map polynomials: each member's Monomials, sorted by key.
func sourceMapOracle(s *provenance.Set) []byte {
	b := binary.AppendUvarint(nil, uint64(s.Len()))
	for i := range s.Len() {
		b = binary.AppendUvarint(b, uint64(len(s.Tags[i])))
		b = append(b, s.Tags[i]...)
		ms := s.Poly(i).Monomials()
		b = binary.AppendUvarint(b, uint64(len(ms)))
		for _, m := range ms {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Coeff))
			b = binary.AppendUvarint(b, uint64(len(m.Vars())))
			for _, f := range m.Vars() {
				b = binary.AppendUvarint(b, uint64(f.Var))
				b = binary.AppendUvarint(b, uint64(f.Pow))
			}
		}
	}
	return b
}

// section returns the payload of the snapshot's section id, walking the
// frames after the 24-byte header.
func section(t *testing.T, snap []byte, id uint32) []byte {
	t.Helper()
	for off := 24; off+8 <= len(snap); {
		sid, n := binary.LittleEndian.Uint32(snap[off:]), int(binary.LittleEndian.Uint32(snap[off+4:]))
		if sid == id {
			return snap[off+8 : off+8+n]
		}
		off += 8 + n + 4
	}
	t.Fatalf("snapshot has no section %d", id)
	return nil
}

// TestEncodeSnapshotMatchesMapEncoder: EncodeSnapshot, which writes the
// source section from the source kernel's arrays, writes it byte for byte
// as the map-based encoder does, and the whole snapshot as it was written
// when sets held map polynomials (the digests). telco-m is left out under
// -short.
func TestEncodeSnapshotMatchesMapEncoder(t *testing.T) {
	names := []string{"telco-s", "Q5"}
	if !testing.Short() {
		names = append(names, "telco-m")
	}
	for _, name := range names {
		e := identitySession(t, name)
		var buf bytes.Buffer
		err := e.WithState(func(st *session.SnapshotState) error {
			if err := durable.EncodeSnapshot(&buf, st, 7); err != nil {
				return err
			}
			if !bytes.Equal(section(t, buf.Bytes(), 7), sourceMapOracle(st.Source)) {
				t.Errorf("%s: the source section differs from the map-based encoder's", name)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != snapshotDigests[name] {
			t.Errorf("%s: EncodeSnapshot's digest %x, recorded %s", name, sum, snapshotDigests[name])
		}
	}
}
