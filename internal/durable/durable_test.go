// Fault-injection and recovery tests for the durable layer. They live in
// package durable_test so they can drive the public API through the
// faultfs in-memory filesystem (which itself imports durable for the File
// and FS interfaces).
package durable_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/durable"
	"provabs/internal/durable/faultfs"
	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/session"
)

// fixture is the paper's running example (Example 2 plus a second
// polynomial) and the quarter tree — the same fixture the session tests
// use, so golden answers line up across packages.
func fixture(t testing.TB) (*provenance.Set, *abstree.Forest) {
	t.Helper()
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	set.Add("zip 10001", provenance.MustParse(vb,
		"220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 + "+
			"75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3"))
	set.Add("zip 10002", provenance.MustParse(vb,
		"100·p1·m1 + 50·f1·m3 + 25·y1·m1"))
	forest, err := abstree.NewForest(abstree.MustParseTree("Year(q1(m1,m3))"))
	if err != nil {
		t.Fatal(err)
	}
	return set, forest
}

// goldenBatch is a what-if batch touching every fixture variable.
func goldenBatch() []*hypo.Scenario {
	return []*hypo.Scenario{
		hypo.NewScenario().Set("p1", 0.5),
		hypo.NewScenario().Set("f1", 0).Set("m1", 2),
		hypo.NewScenario().Set("v", 3).Set("m3", 0.25),
	}
}

// mustAnswers evaluates a batch and flattens the values.
func mustAnswers(t testing.TB, e *session.Engine, scs []*hypo.Scenario) []float64 {
	t.Helper()
	rows, err := e.WhatIfBatch(scs)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for _, row := range rows {
		for _, a := range row {
			out = append(out, a.Value)
		}
	}
	return out
}

// sameBits asserts two float slices are bit-identical.
func sameBits(t testing.TB, want, got []float64, what string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d answers, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: answer %d = %v, want %v (bit-exact)", what, i, got[i], want[i])
		}
	}
}

func snapshotRoundTrip(t *testing.T, compress bool) {
	set, forest := fixture(t)
	eng, err := session.Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	if compress {
		if _, err := eng.Compress(7); err != nil {
			t.Fatal(err)
		}
	}
	want := mustAnswers(t, eng, goldenBatch())

	var buf bytes.Buffer
	if err := eng.WithState(func(st *session.SnapshotState) error {
		return durable.EncodeSnapshot(&buf, st, 17)
	}); err != nil {
		t.Fatal(err)
	}
	st, seq, err := durable.DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 17 {
		t.Fatalf("decoded lastSeq = %d, want 17", seq)
	}
	got, err := session.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, want, mustAnswers(t, got, goldenBatch()), "restored answers")
	if s := got.Stats(); s.Compiles != 1 {
		t.Fatalf("restored Compiles = %d, want 1 (no recompilation)", s.Compiles)
	}
	if s := got.Stats(); s.Compressed != compress {
		t.Fatalf("restored Compressed = %v, want %v", s.Compressed, compress)
	}

	// Adds over the existing vocabulary must behave identically on both
	// sides — including re-abstraction under the restored substitution.
	p1, err := eng.ParsePoly("7·p1·m1 + 2·v")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := got.ParsePoly("7·p1·m1 + 2·v")
	if err != nil {
		t.Fatal(err)
	}
	eng.Add("zip 10003", p1)
	got.Add("zip 10003", p2)
	sameBits(t, mustAnswers(t, eng, goldenBatch()), mustAnswers(t, got, goldenBatch()), "post-Add answers")
	if s := got.Stats(); s.Compiles != 1 {
		t.Fatalf("Compiles after Add = %d, want 1 (Append path)", s.Compiles)
	}
}

func TestSnapshotRoundTrip(t *testing.T)           { snapshotRoundTrip(t, false) }
func TestSnapshotRoundTripCompressed(t *testing.T) { snapshotRoundTrip(t, true) }

func TestDecodeSnapshotRejectsCorruption(t *testing.T) {
	set, forest := fixture(t)
	eng, err := session.Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.WithState(func(st *session.SnapshotState) error {
		return durable.EncodeSnapshot(&buf, st, 1)
	}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Every single-bit flip anywhere in the snapshot must be detected.
	for off := 0; off < len(b); off += 37 {
		mut := append([]byte(nil), b...)
		mut[off] ^= 0x10
		if _, _, err := durable.DecodeSnapshot(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at offset %d went undetected", off)
		}
	}
	// Truncations must be detected too.
	for _, n := range []int{0, 3, 24, len(b) / 2, len(b) - 1} {
		if _, _, err := durable.DecodeSnapshot(bytes.NewReader(b[:n])); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

// addPoly parses, logs+applies and waits — the durable add sequence every
// caller follows.
func addPoly(t testing.TB, ss *durable.SessionStore, eng *session.Engine, tag, src string) {
	t.Helper()
	k, err := eng.ParseKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	wait, err := ss.Add(eng, tag, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRecoverOSFS(t *testing.T) {
	root := t.TempDir()
	store, err := durable.NewStore(root, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	set, forest := fixture(t)
	eng, err := session.Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := store.Create("paper", eng)
	if err != nil {
		t.Fatal(err)
	}
	addPoly(t, ss, eng, "zip 10003", "5·p1·m3 + 1·v·m1")
	addPoly(t, ss, eng, "zip 10004", "9·newvar + 2·f1")
	want := mustAnswers(t, eng, goldenBatch())
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := durable.NewStore(root, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if names, err := store2.List(); err != nil || len(names) != 1 || names[0] != "paper" {
		t.Fatalf("List = %v, %v; want [paper]", names, err)
	}
	eng2, ss2, info, err := store2.Recover("paper")
	if err != nil {
		t.Fatal(err)
	}
	defer ss2.Close()
	if info.WALRecords != 2 || info.TornTail {
		t.Fatalf("recovery info = %+v, want 2 replayed records and no torn tail", info)
	}
	sameBits(t, want, mustAnswers(t, eng2, goldenBatch()), "recovered answers")
	if s := eng2.Stats(); s.Compiles != 1 {
		t.Fatalf("recovered Compiles = %d, want 1", s.Compiles)
	}
}

func TestRotationAndSeqSkip(t *testing.T) {
	fs := faultfs.New()
	store, err := durable.NewStore("root", durable.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	set, forest := fixture(t)
	eng, err := session.Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := store.Create("s", eng)
	if err != nil {
		t.Fatal(err)
	}
	addPoly(t, ss, eng, "a", "3·p1 + 1·v")
	if err := ss.WriteSnapshot(eng); err != nil {
		t.Fatal(err)
	}
	if size, records := ss.WALStats(); size != 0 || records != 0 {
		t.Fatalf("WAL after rotation: %d bytes, %d records; want empty", size, records)
	}
	addPoly(t, ss, eng, "b", "4·f1·m1")
	want := mustAnswers(t, eng, goldenBatch())
	ss.Close()

	eng2, ss2, info, err := store.Recover("s")
	if err != nil {
		t.Fatal(err)
	}
	defer ss2.Close()
	// Only the post-rotation add replays.
	if info.WALRecords != 1 {
		t.Fatalf("replayed %d records, want 1", info.WALRecords)
	}
	sameBits(t, want, mustAnswers(t, eng2, goldenBatch()), "recovered answers")
}

func TestTornTailTruncated(t *testing.T) {
	fs := faultfs.New()
	store, err := durable.NewStore("root", durable.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	set, forest := fixture(t)
	eng, err := session.Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := store.Create("s", eng)
	if err != nil {
		t.Fatal(err)
	}
	addPoly(t, ss, eng, "a", "3·p1 + 1·v")
	want := mustAnswers(t, eng, goldenBatch())
	ss.Close()

	walPath := "root/sessions/s/wal.log"
	for _, tail := range [][]byte{
		{0xff},                          // half a frame header
		{9, 0, 0, 0, 1, 2, 3, 4, 5},     // full header, body cut short
		make([]byte, 64),                // zero-filled preallocation debris
		{40, 0, 0, 0, 1, 2, 3, 4, 9, 9}, // header + wrong bytes, runs past EOF
	} {
		f, err := fs.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tail); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()

		var warned bool
		store2, err := durable.NewStore("root", durable.Options{FS: fs, Logf: func(string, ...any) { warned = true }})
		if err != nil {
			t.Fatal(err)
		}
		eng2, ss2, info, err := store2.Recover("s")
		if err != nil {
			t.Fatalf("tail %v: %v", tail, err)
		}
		if !info.TornTail || !warned {
			t.Fatalf("tail %v: TornTail=%v warned=%v, want both true", tail, info.TornTail, warned)
		}
		sameBits(t, want, mustAnswers(t, eng2, goldenBatch()), "recovered answers")
		ss2.Close()
		// Recovery truncated the debris: the log must scan clean now.
		if b, err := fs.ReadFile(walPath); err != nil || len(b) == 0 {
			t.Fatalf("WAL after repair: %d bytes, err %v", len(b), err)
		}
	}
}

func TestCorruptMiddleRefused(t *testing.T) {
	fs := faultfs.New()
	store, err := durable.NewStore("root", durable.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	set, forest := fixture(t)
	eng, err := session.Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := store.Create("s", eng)
	if err != nil {
		t.Fatal(err)
	}
	addPoly(t, ss, eng, "a", "3·p1 + 1·v")
	addPoly(t, ss, eng, "b", "4·f1·m1")
	addPoly(t, ss, eng, "c", "5·y1·m3")
	ss.Close()

	// Flip one payload bit in the first record: a checksum mismatch with
	// valid frames after it is corruption, not a torn tail.
	if err := fs.FlipBit("root/sessions/s/wal.log", 10, 3); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := store.Recover("s"); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("Recover over corrupt middle = %v, want ErrCorrupt", err)
	}
}

func TestGroupCommitWindow(t *testing.T) {
	fs := faultfs.New()
	store, err := durable.NewStore("root", durable.Options{FS: fs, GroupWindow: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	set, forest := fixture(t)
	eng, err := session.Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := store.Create("s", eng)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, err := eng.ParseKernel(fmt.Sprintf("%d·p1 + 1·v", i+1))
			if err != nil {
				t.Error(err)
				return
			}
			tag := fmt.Sprintf("g%d", i)
			wait, err := ss.Add(eng, tag, k)
			if err != nil {
				t.Error(err)
				return
			}
			if err := wait(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	want := mustAnswers(t, eng, goldenBatch())
	ss.Close()

	eng2, ss2, info, err := store.Recover("s")
	if err != nil {
		t.Fatal(err)
	}
	defer ss2.Close()
	if info.WALRecords != 8 {
		t.Fatalf("replayed %d records, want 8", info.WALRecords)
	}
	sameBits(t, want, mustAnswers(t, eng2, goldenBatch()), "recovered answers")
}

// sweepWorkload runs the deterministic durable workload against fs:
// create a session from the fixture, then eight durable adds with a
// snapshot rotation in the middle. It returns the tags acknowledged as
// durable before the first injected fault stopped it.
func sweepWorkload(t testing.TB, fs *faultfs.FS) (acked []string) {
	set, forest := fixture(t)
	eng, err := session.Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	store, err := durable.NewStore("root", durable.Options{FS: fs})
	if err != nil {
		return nil
	}
	ss, err := store.Create("s", eng)
	if err != nil {
		return nil
	}
	defer ss.Close()
	for i := 0; i < 8; i++ {
		src := fmt.Sprintf("%d·p1·m1 + %d·w%d", i+1, i+2, i)
		k, err := eng.ParseKernel(src)
		if err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("t%d", i)
		wait, err := ss.Add(eng, tag, k)
		if err != nil {
			return acked
		}
		if err := wait(); err != nil {
			return acked
		}
		acked = append(acked, tag)
		if i == 4 {
			if err := ss.WriteSnapshot(eng); err != nil {
				return acked
			}
		}
	}
	return acked
}

// TestCrashSweep crashes the workload at every mutating filesystem
// operation in turn and asserts the durability contract after each:
// recovery succeeds (or finds nothing, if the crash predates the first
// durable byte), every acknowledged add survives with bit-identical
// answers, and nothing is applied twice.
func TestCrashSweep(t *testing.T) {
	// First pass, no faults: count the workload's operations.
	clean := faultfs.New()
	if acked := sweepWorkload(t, clean); len(acked) != 8 {
		t.Fatalf("clean workload acked %d adds, want 8", len(acked))
	}
	total := clean.Ops()

	for k := int64(0); k <= total; k++ {
		fs := faultfs.New()
		fs.StopAfter(k)
		acked := sweepWorkload(t, fs)
		fs.Crash()

		store, err := durable.NewStore("root", durable.Options{FS: fs})
		if err != nil {
			t.Fatalf("k=%d: reopen store: %v", k, err)
		}
		eng, ss, _, err := store.Recover("s")
		if err != nil {
			t.Fatalf("k=%d (acked %d): recovery failed: %v", k, len(acked), err)
		}

		// Rebuild the reference engine: fixture + every add the recovered
		// session contains (acked plus possibly a durable-but-unacked tail;
		// never a hole, never a duplicate).
		var tags []string
		if err := eng.WithState(func(st *session.SnapshotState) error {
			tags = append(tags, st.Source.Tags...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(tags) < 2 {
			// The crash predates the initial snapshot: the session was never
			// durable, so nothing may have been acknowledged.
			if len(acked) != 0 {
				t.Fatalf("k=%d: %d acked adds but no durable session", k, len(acked))
			}
			ss.Close()
			continue
		}
		if len(tags) < 2+len(acked) {
			t.Fatalf("k=%d: recovered %d polynomials, acked fixture+%d", k, len(tags), len(acked))
		}
		refSet, refForest := fixture(t)
		ref, err := session.Open(refSet, refForest)
		if err != nil {
			t.Fatal(err)
		}
		for i, tag := range tags[2:] {
			if want := fmt.Sprintf("t%d", i); tag != want {
				t.Fatalf("k=%d: recovered add %d has tag %q, want %q (no holes, no dups)", k, i, tag, want)
			}
			p, err := ref.ParsePoly(fmt.Sprintf("%d·p1·m1 + %d·w%d", i+1, i+2, i))
			if err != nil {
				t.Fatal(err)
			}
			ref.Add(tag, p)
		}
		sameBits(t, mustAnswers(t, ref, goldenBatch()), mustAnswers(t, eng, goldenBatch()),
			fmt.Sprintf("k=%d recovered answers", k))
		if s := eng.Stats(); s.Compiles != 1 {
			t.Fatalf("k=%d: recovered Compiles = %d, want 1", k, s.Compiles)
		}
		ss.Close()
	}
}

// TestRecoverAfterKill is the in-package cousin of the cmd-level crash
// test: it exercises Recover against a directory produced by a real OS
// file layout rather than faultfs.
func TestRecoverSurvivesReopenCycles(t *testing.T) {
	root := t.TempDir()
	set, forest := fixture(t)
	eng, err := session.Open(set, forest)
	if err != nil {
		t.Fatal(err)
	}
	store, err := durable.NewStore(root, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := store.Create("s", eng)
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 4; cycle++ {
		addPoly(t, ss, eng, fmt.Sprintf("c%d", cycle), fmt.Sprintf("%d·p1 + 2·v·m1", cycle+1))
		want := mustAnswers(t, eng, goldenBatch())
		ss.Close()

		store, err = durable.NewStore(root, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng, ss, _, err = store.Recover("s")
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		sameBits(t, want, mustAnswers(t, eng, goldenBatch()), fmt.Sprintf("cycle %d", cycle))
	}
	if _, err := os.Stat(filepath.Join(root, "sessions", "s", "snapshot.pvsn")); err != nil {
		t.Fatalf("snapshot missing after cycles: %v", err)
	}
	ss.Close()
}
