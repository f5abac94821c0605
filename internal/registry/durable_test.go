package registry

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"provabs/internal/durable"
	"provabs/internal/durable/faultfs"
	"provabs/internal/hypo"
	"provabs/internal/session"
)

// durableReg returns a registry persisting into root.
func durableReg(t *testing.T, root string) *Registry {
	t.Helper()
	reg := New()
	if err := reg.EnableDurability(root, durable.Options{}); err != nil {
		t.Fatal(err)
	}
	return reg
}

func answers(t *testing.T, s *Session) []float64 {
	t.Helper()
	rows, err := s.Engine().WhatIfBatch([]*hypo.Scenario{
		hypo.NewScenario().Set("p1", 0.5),
		hypo.NewScenario().Set("f1", 2).Set("m1", 0),
	})
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

func TestWarmRestartLazyRecovery(t *testing.T) {
	root := t.TempDir()
	reg := durableReg(t, root)

	a, err := reg.Create("alpha", testSet("pa"), testForest(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("beta", testSet("pb"), nil); err != nil {
		t.Fatal(err)
	}
	if err := a.AddText("added", "3·p1·m1 + 5·extra"); err != nil {
		t.Fatal(err)
	}
	want := answers(t, a)
	if err := reg.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh registry over the same root. Both sessions are
	// dormant; nothing is recovered until touched.
	reg2 := durableReg(t, root)
	if got := reg2.DormantNames(); len(got) != 2 {
		t.Fatalf("DormantNames = %v, want [alpha beta]", got)
	}
	if st := reg2.Stats(); st.Recoveries != 0 || st.Sessions != 0 || len(st.Dormant) != 2 {
		t.Fatalf("pre-touch stats = %+v", st)
	}
	s, err := reg2.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	got := answers(t, s)
	if len(got) != len(want) {
		t.Fatalf("recovered %d answers, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("answer %d = %v, want %v (bit-exact)", i, got[i], want[i])
		}
	}
	if st := s.Engine().Stats(); st.Compiles != 1 {
		t.Fatalf("recovered Compiles = %d, want 1", st.Compiles)
	}
	st := reg2.Stats()
	if st.Recoveries != 1 || st.Sessions != 1 || len(st.Dormant) != 1 || st.Dormant[0] != "beta" {
		t.Fatalf("post-touch stats = %+v, want 1 recovery, beta still dormant", st)
	}
	// Clean shutdown rotated the WAL into the snapshot: recovery replayed
	// zero records.
	if st.WALRecords != 0 {
		t.Fatalf("replayed %d WAL records after clean shutdown, want 0", st.WALRecords)
	}

	// A dormant name conflicts with Create like a live one.
	if _, err := reg2.Create("beta", testSet("pb2"), nil); !errors.Is(err, ErrExists) {
		t.Fatalf("Create over dormant = %v, want ErrExists", err)
	}
}

func TestUncleanRestartReplaysWAL(t *testing.T) {
	root := t.TempDir()
	reg := durableReg(t, root)
	a, err := reg.Create("s", testSet("pa"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddText("w1", "2·p1 + 1·f1"); err != nil {
		t.Fatal(err)
	}
	if err := a.AddText("w2", "4·m1·m3"); err != nil {
		t.Fatal(err)
	}
	want := answers(t, a)
	// No Shutdown: the process "dies" with the WAL un-rotated.

	reg2 := durableReg(t, root)
	s, err := reg2.Get("s")
	if err != nil {
		t.Fatal(err)
	}
	got := answers(t, s)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("answer %d = %v, want %v", i, got[i], want[i])
		}
	}
	if st := reg2.Stats(); st.WALRecords < 2 {
		t.Fatalf("replayed %d WAL records, want >= 2 (adds were not rotated)", st.WALRecords)
	}
}

// TestOverflowingAddRecovers: an add whose repeated variable's exponents
// sum past 2^31−1 is refused, and the session it was sent to recovers
// after an unclean and after a clean restart. Parse used to ack
// 2·p1^(2^31−1)·p1^(2^31−1) as 2·p1^−2, which WAL replay then refused
// ("exponent 18446744073709551614 out of range"), and so did the next
// snapshot's restore ("non-positive exponent -2"): neither restart
// recovered the session.
func TestOverflowingAddRecovers(t *testing.T) {
	root := t.TempDir()
	reg := durableReg(t, root)
	a, err := reg.Create("s", testSet("pa"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddText("ok", "2·p1 + 1·f1"); err != nil {
		t.Fatal(err)
	}
	if err := a.AddText("wrap", "2*p1^2147483647*p1^2147483647"); err == nil {
		t.Fatal("an add whose exponent sum wraps an int32 was acked")
	}
	want := answers(t, a)
	same := func(when string, s *Session) {
		t.Helper()
		got := answers(t, s)
		if len(got) != len(want) {
			t.Fatalf("%s: %d answers, want %d", when, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: answer %d = %v, want %v", when, i, got[i], want[i])
			}
		}
	}

	// No Shutdown: the WAL replays.
	reg2 := durableReg(t, root)
	s, err := reg2.Get("s")
	if err != nil {
		t.Fatalf("unclean restart: %v", err)
	}
	same("unclean restart", s)
	// Shutdown rotates the WAL into a snapshot, which the next start reads.
	if err := reg2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	s, err = durableReg(t, root).Get("s")
	if err != nil {
		t.Fatalf("clean restart: %v", err)
	}
	same("clean restart", s)
}

func TestCloseDropsDurableState(t *testing.T) {
	root := t.TempDir()
	reg := durableReg(t, root)
	if _, err := reg.Create("gone", testSet("pa"), nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "sessions", "gone")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("durable state survived Close: %v", err)
	}
	// Deleting a dormant session works without recovering it.
	if _, err := reg.Create("gone2", testSet("pb"), nil); err != nil {
		t.Fatal(err)
	}
	reg.Shutdown()
	reg2 := durableReg(t, root)
	if err := reg2.Close("gone2"); err != nil {
		t.Fatal(err)
	}
	if got := reg2.DormantNames(); len(got) != 0 {
		t.Fatalf("DormantNames after dormant delete = %v", got)
	}
}

func TestExportAdoptRoundTrip(t *testing.T) {
	reg := New() // export works without durability
	a, err := reg.Create("orig", testSet("pa"), testForest(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Engine().Compress(4); err != nil {
		t.Fatal(err)
	}
	want := answers(t, a)

	var buf bytes.Buffer
	if err := a.Export(&buf); err != nil {
		t.Fatal(err)
	}
	st, _, err := durable.DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := session.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := reg.Adopt("imported", eng)
	if err != nil {
		t.Fatal(err)
	}
	got := answers(t, imp)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("imported answer %d = %v, want %v", i, got[i], want[i])
		}
	}
	if s := imp.Engine().Stats(); s.Compiles != 1 || !s.Compressed {
		t.Fatalf("imported stats = %+v, want Compiles 1 and Compressed", s)
	}
}

// TestSnapshotDuringConcurrentAddsLosesNothing pins the {log, apply}
// atomicity invariant: snapshot rotations racing with concurrent adds
// (explicit Checkpoints plus RotateIfNeeded tripping every few records)
// must never capture a sequence number whose add is missing from the
// captured engine state — recovery after an unclean stop answers exactly
// like the live session did.
func TestSnapshotDuringConcurrentAddsLosesNothing(t *testing.T) {
	root := t.TempDir()
	reg := New()
	if err := reg.EnableDurability(root, durable.Options{RotateRecords: 4}); err != nil {
		t.Fatal(err)
	}
	s, err := reg.Create("s", testSet("pa"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				src := fmt.Sprintf("2·p1 + %d·g%dx%d", i+1, g, i)
				if err := s.AddText(fmt.Sprintf("g%d-%d", g, i), src); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	var cp sync.WaitGroup
	cp.Add(1)
	go func() {
		defer cp.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := s.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	cp.Wait()
	if t.Failed() {
		t.FailNow()
	}
	want := answers(t, s)

	// Unclean stop: no Shutdown, so whatever the last rotation left on
	// disk (snapshot + WAL tail) is what recovery gets.
	reg.CloseAll()
	reg2 := durableReg(t, root)
	s2, err := reg2.Get("s")
	if err != nil {
		t.Fatal(err)
	}
	got := answers(t, s2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d answers, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("answer %d = %v, want %v (an acknowledged add was lost)", i, got[i], want[i])
		}
	}
}

// TestPersistenceFailureFailsSessionWrites pins the failure discipline: a
// WAL write/fsync error marks the session write-failed — further adds and
// checkpoints refuse with a sticky error even if the disk "heals", and
// reads keep serving the pre-failure state.
func TestPersistenceFailureFailsSessionWrites(t *testing.T) {
	fs := faultfs.New()
	reg := New()
	if err := reg.EnableDurability("root", durable.Options{FS: fs}); err != nil {
		t.Fatal(err)
	}
	s, err := reg.Create("s", testSet("pa"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddText("ok", "2·p1 + 1·f1"); err != nil {
		t.Fatal(err)
	}
	pre := answers(t, s)

	fs.StopAfter(0) // the disk dies: every further mutating op fails
	if err := s.AddText("lost", "3·m1"); err == nil {
		t.Fatal("Add over a dead disk succeeded")
	}
	if s.PersistErr() == nil {
		t.Fatal("PersistErr = nil after a failed add")
	}
	fs.StopAfter(-1) // the disk heals — the failure must stay sticky
	if err := s.AddText("after", "1·p1"); err == nil {
		t.Fatal("Add after persistence failure succeeded, want sticky refusal")
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint after persistence failure succeeded, want sticky refusal")
	}
	got := answers(t, s)
	for i := range pre {
		if math.Float64bits(got[i]) != math.Float64bits(pre[i]) {
			t.Fatalf("read answer %d changed after failed add: %v, want %v", i, got[i], pre[i])
		}
	}
}

func TestValidateNameRejectsPathSeparators(t *testing.T) {
	reg := New()
	for _, bad := range []string{`\`, `..\..`, `a\b`, "a/b"} {
		if _, err := reg.Create(bad, testSet("p"), nil); err == nil {
			t.Fatalf("Create(%q) succeeded, want error", bad)
		}
	}
}

func TestValidateNameRejectsDots(t *testing.T) {
	reg := New()
	for _, bad := range []string{".", "..", ".hidden"} {
		if _, err := reg.Create(bad, testSet("p"), nil); err == nil {
			t.Fatalf("Create(%q) succeeded, want error", bad)
		}
	}
}
