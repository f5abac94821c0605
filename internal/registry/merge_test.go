package registry

import (
	"bytes"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"provabs/internal/durable"
	"provabs/internal/session"
)

// TestAggregateStatsMerge pins the documented pool-merge contract: the
// per-session map is the source of truth, a session reported by two
// backends (the export→delete window of a live migration) counts once
// with the further-along copy winning, and the totals are re-derived from
// the merged map so nothing is double-counted.
func TestAggregateStatsMerge(t *testing.T) {
	a := AggregateStats{
		Sessions: 2,
		PerSession: map[string]session.Stats{
			"alpha":  {Scenarios: 10, Queries: 3, Added: 2},
			"shared": {Scenarios: 5, Queries: 1},
		},
		Recoveries: 1,
		WALRecords: 7,
		Dormant:    []string{"cold-a", "cold-shared"},
	}
	b := AggregateStats{
		Sessions: 2,
		PerSession: map[string]session.Stats{
			"beta": {Scenarios: 4, Batches: 2},
			// The migrated copy: further along than a's view of it.
			"shared": {Scenarios: 9, Queries: 2},
		},
		Recoveries: 2,
		WALRecords: 11,
		Dormant:    []string{"cold-b", "cold-shared"},
	}
	a.Merge(b)

	if a.Sessions != 3 {
		t.Errorf("Sessions = %d, want 3 (shared counted once)", a.Sessions)
	}
	if got := a.PerSession["shared"].Scenarios; got != 9 {
		t.Errorf("shared.Scenarios = %d, want 9 (further-along copy wins)", got)
	}

	// Totals must equal the accumulation of the deduplicated map — nothing
	// more (no double-count of shared), nothing less.
	var want session.Stats
	for _, st := range a.PerSession {
		want.Accumulate(st)
	}
	if a.Totals.Scenarios != want.Scenarios || a.Totals.Queries != want.Queries ||
		a.Totals.Batches != want.Batches || a.Totals.Added != want.Added {
		t.Errorf("Totals = %+v, want re-derived %+v", a.Totals, want)
	}
	if a.Totals.Scenarios != 10+4+9 {
		t.Errorf("Totals.Scenarios = %d, want 23 (10 + 4 + 9, shared once)", a.Totals.Scenarios)
	}

	if a.Recoveries != 3 || a.WALRecords != 18 {
		t.Errorf("counters = (%d, %d), want summed (3, 18)", a.Recoveries, a.WALRecords)
	}
	wantDormant := []string{"cold-a", "cold-b", "cold-shared"}
	if len(a.Dormant) != len(wantDormant) {
		t.Fatalf("Dormant = %v, want deduplicated sorted %v", a.Dormant, wantDormant)
	}
	for i := range wantDormant {
		if a.Dormant[i] != wantDormant[i] {
			t.Fatalf("Dormant = %v, want %v", a.Dormant, wantDormant)
		}
	}
}

// TestMergeIntoZero checks merging into a zero value (the pool
// aggregation loop's starting state) just takes the payload.
func TestMergeIntoZero(t *testing.T) {
	var agg AggregateStats
	agg.Merge(AggregateStats{
		Sessions:   1,
		PerSession: map[string]session.Stats{"only": {Scenarios: 2}},
	})
	if agg.Sessions != 1 || agg.Totals.Scenarios != 2 || agg.PerSession["only"].Scenarios != 2 {
		t.Fatalf("merge into zero = %+v", agg)
	}
}

// TestExportWhileAdding races Session.Export against a stream of tagged
// adds on the same session and demands a consistent snapshot: the export
// must capture an exact prefix of the add sequence — every add
// acknowledged before the export began is in it (acked ⊆ exported), no
// add is half-applied, and nothing past the cut leaks in. The restored
// copy must answer bit-identically to a reference engine fed the same
// prefix.
func TestExportWhileAdding(t *testing.T) {
	reg := New()
	sess, err := reg.Create("live", testSet("pa"), testForest(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Engine().Compress(4); err != nil {
		t.Fatal(err)
	}

	// polySrc makes add i's polynomial: distinct coefficients so any
	// missing, duplicated, or reordered add changes the answers.
	polySrc := func(i int) string { return fmt.Sprintf("%d·p1·m1 + %d·f1·m3", i+2, 2*i+3) }

	const total = 300
	var acked atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			if err := sess.AddText(fmt.Sprintf("add-%d", i), polySrc(i)); err != nil {
				t.Errorf("add %d: %v", i, err)
				return
			}
			acked.Store(int64(i + 1))
		}
	}()

	// Export twice mid-stream — once early, once late — plus once after the
	// writer finishes (the quiesced case a live migration actually uses).
	type capture struct {
		ackedBefore int64
		buf         bytes.Buffer
	}
	var captures []*capture
	for _, threshold := range []int64{total / 4, total * 3 / 4} {
		for acked.Load() < threshold {
			time.Sleep(time.Millisecond)
		}
		c := &capture{ackedBefore: acked.Load()}
		if err := sess.Export(&c.buf); err != nil {
			t.Fatal(err)
		}
		captures = append(captures, c)
	}
	<-done
	final := &capture{ackedBefore: total}
	if err := sess.Export(&final.buf); err != nil {
		t.Fatal(err)
	}
	captures = append(captures, final)

	for ci, c := range captures {
		st, _, err := durable.DecodeSnapshot(bytes.NewReader(c.buf.Bytes()))
		if err != nil {
			t.Fatalf("capture %d: decode: %v", ci, err)
		}
		eng, err := session.Restore(st)
		if err != nil {
			t.Fatalf("capture %d: restore: %v", ci, err)
		}
		k := eng.Stats().Polynomials - 1 // minus the base testSet polynomial
		if int64(k) < c.ackedBefore {
			t.Fatalf("capture %d: snapshot holds %d adds, but %d were acked before the export began", ci, k, c.ackedBefore)
		}
		if k > total {
			t.Fatalf("capture %d: snapshot holds %d adds, more than the %d ever made", ci, k, total)
		}

		// The restored copy must answer exactly like a reference engine fed
		// the same k-add prefix — a torn or reordered capture shows up as a
		// bit-level mismatch.
		ref, err := reg.Create(fmt.Sprintf("ref-%d", ci), testSet("pa"), testForest(t))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Engine().Compress(4); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if err := ref.AddText(fmt.Sprintf("add-%d", i), polySrc(i)); err != nil {
				t.Fatal(err)
			}
		}
		imp, err := reg.Adopt(fmt.Sprintf("imported-%d", ci), eng)
		if err != nil {
			t.Fatal(err)
		}
		got, want := answers(t, imp), answers(t, ref)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("capture %d (k=%d): answer %d = %v, want %v — snapshot is not a consistent prefix",
					ci, k, i, got[i], want[i])
			}
		}
		if s := imp.Engine().Stats(); s.Compiles != 1 {
			t.Fatalf("capture %d: imported Compiles = %d, want 1 (snapshot carries the compiled form)", ci, s.Compiles)
		}
	}
}
