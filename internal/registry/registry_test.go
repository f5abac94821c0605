package registry

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"provabs/internal/abstree"
	"provabs/internal/hypo"
	"provabs/internal/provenance"
)

// testSet builds a small provenance set whose variables (m1, m3, q1 after
// compression) match the Year(q1(m1,m3)) tree used throughout the tests.
func testSet(tag string) *provenance.Set {
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	set.Add(tag, provenance.MustParse(vb,
		"220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3"))
	return set
}

func testForest(t *testing.T) *abstree.Forest {
	t.Helper()
	forest, err := abstree.NewForest(abstree.MustParseTree("Year(q1(m1,m3))"))
	if err != nil {
		t.Fatal(err)
	}
	return forest
}

func TestLifecycle(t *testing.T) {
	reg := New()
	a, err := reg.Create("a", testSet("pa"), testForest(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("b", testSet("pb"), nil); err != nil {
		t.Fatal(err)
	}

	// Duplicate names are rejected and leave the original untouched.
	if _, err := reg.Create("a", testSet("pa2"), nil); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Create: %v, want ErrExists", err)
	}
	got, err := reg.Get("a")
	if err != nil || got != a {
		t.Errorf("Get after duplicate Create = %v, %v, want the original", got, err)
	}

	// List is name-sorted.
	list := reg.List()
	if len(list) != 2 || list[0].Name() != "a" || list[1].Name() != "b" {
		t.Errorf("List = %v, want [a b]", list)
	}
	if reg.Len() != 2 {
		t.Errorf("Len = %d, want 2", reg.Len())
	}

	// Close cancels the session context and unregisters the name.
	if a.Closed() {
		t.Error("session a closed before Close")
	}
	if err := reg.Close("a"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-a.Done():
	default:
		t.Error("Close did not cancel the session context")
	}
	if !a.Closed() {
		t.Error("Closed() = false after Close")
	}
	if _, err := reg.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Close: %v, want ErrNotFound", err)
	}
	if err := reg.Close("a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Close: %v, want ErrNotFound", err)
	}

	reg.CloseAll()
	if reg.Len() != 0 {
		t.Errorf("CloseAll left %d sessions", reg.Len())
	}
}

func TestCreateRejectsBadInputs(t *testing.T) {
	reg := New()
	for _, name := range []string{"", "a/b", "a b", "a?b", "a#b", "a%b"} {
		if _, err := reg.Create(name, testSet("p"), nil); err == nil {
			t.Errorf("Create(%q) succeeded, want name error", name)
		}
	}
	// A nil set fails in session.Open and must not occupy the name.
	if _, err := reg.Create("x", nil, nil); err == nil {
		t.Error("Create with nil set succeeded")
	}
	if _, err := reg.Get("x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("failed Create occupied the name: %v", err)
	}
}

func TestStatsAggregation(t *testing.T) {
	reg := New()
	a, err := reg.Create("a", testSet("pa"), testForest(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Create("b", testSet("pb"), nil)
	if err != nil {
		t.Fatal(err)
	}
	whatif := func(s *Session, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			sc := hypo.NewScenario().Set("m1", 0.5)
			if _, err := s.Engine().WhatIf(sc); err != nil {
				t.Fatal(err)
			}
		}
	}
	whatif(a, 3)
	whatif(b, 2)

	agg := reg.Stats()
	if agg.Sessions != 2 {
		t.Errorf("Sessions = %d, want 2", agg.Sessions)
	}
	if len(agg.PerSession) != 2 {
		t.Fatalf("PerSession has %d entries, want 2", len(agg.PerSession))
	}
	if got := agg.PerSession["a"].Scenarios; got != 3 {
		t.Errorf("a scenarios = %d, want 3", got)
	}
	if got := agg.Totals.Scenarios; got != 5 {
		t.Errorf("total scenarios = %d, want 5", got)
	}
	if got := agg.Totals.Compiles; got != 2 {
		t.Errorf("total compiles = %d, want 2 (one per session)", got)
	}
	if got := agg.Totals.DeltaEvals + agg.Totals.FullEvals; got != 5 {
		t.Errorf("delta+full = %d, want 5", got)
	}
}

// TestConcurrentLifecycle hammers Create/WhatIfBatch/Close across session
// names from many goroutines; run under -race it pins the registry's
// concurrency safety.
func TestConcurrentLifecycle(t *testing.T) {
	reg := New()
	const names = 4
	const rounds = 15
	var wg sync.WaitGroup
	for g := 0; g < names; g++ {
		name := fmt.Sprintf("s%d", g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s, err := reg.Create(name, testSet(name), nil)
				if err != nil {
					t.Errorf("Create %s: %v", name, err)
					return
				}
				scs := []*hypo.Scenario{
					hypo.NewScenario().Set("m1", 0.5),
					hypo.NewScenario().Set("m3", 1.5),
				}
				if _, err := s.Engine().WhatIfBatch(scs); err != nil {
					t.Errorf("WhatIfBatch %s: %v", name, err)
					return
				}
				if err := reg.Close(name); err != nil {
					t.Errorf("Close %s: %v", name, err)
					return
				}
			}
		}()
		// A reader goroutine races Get/List/Stats against the lifecycle.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if s, err := reg.Get(name); err == nil {
					_ = s.Engine().Stats()
				}
				_ = reg.List()
				_ = reg.Stats()
			}
		}()
	}
	wg.Wait()
	if reg.Len() != 0 {
		t.Errorf("registry not empty after all lifecycles: %d", reg.Len())
	}
}
