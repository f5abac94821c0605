package provenance

import (
	"sync"
	"testing"
)

// TestCompiledCache pins the Set-level compiled cache: Compiled returns the
// same snapshot until a mutation, Add extends that snapshot in place (the
// incremental-compile path — the pointer survives), and explicit
// invalidation still forces a rebuild.
func TestCompiledCache(t *testing.T) {
	vb := NewVocab()
	s := NewSet(vb)
	s.Add("a", MustParse(vb, "2·x + 3·y"))

	c1 := s.Compiled()
	if c2 := s.Compiled(); c2 != c1 {
		t.Fatal("Compiled rebuilt without a mutation")
	}
	if got := c1.Size(); got != 2 {
		t.Fatalf("compiled size = %d, want 2", got)
	}

	s.Add("b", MustParse(vb, "5·x"))
	c3 := s.Compiled()
	if c3 != c1 {
		t.Fatal("Add rebuilt the compiled form instead of appending in place")
	}
	if got := c3.Size(); got != 3 {
		t.Fatalf("compiled size after Add = %d, want 3", got)
	}
	if got := c3.Len(); got != 2 {
		t.Fatalf("compiled polynomials after Add = %d, want 2", got)
	}
	if got := c3.Eval(c3.NewValuation(), nil); len(got) != 2 || got[1] != 5 {
		t.Fatalf("appended polynomial evaluates to %v, want [.., 5]", got)
	}

	// A polynomial outside the built index's vocabulary falls back to the
	// full rebuild: build the index first, then add a fresh variable.
	c3.NewDeltaEval()
	s.Add("c", MustParse(vb, "7·zz"))
	c4 := s.Compiled()
	if c4 == c3 {
		t.Fatal("Add past the index vocabulary did not fall back to a rebuild")
	}
	if got := c4.Len(); got != 3 {
		t.Fatalf("compiled polynomials after fallback = %d, want 3", got)
	}

	// Explicit invalidation, for in-place mutations Add cannot see.
	s.InvalidateCompiled()
	if c5 := s.Compiled(); c5 == c4 {
		t.Fatal("Compiled not invalidated by InvalidateCompiled")
	}
}

// TestCompiledCacheNotShared checks the derived-set boundary: Substitute
// and Clone results compile independently of their source.
func TestCompiledCacheNotShared(t *testing.T) {
	vb := NewVocab()
	s := NewSet(vb)
	s.Add("a", MustParse(vb, "2·x + 3·y"))
	c := s.Compiled()

	sub := s.Substitute(map[Var]Var{vb.Var("x"): vb.Var("z")})
	if sub.Compiled() == c {
		t.Fatal("substituted set shares the source's compiled cache")
	}
	if s.Compiled() != c {
		t.Fatal("Substitute invalidated the source's cache")
	}
	if clone := s.Clone(); clone.Compiled() == c {
		t.Fatal("cloned set shares the source's compiled cache")
	}
}

// TestCompiledConcurrent exercises the cache under concurrent readers (the
// Engine's evaluation paths share it behind a read lock).
func TestCompiledConcurrent(t *testing.T) {
	vb := NewVocab()
	s := NewSet(vb)
	s.Add("a", MustParse(vb, "2·x + 3·y"))
	var wg sync.WaitGroup
	got := make([]*Compiled, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = s.Compiled()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent Compiled calls observed different snapshots")
		}
	}
}

// TestVarCountMemo pins the variable-count memo beside the compiled cache:
// built on first use, extended by Add, dropped by InvalidateCompiled.
func TestVarCountMemo(t *testing.T) {
	vb := NewVocab()
	s := NewSet(vb)
	s.Add("a", MustParse(vb, "2·x·y + 3·y"))
	if got := s.VarCount(); got != 2 {
		t.Fatalf("VarCount = %d, want 2", got)
	}
	s.Add("b", MustParse(vb, "5·x + z^2"))
	if got, want := s.VarCount(), s.Granularity(); got != 3 || got != want {
		t.Fatalf("VarCount after an Add with a new variable = %d, want 3 (Granularity %d)", got, want)
	}
	s.Add("c", MustParse(vb, "x·z"))
	if got := s.VarCount(); got != 3 {
		t.Fatalf("VarCount after an Add of known variables = %d, want 3", got)
	}
	// An in-place mutation is invisible until InvalidateCompiled.
	s.Polys[0].AddTerm(1, vb.Var("w"))
	s.InvalidateCompiled()
	if got := s.VarCount(); got != 4 {
		t.Fatalf("VarCount after InvalidateCompiled = %d, want 4", got)
	}
	if got := NewSet(nil).VarCount(); got != 0 {
		t.Fatalf("VarCount of an empty set = %d, want 0", got)
	}
}
