package provenance

import (
	"sync"
	"testing"
)

// TestCompiledCache pins the set's kernel: Compiled returns the same
// kernel however often it is asked, and Add extends that kernel in place —
// the pointer survives — also when the new polynomial brings a variable
// past the built inverted index, which Append patches.
func TestCompiledCache(t *testing.T) {
	vb := NewVocab()
	s := NewSet(vb)
	s.Add("a", MustParse(vb, "2·x + 3·y"))

	c1 := s.Compiled()
	if c2 := s.Compiled(); c2 != c1 {
		t.Fatal("Compiled returned another kernel without a mutation")
	}
	if got := c1.Size(); got != 2 {
		t.Fatalf("compiled size = %d, want 2", got)
	}

	s.Add("b", MustParse(vb, "5·x"))
	c3 := s.Compiled()
	if c3 != c1 {
		t.Fatal("Add replaced the kernel instead of appending in place")
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

	// A polynomial outside the built index's vocabulary is appended too.
	c3.NewDeltaEval()
	s.Add("c", MustParse(vb, "7·zz"))
	if c4 := s.Compiled(); c4 != c3 || c4.Len() != 3 {
		t.Fatalf("Add past the index vocabulary: same kernel %v, %d polynomials", c4 == c3, c4.Len())
	}
	val := c3.NewValuation()
	val[vb.Var("zz")] = 2
	if got := c3.EvalDelta([]Var{vb.Var("zz")}, val, nil); got[2] != 14 {
		t.Fatalf("delta answer of the appended polynomial = %v, want 14", got[2])
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

// TestVarCountMemo pins the variable marks beside the kernel: counted as
// the set is built, extended by Add, copied by Clone.
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
	if got := s.Clone().VarCount(); got != 3 {
		t.Fatalf("VarCount of a clone = %d, want 3", got)
	}
	if got := NewSet(nil).VarCount(); got != 0 {
		t.Fatalf("VarCount of an empty set = %d, want 0", got)
	}
}
