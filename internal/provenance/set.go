package provenance

import "sync"

// Set is a multiset of polynomials — "all polynomials that appear in the
// provenance-aware result of query evaluation" (§2.1). The paper's size
// measures lift point-wise: |P|_M sums monomial counts, V(P) unions variable
// sets.
//
// Each polynomial is typically tagged with the output tuple (group) it
// annotates; tags are carried for presentation and scenario reporting but do
// not affect the algorithms.
//
// A Set memoizes its compiled form: Compiled returns a cached *Compiled,
// and Add extends that cache in place (Compiled.Append) instead of
// discarding it, so the session Engine's evaluate-many workload never
// re-compiles across Adds — the cached pointer, its inverted indexes and
// its baseline vector all survive. Only when an added polynomial's
// variables outgrow the built index's vocabulary does Add fall back to
// invalidation and a full rebuild.
//
// The cache is more than an evaluation aid: the compatibility check
// (abstree.Forest.CompatibleWith), forest cleaning and compression all
// read the compiled arrays and the VarCount memo rather than the maps, and
// a set from DecodeBytes or from a compression (SetBuilder) arrives with
// both already built. Callers that mutate Polys or the polynomials in
// place must therefore call InvalidateCompiled themselves, before the set
// is evaluated, checked or compressed again.
type Set struct {
	Vocab *Vocab
	Polys []*Polynomial
	Tags  []string // Tags[i] labels Polys[i]; may be empty

	compiledMu sync.Mutex
	compiled   *Compiled
	varMarks   []bool // varMarks[v] when v occurs in a polynomial; nil until VarCount builds it
	varCount   int    // the number of marks set
}

// NewSet returns an empty set over the given vocabulary.
func NewSet(vb *Vocab) *Set {
	if vb == nil {
		vb = NewVocab()
	}
	return &Set{Vocab: vb}
}

// Add appends a polynomial with an optional tag. An already-built compiled
// cache is extended in place in O(new terms) rather than invalidated; when
// the polynomial introduces variables beyond the capacity of the compiled
// form's inverted index, Add falls back to invalidation and the next
// Compiled call rebuilds in full. Like all Set mutation, Add must not run
// concurrently with evaluation.
func (s *Set) Add(tag string, p *Polynomial) {
	s.Polys = append(s.Polys, p)
	s.Tags = append(s.Tags, tag)
	s.compiledMu.Lock()
	if s.compiled != nil && !s.compiled.Append([]*Polynomial{p}, []string{tag}) {
		s.compiled = nil
	}
	if s.varMarks != nil {
		var added int
		s.varMarks, _, added = p.markVars(s.varMarks, nil)
		s.varCount += added
	}
	s.compiledMu.Unlock()
}

// Compiled returns the set compiled for evaluation, building it on first
// use and caching it across mutations: Add extends the cached form in
// place, so the pointer held by a long-lived session stays valid (and keeps
// growing) instead of being replaced. A set that DecodeBytes or a
// SetBuilder made holds its kernel from the start. The compatibility check
// and compression read this cache too, so a set built in code compiles
// here once, at its first check, and evaluation reuses that compile.
// Callers that need a frozen snapshot should call Compile instead.
// Compiled is safe for concurrent use with itself (but, like the rest of
// Set, not with concurrent mutation).
func (s *Set) Compiled() *Compiled {
	s.compiledMu.Lock()
	defer s.compiledMu.Unlock()
	if s.compiled == nil {
		s.compiled = s.Compile()
	}
	return s.compiled
}

// InvalidateCompiled drops the cached compiled form and the VarCount memo;
// the next call of either rebuilds it. Add keeps both current itself — this
// exists for callers that mutate Polys, Tags, or the polynomials themselves
// in place.
func (s *Set) InvalidateCompiled() {
	s.compiledMu.Lock()
	s.compiled = nil
	s.varMarks, s.varCount = nil, 0
	s.compiledMu.Unlock()
}

// VarCount returns |P|_V, the count Granularity walks every key for, from a
// memo kept beside the compiled cache: built on first use under the same
// lock, extended by Add, dropped by InvalidateCompiled. DecodeBytes fills
// it while it reads a set Encode wrote, and a SetBuilder while it builds.
// Like the compiled cache, it goes stale when Polys or a polynomial is
// mutated in place without InvalidateCompiled. Safe for concurrent use
// with itself.
func (s *Set) VarCount() int {
	s.compiledMu.Lock()
	defer s.compiledMu.Unlock()
	s.markVarsLocked()
	return s.varCount
}

// Occurs reports whether v occurs in some polynomial of the set, from the
// VarCount memo (built on first use, as VarCount builds it).
func (s *Set) Occurs(v Var) bool {
	s.compiledMu.Lock()
	defer s.compiledMu.Unlock()
	s.markVarsLocked()
	return v > 0 && int(v) < len(s.varMarks) && s.varMarks[v]
}

// markVarsLocked builds the VarCount memo unless it exists. The caller
// holds compiledMu.
func (s *Set) markVarsLocked() {
	if s.varMarks != nil {
		return
	}
	s.varMarks = make([]bool, 1) // never nil once built; Var 0 is never marked
	var buf []VarPow
	for _, p := range s.Polys {
		var added int
		s.varMarks, buf, added = p.markVars(s.varMarks, buf)
		s.varCount += added
	}
}

// Len returns the number of polynomials.
func (s *Set) Len() int { return len(s.Polys) }

// Size returns |P|_M — the total number of monomials across all polynomials.
func (s *Set) Size() int {
	n := 0
	for _, p := range s.Polys {
		n += p.Size()
	}
	return n
}

// VarSet returns V(P) — the union of variable sets — as a map.
func (s *Set) VarSet() map[Var]bool { return varSetOf(s.markVars()) }

// Vars returns V(P) as a sorted slice.
func (s *Set) Vars() []Var { return varsOf(s.markVars()) }

// Granularity returns |P|_V — the number of distinct variables.
func (s *Set) Granularity() int { return countVars(s.markVars()) }

// markVars marks every variable of the set, indexed by Var, in one walk
// over all keys that decodes them into a single reused buffer.
func (s *Set) markVars() []bool {
	var seen []bool
	if s.Vocab != nil {
		seen = make([]bool, s.Vocab.Len()+1)
	}
	var buf []VarPow
	for _, p := range s.Polys {
		seen, buf, _ = p.markVars(seen, buf)
	}
	return seen
}

// Substitute returns P↓S applied point-wise, sharing the vocabulary and tags.
func (s *Set) Substitute(subst map[Var]Var) *Set {
	out := &Set{Vocab: s.Vocab, Polys: make([]*Polynomial, len(s.Polys)), Tags: s.Tags}
	for i, p := range s.Polys {
		out.Polys[i] = p.Substitute(subst)
	}
	return out
}

// Eval evaluates every polynomial under the valuation, returning one value
// per polynomial in order.
func (s *Set) Eval(val map[Var]float64) []float64 {
	out := make([]float64, len(s.Polys))
	for i, p := range s.Polys {
		out[i] = p.Eval(val)
	}
	return out
}

// Clone deep-copies the polynomials (the Vocab and tags are shared).
func (s *Set) Clone() *Set {
	out := &Set{Vocab: s.Vocab, Polys: make([]*Polynomial, len(s.Polys)), Tags: s.Tags}
	for i, p := range s.Polys {
		out.Polys[i] = p.Clone()
	}
	return out
}

// MaxPolySize returns the largest |P|_M of any member (0 for an empty set).
func (s *Set) MaxPolySize() int {
	max := 0
	for _, p := range s.Polys {
		if p.Size() > max {
			max = p.Size()
		}
	}
	return max
}

// MinPolySize returns the smallest |P|_M of any member (0 for an empty set).
func (s *Set) MinPolySize() int {
	if len(s.Polys) == 0 {
		return 0
	}
	min := s.Polys[0].Size()
	for _, p := range s.Polys[1:] {
		if p.Size() < min {
			min = p.Size()
		}
	}
	return min
}

// MeanPolySize returns the average |P|_M per polynomial.
func (s *Set) MeanPolySize() float64 {
	if len(s.Polys) == 0 {
		return 0
	}
	return float64(s.Size()) / float64(len(s.Polys))
}
