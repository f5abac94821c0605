package provenance

import "slices"

// Set is a multiset of polynomials — "all polynomials that appear in the
// provenance-aware result of query evaluation" (§2.1). The paper's size
// measures lift point-wise: |P|_M sums monomial counts, V(P) unions variable
// sets.
//
// Each polynomial is typically tagged with the output tuple (group) it
// annotates; tags are carried for presentation and scenario reporting but do
// not affect the algorithms.
//
// A Set is stored as its compiled float kernel: the kernel's flat arrays,
// each polynomial's terms in ascending key order, are the only copy of its
// terms. Compiled returns that kernel, Add appends to it in place
// (Kernel.Append patches its inverted index and baseline when they are
// built), so a session's evaluate-many workload never compiles again, and
// the compatibility check, forest cleaning, compression and the codecs all
// read the same arrays. Poly builds one member as a *Polynomial, for
// printing and for callers that want the map form. Beside the kernel the
// set keeps the marks of the variables that occur in it (VarCount), which
// every way of building a set fills as it builds.
type Set struct {
	Vocab *Vocab
	Tags  []string // Tags[i] labels polynomial i; may be empty

	k     *Compiled // the terms; never nil
	marks []bool    // marks[v] when v occurs in some polynomial; marks[0] never
	count int       // the number of marks set
}

// NewSet returns an empty set over the given vocabulary.
func NewSet(vb *Vocab) *Set {
	if vb == nil {
		vb = NewVocab()
	}
	k := newKernel[float64](Float{})
	k.Vocab = vb
	return &Set{Vocab: vb, k: k, marks: make([]bool, 1)}
}

// Add appends a polynomial with an optional tag: AddKernel of its
// compiled form.
func (s *Set) Add(tag string, p *Polynomial) { s.AddKernel(tag, p.Compile()) }

// AddKernel appends the polynomial of k, a one-polynomial float kernel over
// the set's vocabulary (ParseKernel's, a PolyBuilder's or
// Polynomial.Compile's), with an optional tag, extending the set's kernel
// in O(new terms), its inverted index and baseline included when they are
// built. Like all Set mutation, AddKernel must not run concurrently with
// evaluation.
func (s *Set) AddKernel(tag string, k *Compiled) {
	if k.Len() != 1 {
		panic("provenance: AddKernel needs a one-polynomial kernel")
	}
	from := len(s.k.vars)
	s.k.Append(k, []string{tag}) // the float carrier takes every coefficient
	s.Tags = s.k.Tags
	s.mark(s.k.vars[from:])
}

// mark sets the marks of vars, growing them as needed.
func (s *Set) mark(vars []Var) {
	for _, v := range vars {
		if int(v) >= len(s.marks) {
			s.marks = append(s.marks, make([]bool, int(v)+1-len(s.marks))...)
		}
		if !s.marks[v] {
			s.marks[v] = true
			s.count++
		}
	}
}

// Compiled returns the set's kernel: the live storage of its terms, which
// Add extends in place, so the pointer a long-lived session holds stays
// valid and keeps growing. Callers that need a frozen snapshot call
// Compile instead. Compiled is safe for concurrent use with itself (but,
// like the rest of Set, not with concurrent mutation).
func (s *Set) Compiled() *Compiled { return s.k }

// VarCount returns |P|_V, the number of distinct variables, from the
// variable marks the set keeps beside its kernel.
func (s *Set) VarCount() int { return s.count }

// Occurs reports whether v occurs in some polynomial of the set.
func (s *Set) Occurs(v Var) bool {
	return v > 0 && int(v) < len(s.marks) && s.marks[v]
}

// Len returns the number of polynomials.
func (s *Set) Len() int { return s.k.Len() }

// Size returns |P|_M — the total number of monomials across all polynomials.
func (s *Set) Size() int { return s.k.Size() }

// PolySize returns |P|_M of polynomial i.
func (s *Set) PolySize(i int) int { return int(s.k.polyOff[i+1] - s.k.polyOff[i]) }

// Poly returns polynomial i as a fresh *Polynomial, built from the kernel's
// terms; changing it does not change the set.
func (s *Set) Poly(i int) *Polynomial { return polyOf(&s.k.kernelArrays, i) }

// polyOf builds polynomial i of the arrays as a map polynomial.
func polyOf(k *kernelArrays[float64], i int) *Polynomial {
	lo, hi := int(k.polyOff[i]), int(k.polyOff[i+1])
	var buf []byte
	ends := make([]int, 0, hi-lo)
	for t := lo; t < hi; t++ {
		buf = k.appendKey(buf, t)
		ends = append(ends, len(buf))
	}
	str := string(buf) // one string per polynomial; each key is a substring
	p := &Polynomial{terms: make(map[MonomialKey]float64, hi-lo)}
	from := 0
	for j, end := range ends {
		p.terms[MonomialKey(str[from:end])] = k.coeffs[lo+j]
		from = end
	}
	return p
}

// VarSet returns V(P) — the union of variable sets — as a map.
func (s *Set) VarSet() map[Var]bool { return varSetOf(s.marks) }

// Vars returns V(P) as a sorted slice.
func (s *Set) Vars() []Var { return varsOf(s.marks) }

// Granularity returns |P|_V — the number of distinct variables.
func (s *Set) Granularity() int { return s.count }

// Clone deep-copies the polynomials (the Vocab and tags are shared).
func (s *Set) Clone() *Set {
	k := s.Compile()
	return &Set{Vocab: s.Vocab, Tags: k.Tags, k: k, marks: slices.Clone(s.marks), count: s.count}
}

// MaxPolySize returns the largest |P|_M of any member (0 for an empty set).
func (s *Set) MaxPolySize() int {
	n := 0
	for i := range s.Len() {
		n = max(n, s.PolySize(i))
	}
	return n
}

// MinPolySize returns the smallest |P|_M of any member (0 for an empty set).
func (s *Set) MinPolySize() int {
	if s.Len() == 0 {
		return 0
	}
	n := s.PolySize(0)
	for i := 1; i < s.Len(); i++ {
		n = min(n, s.PolySize(i))
	}
	return n
}

// MeanPolySize returns the average |P|_M per polynomial.
func (s *Set) MeanPolySize() float64 {
	if s.Len() == 0 {
		return 0
	}
	return float64(s.Size()) / float64(s.Len())
}
