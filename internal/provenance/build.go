package provenance

import (
	"bytes"
	"math"
)

// SetBuilder assembles a Set term by term, polynomial by polynomial. Fed
// each polynomial's terms in ascending key order — the order Encode writes
// and the compiled kernel holds — it builds three things in one pass: the
// map polynomials, the compiled float kernel (the arrays Compile would
// flatten those maps into, bit for bit), and the VarCount memo. The set
// Set returns then arrives compiled: neither its first evaluation nor its
// first VarCount reads a key. Terms in any other order still build the
// right maps; the kernel and the memo are then built lazily (see Term).
//
// A polynomial's keys are copied into one buffer and become map keys as
// substrings of one string, so building allocates per polynomial, not per
// term. The kernel's arrays are allocated once, at the sizes NewSetBuilder
// is given; a builder fed more terms or factors than that grows them.
type SetBuilder struct {
	vb    *Vocab
	polys []*Polynomial
	k     *Compiled // nil once an unordered term dropped the kernel
	marks []bool    // the variables of the kept terms; nil with k
	count int       // the number of marks set

	cur  *Polynomial
	base int     // the current polynomial's first term in k.coeffs
	keys []byte  // the current polynomial's keys, end to end
	ends []int32 // ends[i]: where its i'th kept term's key ends in keys

	pending bool    // a term awaits its merge partners: key keys[at:], factors k.vars[from:]
	at      int     // where the pending term's key starts in keys
	from    int     // where its factors start in k.vars
	sum     float64 // its coefficient so far
}

// NewSetBuilder starts a set over vb with room for polys polynomials,
// terms distinct terms and factors (Var, Pow) pairs in all.
func NewSetBuilder(vb *Vocab, polys, terms, factors int) *SetBuilder {
	k := newKernel[float64](Float{})
	k.Vocab = vb
	k.polyOff = make([]int32, 1, polys+1)
	k.coeffs = make([]float64, 0, terms)
	k.factOff = make([]int32, 1, terms+1)
	k.vars = make([]Var, 0, factors)
	k.pows = make([]int32, 0, factors)
	return &SetBuilder{
		vb:    vb,
		polys: make([]*Polynomial, 0, polys),
		k:     k,
		marks: make([]bool, vb.Len()+1),
	}
}

// Poly starts the next polynomial, with map room for terms terms.
func (b *SetBuilder) Poly(terms int) {
	b.endPoly()
	b.cur = &Polynomial{terms: make(map[MonomialKey]float64, terms)}
	b.polys = append(b.polys, b.cur)
	if b.k != nil {
		b.base = len(b.k.coeffs)
	}
}

// Term adds coeff times the monomial key to the current polynomial, as
// AddMonomial would; pairs are key's (Var, Pow) pairs in ascending Var
// order, and the builder keeps neither slice. Terms in ascending key order
// build the kernel and the memo as they come: an equal key merges into the
// term before it, the coefficients summed in the order given and a sum of
// exactly zero dropping the term, as AddMonomial's merge does. A key below
// the one before it, or a zero or NaN coefficient (adding a NaN to an
// empty slot's 0 may change its bits), goes through unordered instead.
func (b *SetBuilder) Term(key []byte, coeff float64, pairs []VarPow) {
	if b.k == nil || coeff == 0 || math.IsNaN(coeff) {
		b.unordered(MonomialKey(key), coeff)
		return
	}
	if b.pending {
		switch c := bytes.Compare(key, b.keys[b.at:]); {
		case c == 0:
			b.sum += coeff
			return
		case c < 0:
			b.unordered(MonomialKey(key), coeff)
			return
		}
		b.settle()
	}
	k := b.k
	b.pending, b.at, b.from, b.sum = true, len(b.keys), len(k.vars), coeff
	b.keys = append(b.keys, key...)
	for _, vp := range pairs {
		k.vars = append(k.vars, vp.Var)
		k.pows = append(k.pows, vp.Pow)
	}
}

// settle keeps the pending term, unless its coefficients summed to zero.
func (b *SetBuilder) settle() {
	if !b.pending {
		return
	}
	b.pending = false
	k := b.k
	if b.sum == 0 {
		b.keys = b.keys[:b.at]
		k.vars, k.pows = k.vars[:b.from], k.pows[:b.from]
		return
	}
	b.ends = append(b.ends, int32(len(b.keys)))
	k.coeffs = append(k.coeffs, b.sum)
	for f := b.from; f < len(k.vars); f++ {
		v := k.vars[f]
		if k.pows[f] != 1 {
			k.allPow1 = false
		}
		k.maxVar = max(k.maxVar, v)
		if int(v) >= len(b.marks) {
			b.marks = append(b.marks, make([]bool, int(v)+1-len(b.marks))...)
		}
		if !b.marks[v] {
			b.marks[v] = true
			b.count++
		}
	}
	k.factOff = append(k.factOff, int32(len(k.vars)))
}

// store moves the current polynomial's kept terms into its map, each key a
// substring of one string.
func (b *SetBuilder) store() {
	b.settle()
	if len(b.ends) == 0 {
		return
	}
	str := string(b.keys)
	from := int32(0)
	for i, end := range b.ends {
		b.cur.terms[MonomialKey(str[from:end])] = b.k.coeffs[b.base+i]
		from = end
	}
	b.keys, b.ends = b.keys[:0], b.ends[:0]
}

// unordered merges coeff·key into the current polynomial as AddMonomial
// does, whatever the keys before it; key must be canonical. The set then
// no longer arrives compiled: the kernel and the memo are dropped, and the
// set builds both lazily, like any other. Every later term, through Term
// or unordered, merges the same way.
func (b *SetBuilder) unordered(key MonomialKey, coeff float64) {
	if b.k != nil {
		b.store()
		b.k, b.marks = nil, nil
	}
	b.cur.addKey(key, coeff)
}

// endPoly closes the current polynomial, if any.
func (b *SetBuilder) endPoly() {
	if b.cur == nil {
		return
	}
	if b.k != nil {
		b.store()
		b.k.polyOff = append(b.k.polyOff, int32(len(b.k.coeffs)))
	}
	b.cur = nil
}

// Set closes the last polynomial and returns the set, tagged with tags
// (shared, not copied; it may be shorter than the set, as Set.Tags may),
// with its compiled cache and its VarCount memo in place. The builder must
// not be used afterwards.
func (b *SetBuilder) Set(tags []string) *Set {
	b.endPoly()
	s := &Set{Vocab: b.vb, Polys: b.polys, Tags: tags}
	if b.k != nil {
		b.k.Tags = tags
		s.compiled = b.k
		s.varMarks, s.varCount = b.marks, b.count
	}
	return s
}
