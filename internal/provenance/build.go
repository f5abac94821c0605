package provenance

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
)

// SetBuilder assembles a Set term by term, polynomial by polynomial,
// straight into the arrays of its kernel, and marks the set's variables
// as it goes. Terms merge as AddMonomial merges them into a polynomial's
// map: the coefficients of one key are summed, from zero, in the order
// given, and a key whose sum is exactly zero is dropped. Terms given in
// ascending key order (the order Encode writes and a kernel holds) are
// merged as they arrive; a polynomial whose terms arrive in any other
// order is sorted, stably by key, when it ends.
//
// The arrays are allocated once, at the sizes NewSetBuilder is given; a
// builder fed more terms or factors than that grows them.
type SetBuilder struct {
	s *Set      // the set being built: its kernel and variable marks
	k *Compiled // s's kernel

	open    bool    // a polynomial is being built
	base    int     // its first term in k.coeffs
	sorted  bool    // its keys have arrived in ascending order
	pending bool    // a term awaits its merge partners
	key     []byte  // the pending term's key; its factors are k.vars[from:]
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
	return &SetBuilder{s: &Set{Vocab: vb, k: k, marks: make([]bool, vb.Len()+1)}, k: k}
}

// Poly starts the next polynomial.
func (b *SetBuilder) Poly() {
	b.endPoly()
	b.open, b.sorted, b.base = true, true, len(b.k.coeffs)
}

// Term adds coeff times the monomial key to the current polynomial, as
// AddMonomial would; pairs are key's (Var, Pow) pairs in ascending Var
// order, and the builder keeps neither slice.
func (b *SetBuilder) Term(key []byte, coeff float64, pairs []VarPow) {
	if b.pending {
		c := bytes.Compare(key, b.key)
		if c == 0 {
			b.sum += coeff
			return
		}
		if c < 0 {
			b.sorted = false
		}
		b.settle()
	}
	k := b.k
	b.pending, b.from = true, len(k.vars)
	b.sum = 0
	b.sum += coeff // as AddMonomial adds to an absent key's zero: a signalling NaN is quieted
	b.key = append(b.key[:0], key...)
	for _, vp := range pairs {
		k.vars = append(k.vars, vp.Var)
		k.pows = append(k.pows, vp.Pow)
	}
}

// settle keeps the pending term, unless its coefficients summed to zero.
func (b *SetBuilder) settle() {
	b.pending = false
	k := b.k
	if b.sum == 0 {
		k.vars, k.pows = k.vars[:b.from], k.pows[:b.from]
		return
	}
	k.coeffs = append(k.coeffs, b.sum)
	k.factOff = append(k.factOff, int32(len(k.vars)))
}

// endPoly closes the current polynomial, if any: it sorts the polynomial
// when its keys arrived out of order, and marks its variables.
func (b *SetBuilder) endPoly() {
	if !b.open {
		return
	}
	if b.pending {
		b.settle()
	}
	if !b.sorted {
		b.sortPoly()
	}
	k := b.k
	from := int(k.factOff[b.base])
	k.noteFactors(from)
	b.s.mark(k.vars[from:])
	k.polyOff = append(k.polyOff, int32(len(k.coeffs)))
	b.open = false
}

// sortPoly puts the current polynomial's settled terms in ascending key
// order, the order they arrived in breaking ties, and merges equal keys by
// feeding them to Term again.
func (b *SetBuilder) sortPoly() {
	k := b.k
	lo := b.base
	n := len(k.coeffs) - lo
	var keys []byte
	end := make([]int, n+1) // term lo+i's key is keys[end[i]:end[i+1]]
	order := make([]int, n)
	for i := range n {
		keys = k.appendKey(keys, lo+i)
		end[i+1], order[i] = len(keys), i
	}
	key := func(i int) []byte { return keys[end[i]:end[i+1]] }
	slices.SortStableFunc(order, func(i, j int) int { return bytes.Compare(key(i), key(j)) })

	f0 := k.factOff[lo]
	coeffs, factOff := slices.Clone(k.coeffs[lo:]), slices.Clone(k.factOff[lo:])
	vars, pows := slices.Clone(k.vars[f0:]), slices.Clone(k.pows[f0:])
	k.coeffs, k.factOff, k.vars, k.pows = k.coeffs[:lo], k.factOff[:lo+1], k.vars[:f0], k.pows[:f0]
	b.sorted = true
	var pairs []VarPow
	for _, i := range order {
		pairs = pairs[:0]
		for f := factOff[i] - f0; f < factOff[i+1]-f0; f++ {
			pairs = append(pairs, VarPow{Var: vars[f], Pow: pows[f]})
		}
		b.Term(key(i), coeffs[i], pairs)
	}
	if b.pending {
		b.settle()
	}
}

// Set closes the last polynomial and returns the set, tagged with tags
// (shared, not copied; it may be shorter than the set, as Set.Tags may).
// The builder must not be used afterwards.
func (b *SetBuilder) Set(tags []string) *Set {
	b.endPoly()
	b.s.Tags, b.k.Tags = tags, tags
	return b.s
}

// Substitute returns P↓S for the variable mapping subst (leaf variable →
// abstracting meta-variable), sharing the vocabulary and tags: each
// monomial's variables are mapped (variables absent from subst, or mapped
// to NoVar, stay), and monomials that become identical merge, summing
// their coefficients in ascending source-key order — the paper's
// abstraction semantics (Example 2), bit for bit what
// Polynomial.Substitute gives each member.
//
// Every new key is encoded into one buffer, each polynomial's monomials
// are sorted by it, and the sorted terms go to one SetBuilder, sized from
// a count of the distinct keys, so the set's arrays are allocated once.
func (s *Set) Substitute(subst map[Var]Var) *Set {
	k := s.k
	to := make([]Var, int(k.maxVar)+1) // to[v]: v's image, 0 if v stays
	for v, w := range subst {
		if v > 0 && int(v) < len(to) && w > 0 && w != v {
			to[v] = w
		}
	}
	image := func(buf []VarPow, t int) []VarPow {
		changed := false
		for f := k.factOff[t]; f < k.factOff[t+1]; f++ {
			p := VarPow{Var: k.vars[f], Pow: k.pows[f]}
			if w := to[p.Var]; w != 0 {
				p.Var, changed = w, true
			}
			buf = append(buf, p)
		}
		if changed {
			// A sum past 2^31−1 wraps, as Polynomial.Substitute wraps it; a
			// compatible forest never maps two variables of one monomial
			// to one.
			buf, _ = canonicalPairs(buf)
		}
		return buf
	}

	// Every monomial's new key, and each polynomial's monomials sorted by
	// it, source order breaking ties. A key's first eight bytes, as a
	// zero-padded big-endian number, order any two keys they tell apart as
	// bytes.Compare does, and the sort reads them without touching arena.
	n := k.Size()
	arena := make([]byte, 0, 3*len(k.vars))
	off := make([]int32, n+1) // monomial t's new key is arena[off[t]:off[t+1]]
	ents := make([]keyed, n)
	var buf []VarPow
	for t := range n {
		buf = image(buf[:0], t)
		arena = AppendKey(arena, buf)
		off[t+1] = int32(len(arena))
		var pre [8]byte
		copy(pre[:], arena[off[t]:off[t+1]])
		ents[t] = keyed{pre: binary.BigEndian.Uint64(pre[:]), t: int32(t)}
	}
	key := func(t int32) []byte { return arena[off[t]:off[t+1]] }
	same := func(a, b keyed) bool { return a.pre == b.pre && bytes.Equal(key(a.t), key(b.t)) }

	// Count the distinct new keys and their pairs, which size the builder;
	// canonicalPairs never adds a pair.
	npolys := s.Len()
	terms, pairs := 0, 0
	for pi := range npolys {
		e := ents[k.polyOff[pi]:k.polyOff[pi+1]]
		slices.SortFunc(e, func(a, b keyed) int {
			if a.pre != b.pre {
				return cmp.Compare(a.pre, b.pre)
			}
			if c := bytes.Compare(key(a.t), key(b.t)); c != 0 {
				return c
			}
			return cmp.Compare(a.t, b.t)
		})
		for i, x := range e {
			if i == 0 || !same(x, e[i-1]) {
				terms++
				pairs += int(k.factOff[x.t+1] - k.factOff[x.t])
			}
		}
	}

	b := NewSetBuilder(s.Vocab, npolys, terms, pairs)
	for pi := range npolys {
		b.Poly()
		e := ents[k.polyOff[pi]:k.polyOff[pi+1]]
		for i, x := range e {
			if i == 0 || !same(x, e[i-1]) {
				buf = image(buf[:0], int(x.t))
			} // else x merges into the term before it, whose pairs buf holds
			b.Term(key(x.t), k.coeffs[x.t], buf)
		}
	}
	return b.Set(slices.Clip(s.Tags))
}

// keyed is a monomial and the first eight bytes of its new key, for
// sorting.
type keyed struct {
	pre uint64
	t   int32
}
