package core

import "provabs/internal/provenance"

// table is the packed monomial table the selection algorithms run on: the
// set's kernel (provenance.Set.Compiled), read in place — its monomials
// grouped by polynomial and, within a polynomial, in key order, the order
// Set.Substitute sums merged coefficients in — with each monomial's pairs
// and hash beside it. An occurrence index maps each
// indexed variable to the monomials holding it. A table is built per call
// and dropped when the call returns.
type table struct {
	polyStart []int32             // polynomial i holds monomials polyStart[i] .. polyStart[i+1]-1 (the kernel's)
	poly      []int32             // poly[m]: the polynomial monomial m belongs to
	coeffs    []float64           // the kernel's; read only
	varStart  []int32             // monomial m's pairs are vars[varStart[m]:varStart[m+1]] (the kernel's)
	vars      []provenance.VarPow // ascending Var within each monomial
	hash      []uint64            // monomialHash of each monomial
	slot      []int32             // slot[v]: v's row in the occurrence index, -1 if unindexed
	occStart  []int32             // row r's occurrences are occ[occStart[r]:occStart[r+1]]
	occ       []occurrence
}

// occurrence is one monomial holding an indexed variable.
type occurrence struct {
	m   int32 // the monomial (or, during greedy, the group it represents)
	pow int32 // the variable's exponent in it
}

// newTable reads s's kernel, with no sort or key decoding, and indexes
// the occurrences of the given variables.
func newTable(s *provenance.Set, indexed []provenance.Var) *table {
	k := s.Compiled().TermArrays()
	n := len(k.Coeffs)
	t := &table{
		polyStart: k.PolyOff,
		poly:      make([]int32, n),
		coeffs:    k.Coeffs,
		varStart:  k.FactOff,
		vars:      make([]provenance.VarPow, len(k.Vars)),
		hash:      make([]uint64, n),
		slot:      make([]int32, s.Vocab.Len()+1),
	}
	for f, v := range k.Vars {
		t.vars[f] = provenance.VarPow{Var: v, Pow: k.Pows[f]}
	}
	for pi := range len(k.PolyOff) - 1 {
		for m := k.PolyOff[pi]; m < k.PolyOff[pi+1]; m++ {
			t.poly[m] = int32(pi)
			t.hash[m] = monomialHash(int32(pi), t.pairs(m))
		}
	}

	for i := range t.slot {
		t.slot[i] = -1
	}
	rows := 0
	for _, v := range indexed {
		if t.has(v) && t.slot[v] < 0 {
			t.slot[v] = int32(rows)
			rows++
		}
	}
	t.occStart = make([]int32, rows+1)
	for _, vp := range t.vars {
		if t.has(vp.Var) && t.slot[vp.Var] >= 0 {
			t.occStart[t.slot[vp.Var]+1]++
		}
	}
	for r := 0; r < rows; r++ {
		t.occStart[r+1] += t.occStart[r]
	}
	t.occ = make([]occurrence, t.occStart[rows])
	fill := append([]int32(nil), t.occStart[:rows]...)
	for m := range int32(n) {
		for _, vp := range t.pairs(m) {
			if t.has(vp.Var) && t.slot[vp.Var] >= 0 {
				r := t.slot[vp.Var]
				t.occ[fill[r]] = occurrence{m: m, pow: vp.Pow}
				fill[r]++
			}
		}
	}
	return t
}

// len returns the number of monomials.
func (t *table) len() int { return len(t.coeffs) }

// has reports whether v lies in the vocabulary the table was built over.
func (t *table) has(v provenance.Var) bool { return v > 0 && int(v) < len(t.slot) }

// pairs returns monomial m's (Var, Pow) pairs.
func (t *table) pairs(m int32) []provenance.VarPow {
	return t.vars[t.varStart[m]:t.varStart[m+1]]
}

// occurrences returns the monomials holding the indexed variable v.
func (t *table) occurrences(v provenance.Var) []occurrence {
	if !t.has(v) || t.slot[v] < 0 {
		return nil
	}
	r := t.slot[v]
	return t.occ[t.occStart[r]:t.occStart[r+1]]
}

// source is the table's own state: every monomial is its own live group.
func (t *table) source() *view {
	return &view{poly: t.poly, varStart: t.varStart, vars: t.vars, hash: t.hash}
}

// groupML is the §4.1 monomial loss of unifying vars into one fresh
// meta-variable on the source monomials.
func (t *table) groupML(rs *residueSet, vars []provenance.Var) int {
	occs := make([][]occurrence, len(vars))
	for i, v := range vars {
		occs[i] = t.occurrences(v)
	}
	return t.source().groupML(rs, vars, occs)
}

// view is one state of the abstraction over a table. Each group is a
// monomial of the current P↓S, represented by one source monomial id; its
// pairs sit where that monomial's source pairs sit in the table.
type view struct {
	poly     []int32
	varStart []int32
	vars     []provenance.VarPow // each group's current pairs, ascending Var
	hash     []uint64            // monomialHash of each group's current pairs
	gone     []bool              // merged into another group or cancelled; nil when none is
}

func (w *view) pairs(g int32) []provenance.VarPow {
	return w.vars[w.varStart[g]:w.varStart[g+1]]
}

func (w *view) live(g int32) bool { return w.gone == nil || !w.gone[g] }

// groupML is the §4.1 monomial loss of unifying vars into one fresh
// meta-variable: Σ_v |D[v]| − |∪_v D[v]|, where D[v] holds the residues of
// the live groups holding v (occs[i] lists those of vars[i]). A residue is
// the group's monomial with v knocked out, tagged by polynomial; it is
// compared by hash and, when hashes agree, by its pairs, so the count is
// exact.
func (w *view) groupML(rs *residueSet, vars []provenance.Var, occs [][]occurrence) int {
	n := 0
	for _, o := range occs {
		n += len(o)
	}
	rs.reset(n)
	total := 0
	for i, v := range vars {
		for _, o := range occs[i] {
			if !w.live(o.m) {
				continue
			}
			total++
			rs.insert(w, o.m, v, o.pow)
		}
	}
	return total - len(rs.ents)
}

// residue is one group with one of its variables knocked out.
type residue struct {
	h   uint64
	g   int32
	v   provenance.Var
	pow int32
}

// residueSet collects distinct residues in an open-addressing table keyed
// by residue hash.
type residueSet struct {
	slots []int32 // 1 + index into ents; 0 marks an empty slot
	ents  []residue
}

// reset empties the set and sizes it for up to n residues.
func (rs *residueSet) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if cap(rs.slots) >= size {
		rs.slots = rs.slots[:size]
		clear(rs.slots)
	} else {
		rs.slots = make([]int32, size)
	}
	rs.ents = rs.ents[:0]
}

// insert adds the residue of group g with v (of exponent pow) knocked out
// and returns the index of the distinct residue it equals — a new one when
// none did.
func (rs *residueSet) insert(w *view, g int32, v provenance.Var, pow int32) int32 {
	h := w.hash[g] - pairHash(v, pow) + pairHash(provenance.Hole, pow)
	mask := uint64(len(rs.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := rs.slots[i]
		if e == 0 {
			rs.ents = append(rs.ents, residue{h: h, g: g, v: v, pow: pow})
			rs.slots[i] = int32(len(rs.ents))
			return int32(len(rs.ents) - 1)
		}
		r := &rs.ents[e-1]
		if r.h == h && r.pow == pow && w.poly[r.g] == w.poly[g] && sameRest(w.pairs(r.g), r.v, w.pairs(g), v) {
			return e - 1
		}
	}
}

// sameRest reports whether a without its pair for va equals b without its
// pair for vb.
func sameRest(a []provenance.VarPow, va provenance.Var, b []provenance.VarPow, vb provenance.Var) bool {
	if len(a) != len(b) {
		return false
	}
	for i, j := 0, 0; ; i, j = i+1, j+1 {
		if i < len(a) && a[i].Var == va {
			i++
		}
		if j < len(b) && b[j].Var == vb {
			j++
		}
		if i == len(a) || j == len(b) {
			return i == len(a) && j == len(b)
		}
		if a[i] != b[j] {
			return false
		}
	}
}

// monomialHash hashes a monomial of polynomial poly as the sum of its
// pairs' hashes, so replacing one pair updates it in O(1).
func monomialHash(poly int32, ps []provenance.VarPow) uint64 {
	h := pairHash(provenance.Var(poly), 0) // exponent 0 never occurs in a pair
	for _, p := range ps {
		h += pairHash(p.Var, p.Pow)
	}
	return h
}

// pairHash mixes one (Var, Pow) pair with the splitmix64 finalizer.
func pairHash(v provenance.Var, pow int32) uint64 {
	x := uint64(uint32(v)) | uint64(uint32(pow))<<32
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
