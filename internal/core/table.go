package core

import (
	"slices"
	"strings"

	"provabs/internal/provenance"
)

// table is the packed monomial table the selection algorithms run on: the
// set's monomials in flat arrays, grouped by polynomial and, within a
// polynomial, in key order — the order Set.Substitute sums merged
// coefficients in. An occurrence index maps each indexed variable to the
// monomials holding it. A table is built per call and dropped when the call
// returns.
type table struct {
	set       *provenance.Set
	polyStart []int32 // polynomial i holds monomials polyStart[i] .. polyStart[i+1]-1
	poly      []int32 // poly[m]: the polynomial monomial m belongs to
	keys      []provenance.MonomialKey
	coeffs    []float64
	varStart  []int32             // monomial m's pairs are vars[varStart[m]:varStart[m+1]]
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

// newTable packs s and indexes the occurrences of the given variables.
func newTable(s *provenance.Set, indexed []provenance.Var) *table {
	n := s.Size()
	t := &table{
		set:       s,
		polyStart: make([]int32, 0, len(s.Polys)+1),
		poly:      make([]int32, 0, n),
		keys:      make([]provenance.MonomialKey, 0, n),
		coeffs:    make([]float64, 0, n),
		varStart:  make([]int32, 1, n+1),
		vars:      make([]provenance.VarPow, 0, 2*n),
		hash:      make([]uint64, 0, n),
		slot:      make([]int32, s.Vocab.Len()+1),
	}
	type term struct {
		key   provenance.MonomialKey
		coeff float64
	}
	var terms []term
	for pi, p := range s.Polys {
		t.polyStart = append(t.polyStart, int32(len(t.keys)))
		terms = terms[:0]
		for k, c := range p.Terms() {
			terms = append(terms, term{k, c})
		}
		slices.SortFunc(terms, func(a, b term) int { return strings.Compare(string(a.key), string(b.key)) })
		for _, tm := range terms {
			from := len(t.vars)
			t.vars = tm.key.AppendVars(t.vars)
			t.poly = append(t.poly, int32(pi))
			t.keys = append(t.keys, tm.key)
			t.coeffs = append(t.coeffs, tm.coeff)
			t.varStart = append(t.varStart, int32(len(t.vars)))
			t.hash = append(t.hash, monomialHash(int32(pi), t.vars[from:]))
		}
	}
	t.polyStart = append(t.polyStart, int32(len(t.keys)))

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
	for m := range t.keys {
		for _, vp := range t.pairs(int32(m)) {
			if t.has(vp.Var) && t.slot[vp.Var] >= 0 {
				r := t.slot[vp.Var]
				t.occ[fill[r]] = occurrence{m: int32(m), pow: vp.Pow}
				fill[r]++
			}
		}
	}
	return t
}

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

// abstract returns P↓S for the substitution. It is term for term the set
// Set.Substitute returns: the same keys, and merged coefficients summed in
// the same sorted source-key order, so the same bits. The keys of
// substituted monomials are encoded into one buffer and sliced out of one
// string, so the build allocates per polynomial, not per monomial.
func (t *table) abstract(subst map[provenance.Var]provenance.Var) *provenance.Set {
	to := make([]provenance.Var, len(t.slot)) // to[v]: v's image, 0 if v stays
	for v, w := range subst {
		if t.has(v) && w != v {
			to[v] = w
		}
	}
	var arena []byte
	end := make([]int32, len(t.keys)) // end of m's new key in arena; -1 keeps the source key
	var buf []provenance.VarPow
	for m := range t.keys {
		end[m] = -1
		buf = buf[:0]
		changed := false
		for _, p := range t.pairs(int32(m)) {
			if t.has(p.Var) && to[p.Var] != 0 {
				p.Var = to[p.Var]
				changed = true
			}
			buf = append(buf, p)
		}
		if changed {
			arena = provenance.AppendKey(arena, canonical(buf))
			end[m] = int32(len(arena))
		}
	}
	str := string(arena)
	polys := make([]*provenance.Polynomial, len(t.set.Polys))
	var keys []provenance.MonomialKey
	from := int32(0)
	for pi := range polys {
		lo, hi := t.polyStart[pi], t.polyStart[pi+1]
		keys = keys[:0]
		for m := lo; m < hi; m++ {
			if end[m] < 0 {
				keys = append(keys, t.keys[m])
				continue
			}
			keys = append(keys, provenance.MonomialKey(str[from:end[m]]))
			from = end[m]
		}
		polys[pi] = provenance.FromKeys(keys, t.coeffs[lo:hi])
	}
	return &provenance.Set{Vocab: t.set.Vocab, Polys: polys, Tags: t.set.Tags}
}

// canonical sorts pairs by Var and merges repeated variables by adding
// their exponents, in place.
func canonical(ps []provenance.VarPow) []provenance.VarPow {
	slices.SortFunc(ps, func(a, b provenance.VarPow) int { return int(a.Var) - int(b.Var) })
	out := ps[:0]
	for _, p := range ps {
		if n := len(out); n > 0 && out[n-1].Var == p.Var {
			out[n-1].Pow += p.Pow
		} else {
			out = append(out, p)
		}
	}
	return out
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
