package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"provabs/internal/abstree"
	"provabs/internal/provenance"
)

// GreedyVVS implements Algorithm 2: greedy valid-variable selection over an
// abstraction forest (the general, NP-hard setting).
//
// The selection S starts as the set of all leaves. A node is a *candidate*
// when all of its children are in S. While the monomial loss is below
// k = |P|_M − B and candidates remain, the algorithm promotes the candidate
// whose promotion costs the least variable loss; ties are broken toward the
// larger monomial loss (Example 15 selects q1 over SB this way), then by
// label for determinism. Promotion replaces the candidate's children with
// the candidate and may enable its parent as a new candidate.
//
// The monomial loss of each promotion is evaluated against the *currently
// abstracted* polynomials, which the algorithm maintains incrementally on
// the packed table (see the package comment).
func GreedyVVS(s *provenance.Set, forest *abstree.Forest, B int) (*Result, error) {
	return GreedyVVSOpts(s, forest, B, GreedyOptions{TieBreakML: true})
}

// GreedyOptions tunes Algorithm 2. The paper's pseudocode breaks
// minimal-variable-loss ties "arbitrarily", but its worked Example 15
// breaks them toward the larger monomial loss; TieBreakML selects between
// the two (the benchmark suite ablates the difference).
type GreedyOptions struct {
	TieBreakML bool
}

// GreedyVVSOpts is GreedyVVS with explicit options.
func GreedyVVSOpts(s *provenance.Set, forest *abstree.Forest, B int, opts GreedyOptions) (*Result, error) {
	if B < 1 {
		return nil, fmt.Errorf("core: bound B=%d must be at least 1", B)
	}
	inst, err := NewInstance(s, forest)
	if err != nil {
		return nil, err
	}
	var leaves []provenance.Var
	for _, t := range inst.Forest.Trees {
		leaves = append(leaves, activeLeafVars(s, t, t.Root())...)
	}
	return greedyOnTable(inst, newTable(s, leaves), B, opts)
}

func greedyOnTable(inst *Instance, tab *table, B int, opts GreedyOptions) (*Result, error) {
	s := inst.Set
	f := inst.Forest
	k := s.Size() - B

	// chosen[ti][node] — current S, per tree.
	chosen := make([]map[int]bool, f.Len())
	for ti, t := range f.Trees {
		chosen[ti] = make(map[int]bool)
		for _, l := range t.Leaves() {
			chosen[ti][l] = true
		}
	}

	type cand struct {
		tree, node int
	}
	inCand := make(map[cand]bool)
	var cands []cand
	addCand := func(c cand) {
		if !inCand[c] {
			inCand[c] = true
			cands = append(cands, c)
		}
	}
	for ti, t := range f.Trees {
		for n := 0; n < t.Len(); n++ {
			if t.IsLeaf(n) {
				continue
			}
			all := true
			for _, c := range t.Children(n) {
				if !chosen[ti][c] {
					all = false
					break
				}
			}
			if all {
				addCand(cand{ti, n})
			}
		}
	}

	cur := newGroups(tab) // current P↓S, promoted in place
	curML := 0
	totalVL := 0

	// nodeVar[ti][n] is the variable of a node in S and nodeOcc[ti][n] the
	// groups holding it: a leaf's source monomials, a promoted node's merged
	// groups. Entries whose group has since merged away are skipped.
	nodeVar := make([][]provenance.Var, f.Len())
	nodeOcc := make([][][]occurrence, f.Len())
	for ti, t := range f.Trees {
		nodeVar[ti] = make([]provenance.Var, t.Len())
		nodeOcc[ti] = make([][]occurrence, t.Len())
		for _, l := range t.Leaves() {
			if v, ok := s.Vocab.Lookup(t.Label(l)); ok {
				nodeVar[ti][l] = v
				nodeOcc[ti][l] = tab.occurrences(v)
			}
		}
	}
	// groupOf returns the current variables replaced when promoting c — the
	// variables of c's children, which are all in S by candidacy — with the
	// groups holding each.
	groupOf := func(c cand) ([]provenance.Var, [][]occurrence) {
		var vars []provenance.Var
		var occs [][]occurrence
		for _, ch := range f.Trees[c.tree].Children(c.node) {
			if v := nodeVar[c.tree][ch]; v != provenance.NoVar {
				vars = append(vars, v)
				occs = append(occs, nodeOcc[c.tree][ch])
			}
		}
		return vars, occs
	}
	// dml caches each candidate's ΔML against the current abstraction.
	dml := make(map[cand]int)

	for curML < k && len(cands) > 0 {
		// Pick the candidate with minimal ΔVL; break ties toward larger ΔML,
		// then lexicographic label.
		type scored struct {
			c   cand
			dvl int
		}
		best := make([]scored, 0, len(cands))
		minDVL := -1
		for _, c := range cands {
			dvl := len(f.Trees[c.tree].Children(c.node)) - 1
			if minDVL < 0 || dvl < minDVL {
				minDVL = dvl
				best = best[:0]
			}
			if dvl == minDVL {
				best = append(best, scored{c, dvl})
			}
		}
		pick := best[0].c
		if len(best) > 1 && !opts.TieBreakML {
			// Arbitrary (but deterministic) tie-break: smallest label.
			bestName := f.Trees[pick.tree].Label(pick.node)
			for _, sc := range best[1:] {
				if name := f.Trees[sc.c.tree].Label(sc.c.node); name < bestName {
					bestName, pick = name, sc.c
				}
			}
		}
		if len(best) > 1 && opts.TieBreakML {
			// Tie-break on ΔML against the current abstraction, computed
			// lazily only for the tied candidates.
			bestML := -1
			var names []string
			for range best {
				names = append(names, "")
			}
			for i, sc := range best {
				names[i] = f.Trees[sc.c.tree].Label(sc.c.node)
			}
			order := make([]int, len(best))
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool { return names[order[a]] < names[order[b]] })
			for _, i := range order {
				sc := best[i]
				d, ok := dml[sc.c]
				if !ok {
					vars, occs := groupOf(sc.c)
					d = cur.groupML(&cur.rs, vars, occs)
					dml[sc.c] = d
				}
				if d > bestML {
					bestML = d
					pick = sc.c
				}
			}
		}

		// Promote pick: S ← (S \ children) ∪ {pick}; abstract cur.
		t := f.Trees[pick.tree]
		vars, occs := groupOf(pick)
		meta := t.VarOf(s.Vocab, pick.node)
		merged, lost := cur.promote(vars, occs, meta)
		curML += lost
		totalVL += len(vars) - 1
		nodeVar[pick.tree][pick.node] = meta
		nodeOcc[pick.tree][pick.node] = merged
		// The promotion changed only groups holding one of pick's children.
		// Compatibility leaves such a group no other node of pick's tree, so
		// the cached ΔML of pick's sibling candidates is still exact; only
		// candidates in other trees need recomputing.
		for c := range dml {
			if c.tree != pick.tree {
				delete(dml, c)
			}
		}

		for _, ch := range t.Children(pick.node) {
			delete(chosen[pick.tree], ch)
			nodeOcc[pick.tree][ch] = nil
		}
		chosen[pick.tree][pick.node] = true
		// Drop pick from candidates.
		for i, c := range cands {
			if c == (cand{pick.tree, pick.node}) {
				cands = append(cands[:i], cands[i+1:]...)
				break
			}
		}
		delete(inCand, cand{pick.tree, pick.node})
		delete(dml, pick)
		// The parent may have become a candidate.
		if par := t.Parent(pick.node); par >= 0 {
			all := true
			for _, ch := range t.Children(par) {
				if !chosen[pick.tree][ch] {
					all = false
					break
				}
			}
			if all {
				addCand(cand{pick.tree, par})
			}
		}
	}

	nodes := make([][]int, f.Len())
	for ti := range f.Trees {
		for n := range chosen[ti] {
			nodes[ti] = append(nodes[ti], n)
		}
		sort.Ints(nodes[ti])
	}
	v := &abstree.VVS{Forest: f, Nodes: nodes}
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("core: internal error, greedy VVS invalid: %w", err)
	}
	return &Result{VVS: v, ML: curML, VL: totalVL, Adequate: curML >= k}, nil
}

// groups is the current abstraction P↓S during greedy selection, kept as a
// view over the table: one group per monomial of P↓S, with its coefficient.
type groups struct {
	view
	coeff []float64
	rs    residueSet
	hits  []hit   // promote's scratch
	at    []int32 // promote's scratch: hits bucketed by residue
	keys  []byte  // promote's scratch: merged groups' current keys
	spans []keySpan
}

// hit is one live group a promotion rewrites.
type hit struct {
	g      int32
	v      provenance.Var // the promoted child's variable it holds
	pow    int32
	bucket int32 // its residue's index in the residue set
}

type keySpan struct {
	h        int32 // index into hits
	from, to int32 // its current key in groups.keys
}

func newGroups(t *table) *groups {
	return &groups{
		view: view{
			poly:     t.poly,
			varStart: t.varStart,
			vars:     slices.Clone(t.vars),
			hash:     slices.Clone(t.hash),
			gone:     make([]bool, t.len()),
		},
		coeff: slices.Clone(t.coeffs),
	}
}

// promote replaces each variable vars[i] by meta in the live groups holding
// it (occs[i]) and returns the groups holding meta afterwards together with
// the number of monomials lost. Groups left with equal monomials — equal
// residues, in §4.1's terms — merge into one, summing their coefficients in
// ascending order of their current keys, the order Set.Substitute would add
// them in; a sum of exactly zero drops the merged group too.
func (g *groups) promote(vars []provenance.Var, occs [][]occurrence, meta provenance.Var) ([]occurrence, int) {
	n := 0
	for _, o := range occs {
		n += len(o)
	}
	g.rs.reset(n)
	g.hits = g.hits[:0]
	for i, v := range vars {
		for _, o := range occs[i] {
			if g.live(o.m) {
				b := g.rs.insert(&g.view, o.m, v, o.pow)
				g.hits = append(g.hits, hit{g: o.m, v: v, pow: o.pow, bucket: b})
			}
		}
	}
	// Bucket the hits by residue: bucket b holds g.at[start[b]:start[b+1]].
	nb := len(g.rs.ents)
	start := make([]int32, nb+1)
	for _, h := range g.hits {
		start[h.bucket+1]++
	}
	for b := 0; b < nb; b++ {
		start[b+1] += start[b]
	}
	g.at = slices.Grow(g.at[:0], len(g.hits))[:len(g.hits)]
	fill := slices.Clone(start[:nb])
	for i, h := range g.hits {
		g.at[fill[h.bucket]] = int32(i)
		fill[h.bucket]++
	}

	merged := make([]occurrence, 0, nb)
	lost := 0
	for b := 0; b < nb; b++ {
		members := g.at[start[b]:start[b+1]]
		if len(members) > 1 {
			g.sortByKey(members)
			sum := 0.0
			for _, i := range members {
				sum += g.coeff[g.hits[i].g]
			}
			for _, i := range members[1:] {
				g.gone[g.hits[i].g] = true
			}
			lost += len(members) - 1
			rep := g.hits[members[0]].g
			if sum == 0 {
				g.gone[rep] = true
				lost++
				continue
			}
			g.coeff[rep] = sum
		}
		h := g.hits[members[0]]
		g.replace(h.g, h.v, meta, h.pow)
		merged = append(merged, occurrence{m: h.g, pow: h.pow})
	}
	return merged, lost
}

// sortByKey orders a bucket's hits by their groups' current keys.
func (g *groups) sortByKey(members []int32) {
	g.keys = g.keys[:0]
	g.spans = g.spans[:0]
	for _, i := range members {
		from := int32(len(g.keys))
		g.keys = provenance.AppendKey(g.keys, g.pairs(g.hits[i].g))
		g.spans = append(g.spans, keySpan{h: i, from: from, to: int32(len(g.keys))})
	}
	slices.SortFunc(g.spans, func(a, b keySpan) int {
		return bytes.Compare(g.keys[a.from:a.to], g.keys[b.from:b.to])
	})
	for j, sp := range g.spans {
		members[j] = sp.h
	}
}

// replace rewrites v to meta in group grp, keeping its pairs sorted.
func (g *groups) replace(grp int32, v, meta provenance.Var, pow int32) {
	ps := g.pairs(grp)
	i := 0
	for ps[i].Var != v {
		i++
	}
	ps[i].Var = meta
	for ; i > 0 && ps[i-1].Var > meta; i-- {
		ps[i-1], ps[i] = ps[i], ps[i-1]
	}
	for ; i+1 < len(ps) && ps[i+1].Var < meta; i++ {
		ps[i+1], ps[i] = ps[i], ps[i+1]
	}
	g.hash[grp] += pairHash(meta, pow) - pairHash(v, pow)
}
