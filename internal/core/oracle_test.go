package core

// The string-keyed implementations the packed table replaced, kept as test
// oracles: the §4.1 residue table over MonomialKey residues, and Algorithms
// 1 and 2 as they ran on it, re-substituting the whole set after every
// greedy promotion.

import (
	"fmt"
	"sort"

	"provabs/internal/abstree"
	"provabs/internal/provenance"
)

// groupKey identifies a residue across the whole multiset: residues of
// different polynomials must never merge, so keys are tagged by the
// polynomial index.
type groupKey struct {
	poly int32
	key  provenance.MonomialKey
}

// residueTable holds, per active leaf variable of one tree, the tagged
// residue keys of every monomial containing that variable (§4.1 "Efficient
// ML computation"). Built in a single pass over the polynomials.
type residueTable struct {
	byVar map[provenance.Var][]groupKey
}

// newResidueTable builds the table for the given leaf variables in a
// single pass over each polynomial (the essence of the §4.1 optimization:
// the polynomials are traversed once, not once per tree node or variable).
func newResidueTable(ps []*provenance.Polynomial, leafVars map[provenance.Var]bool) *residueTable {
	rt := &residueTable{byVar: make(map[provenance.Var][]groupKey, len(leafVars))}
	for pi, p := range ps {
		tag := int32(pi)
		p.VisitResidues(leafVars, func(v provenance.Var, r provenance.MonomialKey) {
			rt.byVar[v] = append(rt.byVar[v], groupKey{poly: tag, key: r})
		})
	}
	return rt
}

// groupML returns the monomial loss of unifying exactly the given variables
// into one fresh meta-variable: Σ_l |D[l]| − |∪_l D[l]|, per §4.1.
func (rt *residueTable) groupML(vars []provenance.Var) int {
	total := 0
	union := make(map[groupKey]struct{})
	for _, v := range vars {
		rs := rt.byVar[v]
		total += len(rs)
		for _, r := range rs {
			union[r] = struct{}{}
		}
	}
	return total - len(union)
}

// polysOf returns the set's polynomials in map form.
func polysOf(s *provenance.Set) []*provenance.Polynomial {
	out := make([]*provenance.Polynomial, s.Len())
	for i := range out {
		out[i] = s.Poly(i)
	}
	return out
}

// sizeOf is |P|_M of map polynomials.
func sizeOf(ps []*provenance.Polynomial) int {
	n := 0
	for _, p := range ps {
		n += p.Size()
	}
	return n
}

func varSet(vars []provenance.Var) map[provenance.Var]bool {
	m := make(map[provenance.Var]bool, len(vars))
	for _, v := range vars {
		m[v] = true
	}
	return m
}

// oracleGreedy is Algorithm 2 on string-keyed residue tables.
func oracleGreedy(s *provenance.Set, forest *abstree.Forest, B int, opts GreedyOptions) (*Result, error) {
	inst, err := NewInstance(s, forest)
	if err != nil {
		return nil, err
	}
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

	cur := polysOf(s) // current P↓S in map form, updated after each promotion
	curML := 0
	totalVL := 0

	// groupVarsOf returns the current variables replaced when promoting c:
	// the variables of c's children (which are all in S by candidacy).
	groupVarsOf := func(c cand) []provenance.Var {
		t := f.Trees[c.tree]
		var vars []provenance.Var
		for _, ch := range t.Children(c.node) {
			if v, ok := s.Vocab.Lookup(t.Label(ch)); ok {
				vars = append(vars, v)
			}
		}
		return vars
	}

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
				vars := groupVarsOf(sc.c)
				rt := newResidueTable(cur, varSet(vars))
				dml := rt.groupML(vars)
				if dml > bestML {
					bestML = dml
					pick = sc.c
				}
			}
		}

		// Promote pick: S ← (S \ children) ∪ {pick}; abstract cur.
		t := f.Trees[pick.tree]
		vars := groupVarsOf(pick)
		meta := t.VarOf(s.Vocab, pick.node)
		subst := make(map[provenance.Var]provenance.Var, len(vars))
		for _, v := range vars {
			subst[v] = meta
		}
		before := sizeOf(cur)
		for i, p := range cur {
			cur[i] = p.Substitute(subst)
		}
		curML += before - sizeOf(cur)
		totalVL += len(vars) - 1

		for _, ch := range t.Children(pick.node) {
			delete(chosen[pick.tree], ch)
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

// oracleOptimal is Algorithm 1 on a string-keyed residue table.
func oracleOptimal(s *provenance.Set, tree *abstree.Tree, B int) (*Result, error) {
	inst, err := NewInstance(s, abstree.MustForest(tree))
	if err != nil {
		return nil, err
	}
	k := s.Size() - B
	if inst.Forest.Len() == 0 || k <= 0 {
		// Nothing to (or no need to) abstract: the identity selection.
		v := abstree.LeafVVS(inst.Forest)
		return &Result{VVS: v, ML: 0, VL: 0, Adequate: k <= 0}, nil
	}
	t := inst.Forest.Trees[0]

	leafVars := make(map[provenance.Var]bool)
	for _, l := range t.Leaves() {
		if v, ok := s.Vocab.Lookup(t.Label(l)); ok {
			leafVars[v] = true
		}
	}
	rt := newResidueTable(polysOf(s), leafVars)

	tables := make([]nodeTable, t.Len())
	// Bottom-up: children have higher indices than parents is NOT guaranteed
	// by construction order alone, but parents always precede children in
	// the builder's DFS numbering, so iterating indices in reverse is a
	// valid post-order.
	for v := t.Len() - 1; v >= 0; v-- {
		if t.IsLeaf(v) {
			tables[v] = nodeTable{0: entry{vl: 0, self: true}}
			continue
		}
		tab := combineChildren(tables, t.Children(v), k)
		// The "collapse the whole subtree into {v}" option.
		mlv := rt.groupML(activeLeafVars(s, t, v))
		vlv := len(t.LeavesUnder(v)) - 1
		idx := mlv
		if idx > k {
			idx = k
		}
		if cur, ok := tab[idx]; !ok || vlv < cur.vl {
			tab[idx] = entry{vl: vlv, self: true}
		}
		tables[v] = tab
	}

	root := tables[t.Root()]
	if e, ok := root[k]; ok {
		cut := reconstruct(tables, t, t.Root(), k)
		v := &abstree.VVS{Forest: inst.Forest, Nodes: [][]int{cut}}
		if err := v.Validate(); err != nil {
			return nil, fmt.Errorf("core: internal error, reconstructed VVS invalid: %w", err)
		}
		return &Result{VVS: v, ML: MonomialLoss(s, v), VL: e.vl, Adequate: true}, nil
	}
	// No adequate VVS: fall back to the max-ML entry (min VL among ties).
	bestI := -1
	for i, e := range root {
		if i > bestI || (i == bestI && e.vl < root[bestI].vl) {
			bestI = i
		}
	}
	cut := reconstruct(tables, t, t.Root(), bestI)
	v := &abstree.VVS{Forest: inst.Forest, Nodes: [][]int{cut}}
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("core: internal error, reconstructed VVS invalid: %w", err)
	}
	return &Result{VVS: v, ML: MonomialLoss(s, v), VL: root[bestI].vl, Adequate: false}, nil
}
