package core

import (
	"fmt"
	"sort"

	"provabs/internal/abstree"
	"provabs/internal/provenance"
)

// OptimalVVS implements Algorithm 1: optimal valid-variable selection for a
// single abstraction tree, in polynomial time (Proposition 12).
//
// For every node v it computes a sparse table A_v mapping an achievable
// monomial loss i ∈ {0..k} (k = |P|_M − B; the entry k stands for "ML ≥ k")
// to the minimum variable loss of a VVS, drawn from v's subtree, achieving
// it. Tables combine bottom-up by a saturating knapsack over the children
// (losses from different children are additive because each monomial
// contains at most one node of the tree), and each internal node adds the
// "collapse to {v}" option with ML(v) computed via the §4.1 residue tables.
// The answer is read from the root entry k, and the VVS is reconstructed by
// pointer chasing.
//
// When no VVS achieves ML ≥ k (no adequate abstraction exists — Example 8),
// the returned Result carries Adequate=false and the VVS with maximum ML
// (ties broken toward smaller VL).
func OptimalVVS(s *provenance.Set, tree *abstree.Tree, B int) (*Result, error) {
	res, _, err := optimal(s, tree, B)
	return res, err
}

// optimal runs Algorithm 1 and also returns the abstracted set; the
// selection's monomial loss is read off its size.
func optimal(s *provenance.Set, tree *abstree.Tree, B int) (*Result, *provenance.Set, error) {
	if B < 1 {
		return nil, nil, fmt.Errorf("core: bound B=%d must be at least 1", B)
	}
	forest, err := abstree.NewForest(tree)
	if err != nil {
		return nil, nil, err
	}
	inst, err := NewInstance(s, forest)
	if err != nil {
		return nil, nil, err
	}
	var leaves []provenance.Var
	if inst.Forest.Len() == 1 {
		t := inst.Forest.Trees[0]
		leaves = activeLeafVars(s, t, t.Root())
	}
	tab := newTable(s, leaves)
	res, err := optimalOnTable(inst, tab, B)
	if err != nil {
		return nil, nil, err
	}
	abs := s.Substitute(res.VVS.Subst(s.Vocab))
	res.ML = s.Size() - abs.Size()
	return res, abs, nil
}

// optimalOnTable selects the VVS; the caller fills in its monomial loss.
func optimalOnTable(inst *Instance, tab *table, B int) (*Result, error) {
	s := inst.Set
	k := s.Size() - B
	if inst.Forest.Len() == 0 || k <= 0 {
		// Nothing to (or no need to) abstract: the identity selection.
		v := abstree.LeafVVS(inst.Forest)
		return &Result{VVS: v, VL: 0, Adequate: k <= 0}, nil
	}
	t := inst.Forest.Trees[0]
	var rs residueSet

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
		nt := combineChildren(tables, t.Children(v), k)
		// The "collapse the whole subtree into {v}" option.
		mlv := tab.groupML(&rs, activeLeafVars(s, t, v))
		vlv := len(t.LeavesUnder(v)) - 1
		idx := mlv
		if idx > k {
			idx = k
		}
		if cur, ok := nt[idx]; !ok || vlv < cur.vl {
			nt[idx] = entry{vl: vlv, self: true}
		}
		tables[v] = nt
	}

	root := tables[t.Root()]
	if e, ok := root[k]; ok {
		cut := reconstruct(tables, t, t.Root(), k)
		v := &abstree.VVS{Forest: inst.Forest, Nodes: [][]int{cut}}
		if err := v.Validate(); err != nil {
			return nil, fmt.Errorf("core: internal error, reconstructed VVS invalid: %w", err)
		}
		return &Result{VVS: v, VL: e.vl, Adequate: true}, nil
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
	return &Result{VVS: v, VL: root[bestI].vl, Adequate: false}, nil
}

// entry is one cell of a node table: the minimal variable loss achieving the
// cell's monomial loss, plus the reconstruction choice.
type entry struct {
	vl    int
	self  bool  // choose {v} itself (for leaves this is the identity choice)
	parts []int // else: per-child table keys, aligned with Children(v)
}

// nodeTable maps monomial loss (saturated at k) to the best entry. Sparse:
// most losses are unachievable (§4.1 "Optimizing Av computation").
type nodeTable map[int]entry

// combineChildren performs the saturating knapsack over child tables
// (procedure computeArray of Algorithm 1, on sparse maps).
func combineChildren(tables []nodeTable, children []int, k int) nodeTable {
	acc := nodeTable{0: entry{vl: 0, parts: nil}}
	for ci, c := range children {
		child := tables[c]
		next := make(nodeTable, len(acc))
		// Deterministic iteration keeps reconstruction stable.
		accKeys := sortedKeys(acc)
		childKeys := sortedKeys(child)
		for _, i := range accKeys {
			e1 := acc[i]
			for _, j := range childKeys {
				e2 := child[j]
				idx := i + j
				if idx > k {
					idx = k
				}
				vl := e1.vl + e2.vl
				if cur, ok := next[idx]; !ok || vl < cur.vl {
					parts := make([]int, ci+1)
					copy(parts, e1.parts)
					parts[ci] = j
					next[idx] = entry{vl: vl, parts: parts}
				}
			}
		}
		acc = next
	}
	return acc
}

func sortedKeys(t nodeTable) []int {
	out := make([]int, 0, len(t))
	for i := range t {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// reconstruct walks the choice pointers from node v's table entry at key,
// emitting the chosen cut (sorted node indices).
func reconstruct(tables []nodeTable, t *abstree.Tree, v, key int) []int {
	e := tables[v][key]
	if e.self {
		return []int{v}
	}
	var out []int
	for ci, c := range t.Children(v) {
		out = append(out, reconstruct(tables, t, c, e.parts[ci])...)
	}
	sort.Ints(out)
	return out
}

// activeLeafVars returns the provenance variables of the active leaves under
// node v.
func activeLeafVars(s *provenance.Set, t *abstree.Tree, v int) []provenance.Var {
	var out []provenance.Var
	for _, l := range t.LeavesUnder(v) {
		if lv, ok := s.Vocab.Lookup(t.Label(l)); ok {
			out = append(out, lv)
		}
	}
	return out
}
