package abstree

import (
	"fmt"

	"provabs/internal/provenance"
)

// Forest is a valid abstraction forest (Def. of §2.3): a set of abstraction
// trees with pairwise-disjoint label sets.
type Forest struct {
	Trees []*Tree
}

// NewForest validates label disjointness and returns the forest.
func NewForest(trees ...*Tree) (*Forest, error) {
	seen := make(map[string]int)
	for ti, t := range trees {
		for _, l := range t.labels {
			if prev, dup := seen[l]; dup {
				return nil, fmt.Errorf("abstree: label %q appears in trees %d and %d; forest trees must be disjoint", l, prev, ti)
			}
			seen[l] = ti
		}
	}
	return &Forest{Trees: trees}, nil
}

// MustForest is NewForest that panics on error.
func MustForest(trees ...*Tree) *Forest {
	f, err := NewForest(trees...)
	if err != nil {
		panic(err)
	}
	return f
}

// Len returns the number of trees.
func (f *Forest) Len() int { return len(f.Trees) }

// NodeCount returns the total number of nodes across all trees (the n in the
// complexity bounds).
func (f *Forest) NodeCount() int {
	n := 0
	for _, t := range f.Trees {
		n += t.Len()
	}
	return n
}

// TreeOfLabel returns the tree containing the label, if any.
func (f *Forest) TreeOfLabel(label string) (*Tree, int, bool) {
	for _, t := range f.Trees {
		if i, ok := t.NodeByLabel(label); ok {
			return t, i, ok
		}
	}
	return nil, 0, false
}

// CompatibleWith checks the paper's compatibility requirements against a
// polynomial set (§2.2): every tree leaf that occurs in P occurs as a
// variable (trivially true — leaves *are* names), no internal node label
// occurs as a polynomial variable, and every monomial contains at most one
// node of each tree.
//
// It checks every tree in one walk over the set's keys, looking each
// variable's tree up in an array, and builds no Monomial per term. Of
// several violations it reports the one a tree-by-tree scan would meet
// first: trees in order, a tree's internal labels before its monomials, and
// monomials by polynomial, then key.
func (f *Forest) CompatibleWith(s *provenance.Set) error {
	nv := s.Vocab.Len() + 1
	treeOf := make([]int32, nv) // treeOf[v]: the tree v is a leaf of, or -1
	for i := range treeOf {
		treeOf[i] = -1
	}
	for ti, t := range f.Trees {
		for _, l := range t.Leaves() {
			if v, ok := s.Vocab.Lookup(t.Label(l)); ok {
				treeOf[v] = int32(ti)
			}
		}
	}
	tree := func(v provenance.Var) int32 {
		if v <= 0 || int(v) >= nv {
			return -1
		}
		return treeOf[v]
	}
	inP := make([]bool, nv)
	type violation struct {
		found bool
		poly  int
		key   provenance.MonomialKey
		coeff float64
		nodes int
	}
	first := make([]violation, len(f.Trees))
	var buf []provenance.VarPow
	for pi, p := range s.Polys {
		for k, c := range p.Terms() {
			buf = k.AppendVars(buf[:0])
		vars:
			for i, vp := range buf {
				ti := tree(vp.Var)
				if vp.Var > 0 && int(vp.Var) < nv {
					inP[vp.Var] = true
				}
				if ti < 0 {
					continue
				}
				for _, w := range buf[:i] {
					if tree(w.Var) == ti {
						continue vars // counted at the tree's first node
					}
				}
				nodes := 1
				for _, w := range buf[i+1:] {
					if tree(w.Var) == ti {
						nodes++
					}
				}
				if v := &first[ti]; nodes > 1 && (!v.found || pi == v.poly && k < v.key) {
					*v = violation{found: true, poly: pi, key: k, coeff: c, nodes: nodes}
				}
			}
		}
	}
	for ti, t := range f.Trees {
		for i := 0; i < t.Len(); i++ {
			if t.IsLeaf(i) {
				continue
			}
			if v, ok := s.Vocab.Lookup(t.Label(i)); ok && inP[v] {
				return fmt.Errorf("abstree: internal node %q of tree %d occurs as a variable in the polynomials; meta-variables must be fresh", t.Label(i), ti)
			}
		}
		if v := first[ti]; v.found {
			m := provenance.NewMonomialPows(v.coeff, v.key.AppendVars(nil)...)
			return fmt.Errorf("abstree: monomial %s of polynomial %d contains %d nodes of tree %d; compatibility requires at most one", m.String(s.Vocab), v.poly, v.nodes, ti)
		}
	}
	return nil
}

// Clean returns a copy of the forest with redundant nodes removed (footnote
// 1 of the paper): leaves whose label does not occur as a variable of s are
// dropped, internal nodes left with no active descendant leaves are dropped
// with them, and internal nodes left with exactly one child are contracted
// to that child (choosing such a node is equivalent to choosing its child,
// so keeping both only adds no-op abstraction steps — Example 15's cleaned
// forest exhibits this contraction). Trees whose root becomes empty are
// removed entirely.
func (f *Forest) Clean(s *provenance.Set) *Forest {
	active := make(map[string]bool)
	for v := range s.VarSet() {
		active[s.Vocab.Name(v)] = true
	}
	var trees []*Tree
	for _, t := range f.Trees {
		spec, keep := cleanSpec(t, 0, active)
		if !keep {
			continue
		}
		nt, err := NewTree(spec)
		if err != nil {
			// Labels were unique before cleaning; they stay unique.
			panic(err)
		}
		trees = append(trees, nt)
	}
	return &Forest{Trees: trees}
}

func cleanSpec(t *Tree, n int, active map[string]bool) (Spec, bool) {
	if t.IsLeaf(n) {
		if active[t.Label(n)] {
			return Spec{Label: t.Label(n)}, true
		}
		return Spec{}, false
	}
	spec := Spec{Label: t.Label(n)}
	for _, c := range t.children[n] {
		cs, keep := cleanSpec(t, c, active)
		if keep {
			spec.Children = append(spec.Children, cs)
		}
	}
	if len(spec.Children) == 0 {
		return Spec{}, false
	}
	if len(spec.Children) == 1 {
		return spec.Children[0], true
	}
	return spec, true
}
