// Package core implements the paper's provenance-abstraction algorithms:
// applying abstractions (P↓S), the monomial-loss/variable-loss measures,
// Algorithm 1 (optimal valid-variable selection over a single abstraction
// tree, PTIME), Algorithm 2 (greedy selection over an abstraction forest),
// a brute-force reference solver, and the precise/adequate/optimal
// predicates of Definition 7.
//
// Algorithms 1 and 2 run on a packed monomial table built once per call:
// every monomial's polynomial, coefficient and sorted (variable, exponent)
// pairs in flat arrays, with an index from each tree leaf to the monomials
// holding it. Monomial loss is computed by §4.1's residue method on
// integer keys. The residue of a monomial with respect to a group variable
// is the monomial with that variable knocked out; unifying a group loses
// Σ_v |D[v]| − |∪_v D[v]| monomials, where D[v] holds the residues of the
// monomials containing v. A residue is a 64-bit hash — a sum of per-pair
// hashes, so knocking a variable out or replacing it is O(1) — and two
// residues with equal hashes are compared pair by pair, so counts are
// exact. Only the monomials holding a group variable are visited.
//
// Greedy promotes in place: a promotion merges each residue group of the
// current abstraction into one monomial, summing coefficients in the order
// re-substituting the set would, and dropping a sum of exactly zero. It
// caches each candidate's ΔML. A promotion rewrites only monomials holding
// one of the promoted node's children; compatibility leaves such a monomial
// no other node of that tree, and sibling candidates have disjoint
// children, so only candidates in other trees need recomputing. The
// abstracted set is built once, at the end, from the source monomials in
// key order, which makes it Float64bits-identical to Set.Substitute.
package core

import (
	"fmt"

	"provabs/internal/abstree"
	"provabs/internal/provenance"
)

// Instance bundles a polynomial multiset with a compatible abstraction
// forest. The forest stored here is already cleaned (footnote 1): leaves
// that do not occur in the polynomials, and internal nodes left without
// active descendants, are removed.
type Instance struct {
	Set    *provenance.Set
	Forest *abstree.Forest
}

// NewInstance validates compatibility (each monomial holds at most one node
// per tree, meta-variables are fresh), cleans the forest against the set,
// and returns the instance.
func NewInstance(s *provenance.Set, f *abstree.Forest) (*Instance, error) {
	if err := f.CompatibleWith(s); err != nil {
		return nil, err
	}
	return &Instance{Set: s, Forest: f.Clean(s)}, nil
}

// MustInstance is NewInstance that panics on error.
func MustInstance(s *provenance.Set, f *abstree.Forest) *Instance {
	in, err := NewInstance(s, f)
	if err != nil {
		panic(err)
	}
	return in
}

// MonomialLoss returns ML_P(S) = |P|_M − |P↓S|_M.
func MonomialLoss(s *provenance.Set, v *abstree.VVS) int {
	return s.Size() - v.Apply(s).Size()
}

// VariableLoss returns VL_P(S) = |P|_V − |P↓S|_V.
func VariableLoss(s *provenance.Set, v *abstree.VVS) int {
	return s.Granularity() - v.Apply(s).Granularity()
}

// Result is the outcome of a VVS-selection algorithm.
type Result struct {
	VVS      *abstree.VVS // the selected abstraction (over the cleaned forest)
	ML       int          // monomial loss of the selection
	VL       int          // variable loss of the selection
	Adequate bool         // ML ≥ |P|_M − B, i.e. |P↓S|_M ≤ B
}

// Sizes returns the abstracted sizes |P↓S|_M and |P↓S|_V implied by the
// result relative to the original set.
func (r *Result) Sizes(s *provenance.Set) (m, v int) {
	return s.Size() - r.ML, s.Granularity() - r.VL
}

// IsAdequate reports whether the abstraction meets the bound:
// |P↓S|_M ≤ B (Definition 7).
func IsAdequate(s *provenance.Set, v *abstree.VVS, B int) bool {
	return v.Apply(s).Size() <= B
}

// IsPrecise reports whether the abstraction hits the size and granularity
// exactly: |P↓S|_M = B and |P↓S|_V = K (Definition 7).
func IsPrecise(s *provenance.Set, v *abstree.VVS, B, K int) bool {
	abs := v.Apply(s)
	return abs.Size() == B && abs.Granularity() == K
}

// ErrNoAdequate is reported by exact solvers when no VVS meets the bound
// (possible — Example 8).
var ErrNoAdequate = fmt.Errorf("core: no valid variable set is adequate for the bound")

// GroupML computes the monomial loss of unifying the given variables into
// one fresh meta-variable using the §4.1 residue method on the packed table.
// It is the one-pass counterpart of NaiveGroupML and the primitive both
// Algorithm 1 and Algorithm 2 build on.
func GroupML(s *provenance.Set, vars []provenance.Var) int {
	return newTable(s, vars).groupML(&residueSet{}, vars)
}

// BatchGroupML computes the monomial loss of every group on one table
// indexed over the union of the groups' variables — the access pattern of
// Algorithm 1, which queries one table for every node of the tree. This is
// where the §4.1 optimization pays: the polynomials are packed once rather
// than scanned once per group.
func BatchGroupML(s *provenance.Set, groups [][]provenance.Var) []int {
	var union []provenance.Var
	for _, g := range groups {
		union = append(union, g...)
	}
	tab := newTable(s, union)
	var rs residueSet
	out := make([]int, len(groups))
	for i, g := range groups {
		out[i] = tab.groupML(&rs, g)
	}
	return out
}

// NaiveGroupML computes the same quantity by substituting and re-counting;
// it is the reference the residue method is validated against in tests and
// ablated against in benchmarks.
func NaiveGroupML(s *provenance.Set, vars []provenance.Var, meta provenance.Var) int {
	subst := make(map[provenance.Var]provenance.Var, len(vars))
	for _, v := range vars {
		subst[v] = meta
	}
	return s.Size() - s.Substitute(subst).Size()
}
