package abstree

import (
	"fmt"
	"math/rand"
	"testing"

	"provabs/internal/provenance"
)

// oracleCompatibleWith is the tree-by-tree check CompatibleWith replaced:
// for each tree, rebuild V(P), then scan every polynomial's Monomials.
func oracleCompatibleWith(f *Forest, s *provenance.Set) error {
	for ti, t := range f.Trees {
		inP := make(map[provenance.Var]bool)
		for v := range s.VarSet() {
			inP[v] = true
		}
		memberVar := make(map[provenance.Var]bool)
		for i := 0; i < t.Len(); i++ {
			v, ok := s.Vocab.Lookup(t.Label(i))
			if !ok || !inP[v] {
				continue
			}
			if !t.IsLeaf(i) {
				return fmt.Errorf("abstree: internal node %q of tree %d occurs as a variable in the polynomials; meta-variables must be fresh", t.Label(i), ti)
			}
			memberVar[v] = true
		}
		for pi := range s.Len() {
			for _, m := range s.Poly(pi).Monomials() {
				count := 0
				for _, vp := range m.Vars() {
					if memberVar[vp.Var] {
						count++
					}
				}
				if count > 1 {
					return fmt.Errorf("abstree: monomial %s of polynomial %d contains %d nodes of tree %d; compatibility requires at most one", m.String(s.Vocab), pi, count, ti)
				}
			}
		}
	}
	return nil
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestCompatibleWithMatchesOracle: the one-pass check accepts and rejects
// exactly what the tree-by-tree check does, with the same message — so the
// same tree, polynomial and monomial — on TestCompatibility's sets and on
// random sets that break compatibility in every way, often several times.
func TestCompatibleWithMatchesOracle(t *testing.T) {
	vb := provenance.NewVocab()
	f := MustForest(MustParseTree(plansTreeSpec), MustParseTree(yearTreeSpec))
	for _, src := range []string{"2·p1·m1 + 3·p2·m3", "2·p1·p2", "2·Plans·m1", "2·p1·m1·m3 + p1·p2·y1 + Std·q1"} {
		s := provenance.NewSet(vb)
		s.Add("", provenance.MustParse(vb, src))
		if got, want := f.CompatibleWith(s), oracleCompatibleWith(f, s); !sameError(got, want) {
			t.Errorf("%s: CompatibleWith = %v, oracle = %v", src, got, want)
		}
	}

	rejected := 0
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vb := provenance.NewVocab()
		nTrees := 1 + rng.Intn(3)
		trees := make([]*Tree, nTrees)
		var names []string // every label of the forest plus foreign names
		for ti := range trees {
			spec := Spec{Label: fmt.Sprintf("R%d", ti)}
			for c := 0; c < 2+rng.Intn(2); c++ {
				child := Spec{Label: fmt.Sprintf("N%d.%d", ti, c)}
				for l := 0; l < 1+rng.Intn(3); l++ {
					child.Children = append(child.Children, Leaf(fmt.Sprintf("L%d.%d.%d", ti, c, l)))
				}
				spec.Children = append(spec.Children, child)
			}
			trees[ti] = MustTree(spec)
			for _, l := range trees[ti].LeafLabels() {
				for w := 0; w < 6; w++ { // leaves are drawn far more often than internal labels
					names = append(names, l)
				}
			}
			names = append(names, trees[ti].Labels()...)
		}
		names = append(names, "o1", "o2")
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		s := provenance.NewSet(vb)
		for pi := 0; pi < 1+rng.Intn(4); pi++ {
			p := provenance.NewPolynomial()
			for m := 0; m < 1+rng.Intn(6); m++ {
				var vars []provenance.Var
				for k := 0; k < rng.Intn(4); k++ {
					vars = append(vars, vb.Var(names[rng.Intn(len(names))]))
				}
				p.AddTerm(float64(1+rng.Intn(5)), vars...)
			}
			s.Add("", p)
		}
		f := MustForest(trees...)
		got, want := f.CompatibleWith(s), oracleCompatibleWith(f, s)
		if !sameError(got, want) {
			t.Fatalf("seed %d: CompatibleWith = %v, oracle = %v", seed, got, want)
		}
		if want != nil {
			rejected++
		}
	}
	if rejected < 100 {
		t.Errorf("only %d of 500 random sets were incompatible; the generator lost its teeth", rejected)
	}
}
