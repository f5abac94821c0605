package provenance

// evalOracle evaluates every polynomial of s on its map form: the
// map-based Set.Eval, kept as the oracle the compiled evaluators are
// checked against.
func evalOracle(s *Set, val map[Var]float64) []float64 {
	out := make([]float64, s.Len())
	for i := range out {
		out[i] = s.Poly(i).Eval(val)
	}
	return out
}

// substituteOracle is P↓S on the map form, polynomial by polynomial: the
// map-based Set.Substitute, kept as the oracle the array Set.Substitute is
// checked against.
func substituteOracle(s *Set, subst map[Var]Var) []*Polynomial {
	out := make([]*Polynomial, s.Len())
	for i := range out {
		out[i] = s.Poly(i).Substitute(subst)
	}
	return out
}
