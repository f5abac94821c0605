package provenance

import (
	"iter"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Polynomial is a sum of monomials in canonical form: at most one monomial
// per distinct variable part. The zero value is the zero polynomial.
//
// A Polynomial does not retain a Vocab; callers thread the Vocab through the
// operations that need names (printing, parsing).
type Polynomial struct {
	terms map[MonomialKey]float64
}

// NewPolynomial returns an empty (zero) polynomial.
func NewPolynomial() *Polynomial {
	return &Polynomial{terms: make(map[MonomialKey]float64)}
}

// FromMonomials builds a polynomial as the sum of the given monomials.
func FromMonomials(ms ...Monomial) *Polynomial {
	p := &Polynomial{terms: make(map[MonomialKey]float64, len(ms))}
	for _, m := range ms {
		p.AddMonomial(m)
	}
	return p
}

// AddMonomial adds a monomial into the polynomial, merging with an existing
// term with the same variable part. Terms whose coefficient becomes exactly
// zero are removed, keeping the representation canonical.
func (p *Polynomial) AddMonomial(m Monomial) {
	if p.terms == nil {
		p.terms = make(map[MonomialKey]float64)
	}
	p.addKey(m.Key(), m.Coeff)
}

// AddTerm adds coeff·Πvars without constructing an intermediate Monomial.
func (p *Polynomial) AddTerm(coeff float64, vars ...Var) {
	p.AddMonomial(NewMonomial(coeff, vars...))
}

func (p *Polynomial) addKey(k MonomialKey, coeff float64) {
	c := p.terms[k] + coeff
	if c == 0 {
		delete(p.terms, k)
	} else {
		p.terms[k] = c
	}
}

// Size returns |P|_M, the number of monomials. This is the paper's primary
// provenance-size measure.
func (p *Polynomial) Size() int {
	if p == nil {
		return 0
	}
	return len(p.terms)
}

// Vars returns V(P), the set of distinct variables, as a sorted slice.
func (p *Polynomial) Vars() []Var {
	seen, _, _ := p.markVars(nil, nil)
	return varsOf(seen)
}

// Granularity returns |P|_V, the number of distinct variables.
func (p *Polynomial) Granularity() int {
	seen, _, _ := p.markVars(nil, nil)
	return countVars(seen)
}

// VarSet returns the set of distinct variables as a map.
func (p *Polynomial) VarSet() map[Var]bool {
	seen, _, _ := p.markVars(nil, nil)
	return varSetOf(seen)
}

// markVars sets seen[v] for every variable v of p, growing seen as needed,
// and counts the marks it newly set. Keys are decoded into buf, which it
// returns for reuse, so a walk over any number of terms allocates only when
// seen or buf grows.
func (p *Polynomial) markVars(seen []bool, buf []VarPow) ([]bool, []VarPow, int) {
	added := 0
	for k := range p.terms {
		buf = k.AppendVars(buf[:0])
		for _, vp := range buf {
			if int(vp.Var) >= len(seen) {
				seen = append(seen, make([]bool, int(vp.Var)+1-len(seen))...)
			}
			if !seen[vp.Var] {
				seen[vp.Var] = true
				added++
			}
		}
	}
	return seen, buf, added
}

// varsOf lists the marked variables in ascending order.
func varsOf(seen []bool) []Var {
	out := make([]Var, 0, countVars(seen))
	for v, ok := range seen {
		if ok {
			out = append(out, Var(v))
		}
	}
	return out
}

func countVars(seen []bool) int {
	n := 0
	for _, ok := range seen {
		if ok {
			n++
		}
	}
	return n
}

func varSetOf(seen []bool) map[Var]bool {
	out := make(map[Var]bool, countVars(seen))
	for v, ok := range seen {
		if ok {
			out[Var(v)] = true
		}
	}
	return out
}

// Terms iterates over the terms of p — each monomial's key and
// coefficient — in unspecified order. Together with MonomialKey.AppendVars
// it walks a polynomial without building a Monomial per term.
func (p *Polynomial) Terms() iter.Seq2[MonomialKey, float64] {
	return func(yield func(MonomialKey, float64) bool) {
		if p == nil {
			return
		}
		for k, c := range p.terms {
			if !yield(k, c) {
				return
			}
		}
	}
}

// FromKeys builds the polynomial Σ coeffs[i]·keys[i], adding the terms in
// order: equal keys merge by summing their coefficients left to right, and a
// sum of exactly zero drops the term, as in AddMonomial. Keys must be
// canonical (Monomial.Key or AppendKey output).
func FromKeys(keys []MonomialKey, coeffs []float64) *Polynomial {
	p := &Polynomial{terms: make(map[MonomialKey]float64, len(keys))}
	for i, k := range keys {
		p.addKey(k, coeffs[i])
	}
	return p
}

// Monomials returns the monomials in a deterministic (key-sorted) order.
func (p *Polynomial) Monomials() []Monomial {
	keys := make([]string, 0, len(p.terms))
	for k := range p.terms {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	out := make([]Monomial, len(keys))
	for i, k := range keys {
		out[i] = Monomial{Coeff: p.terms[MonomialKey(k)], vars: parseKey(MonomialKey(k))}
	}
	return out
}

// Coeff returns the coefficient of the monomial with the given variable part
// (0 when absent).
func (p *Polynomial) Coeff(vars ...Var) float64 {
	return p.terms[NewMonomial(1, vars...).Key()]
}

// Clone returns a deep copy.
func (p *Polynomial) Clone() *Polynomial {
	q := &Polynomial{terms: make(map[MonomialKey]float64, len(p.terms))}
	for k, c := range p.terms {
		q.terms[k] = c
	}
	return q
}

// Add returns p + q as a new polynomial.
func (p *Polynomial) Add(q *Polynomial) *Polynomial {
	out := p.Clone()
	for k, c := range q.terms {
		out.addKey(k, c)
	}
	return out
}

// Mul returns p · q as a new polynomial.
func (p *Polynomial) Mul(q *Polynomial) *Polynomial {
	out := NewPolynomial()
	pm := p.Monomials()
	qm := q.Monomials()
	for _, a := range pm {
		for _, b := range qm {
			out.AddMonomial(a.Mul(b))
		}
	}
	return out
}

// Scale returns c · p as a new polynomial.
func (p *Polynomial) Scale(c float64) *Polynomial {
	out := NewPolynomial()
	for k, x := range p.terms {
		out.addKey(k, x*c)
	}
	return out
}

// Substitute returns P↓S for the variable mapping subst (leaf variable →
// abstracting meta-variable). Variables absent from subst stay intact.
// Monomials that become identical merge, summing coefficients; this is
// exactly the paper's abstraction semantics (Example 2). Source terms are
// visited in key order, so merged coefficients are summed in a fixed order
// and two substitutions of one polynomial agree to the last bit.
func (p *Polynomial) Substitute(subst map[Var]Var) *Polynomial {
	keys := make([]MonomialKey, 0, len(p.terms))
	for k := range p.terms {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := &Polynomial{terms: make(map[MonomialKey]float64, len(p.terms))}
	for _, k := range keys {
		out.addKey(substKey(k, subst), p.terms[k])
	}
	return out
}

// Residues returns the residue keys — each monomial containing v with v
// replaced by the Hole placeholder — of every monomial of p that contains v.
// Residues are the basis of the paper's §4.1 one-pass monomial-loss
// computation: when a group of variables is unified, two monomials merge
// exactly when their residues (w.r.t. their respective group members) are
// equal. Since p is canonical, residues for a fixed v are pairwise distinct,
// so len(Residues(v)) is also the number of monomials containing v.
func (p *Polynomial) Residues(v Var) []MonomialKey {
	var out []MonomialKey
	for k := range p.terms {
		if r, ok := residueKey(k, v); ok {
			out = append(out, r)
		}
	}
	return out
}

// VisitResidues calls fn(v, residue) for every monomial of p and every
// variable v ∈ vars the monomial contains, in a single pass over the
// polynomial — the §4.1 construction of the per-leaf residue tables D_P.
// Visiting order is unspecified.
func (p *Polynomial) VisitResidues(vars map[Var]bool, fn func(Var, MonomialKey)) {
	for k := range p.terms {
		vp := parseKey(k)
		for _, x := range vp {
			if !vars[x.Var] {
				continue
			}
			if r, ok := residueKey(k, x.Var); ok {
				fn(x.Var, r)
			}
		}
	}
}

// Eval computes the numeric value of the polynomial under a valuation.
// Variables missing from the valuation default to 1.
func (p *Polynomial) Eval(val map[Var]float64) float64 {
	sum := 0.0
	for k, c := range p.terms {
		m := Monomial{Coeff: c, vars: parseKey(k)}
		sum += m.Eval(val)
	}
	return sum
}

// Equal reports exact structural equality (same monomials, same
// coefficients).
func (p *Polynomial) Equal(q *Polynomial) bool {
	if p.Size() != q.Size() {
		return false
	}
	for k, c := range p.terms {
		if q.terms[k] != c {
			return false
		}
	}
	return true
}

// String renders the polynomial deterministically using names from vb,
// e.g. "220.8·p1·m1 + 240·p1·m3".
func (p *Polynomial) String(vb *Vocab) string {
	ms := p.Monomials()
	if len(ms) == 0 {
		return "0"
	}
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = m.String(vb)
	}
	return strings.Join(parts, " + ")
}

// trimFloat formats a float compactly ("240" not "240.000000").
func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func itoa(i int) string { return strconv.Itoa(i) }
