package provenance

import (
	"encoding/binary"
	"math"
	"sort"
	"strings"
)

// Monomial is a coefficient times a product of variables with positive
// exponents. The variable list is kept sorted by Var and deduplicated into
// (Var, exponent) pairs, so two monomials over the same Vocab are equal (up
// to coefficient) exactly when their Keys are equal.
type Monomial struct {
	Coeff float64
	vars  []VarPow // sorted by Var, exponents >= 1, no duplicates
}

// VarPow is a variable raised to a positive exponent.
type VarPow struct {
	Var Var
	Pow int32
}

// NewMonomial builds a canonical monomial from a coefficient and a variable
// list (repeats accumulate into exponents). The input slice is not retained.
func NewMonomial(coeff float64, vars ...Var) Monomial {
	if len(vars) == 0 {
		return Monomial{Coeff: coeff}
	}
	vs := append([]Var(nil), vars...)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	vp := make([]VarPow, 0, len(vs))
	for _, v := range vs {
		if n := len(vp); n > 0 && vp[n-1].Var == v {
			vp[n-1].Pow++
		} else {
			vp = append(vp, VarPow{Var: v, Pow: 1})
		}
	}
	return Monomial{Coeff: coeff, vars: vp}
}

// NewMonomialPows builds a canonical monomial from explicit (Var, Pow) pairs.
// Pairs with non-positive exponents are rejected by panic: they indicate a
// programming error, not bad data. The input slice is not retained.
func NewMonomialPows(coeff float64, pows ...VarPow) Monomial {
	vp := append([]VarPow(nil), pows...)
	sort.Slice(vp, func(i, j int) bool { return vp[i].Var < vp[j].Var })
	out := vp[:0]
	for _, p := range vp {
		if p.Pow <= 0 {
			panic("provenance: monomial exponent must be positive")
		}
		if n := len(out); n > 0 && out[n-1].Var == p.Var {
			out[n-1].Pow += p.Pow
		} else {
			out = append(out, p)
		}
	}
	return Monomial{Coeff: coeff, vars: out}
}

// Vars returns the (Var, exponent) pairs in ascending Var order. The returned
// slice is owned by the monomial and must not be modified.
func (m Monomial) Vars() []VarPow { return m.vars }

// Degree returns the total degree (sum of exponents).
func (m Monomial) Degree() int {
	d := 0
	for _, p := range m.vars {
		d += int(p.Pow)
	}
	return d
}

// NumVars returns the number of distinct variables.
func (m Monomial) NumVars() int { return len(m.vars) }

// IsConstant reports whether the monomial has no variables.
func (m Monomial) IsConstant() bool { return len(m.vars) == 0 }

// Contains reports whether v occurs in the monomial.
func (m Monomial) Contains(v Var) bool {
	i := sort.Search(len(m.vars), func(i int) bool { return m.vars[i].Var >= v })
	return i < len(m.vars) && m.vars[i].Var == v
}

// Pow returns the exponent of v in the monomial (0 if absent).
func (m Monomial) Pow(v Var) int32 {
	i := sort.Search(len(m.vars), func(i int) bool { return m.vars[i].Var >= v })
	if i < len(m.vars) && m.vars[i].Var == v {
		return m.vars[i].Pow
	}
	return 0
}

// Key returns the canonical byte key of the variable part of the monomial
// (coefficient excluded). Monomials with equal Keys merge under addition.
func (m Monomial) Key() MonomialKey { return makeKey(m.vars) }

// MonomialKey is the canonical identity of a monomial's variable part,
// suitable for use as a map key.
type MonomialKey string

// makeKey packs sorted (Var, Pow) pairs into a byte string.
func makeKey(vp []VarPow) MonomialKey {
	if len(vp) == 0 {
		return ""
	}
	return MonomialKey(AppendKey(make([]byte, 0, len(vp)*3), vp))
}

// AppendKey appends the canonical key bytes of the sorted, deduplicated
// (Var, Pow) pairs vp to dst. Pairs are varint-encoded with Var zig-zagged
// so the reserved negative Hole variable round-trips too. Byte order of two
// appended keys is the order of the MonomialKeys they spell.
func AppendKey(dst []byte, vp []VarPow) []byte {
	for _, p := range vp {
		dst = binary.AppendVarint(dst, int64(p.Var))
		dst = binary.AppendUvarint(dst, uint64(p.Pow))
	}
	return dst
}

// AppendVars decodes the key's (Var, Pow) pairs, in ascending Var order,
// onto dst. A walk over many keys that reuses one buffer allocates nothing
// per key.
func (k MonomialKey) AppendVars(dst []VarPow) []VarPow {
	for i := 0; i < len(k); {
		v, n := k.uvarint(i)
		p, m := k.uvarint(n)
		i = m
		dst = append(dst, VarPow{Var: Var(int64(v>>1) ^ -int64(v&1)), Pow: int32(p)})
	}
	return dst
}

// uvarint decodes the unsigned varint at byte i, returning it and the
// offset of the next byte. Keys are built by AppendKey, so a malformed one
// is a programming error.
func (k MonomialKey) uvarint(i int) (uint64, int) {
	var x uint64
	for s := uint(0); i < len(k) && s < 64; s += 7 {
		b := k[i]
		i++
		if b < 0x80 {
			return x | uint64(b)<<s, i
		}
		x |= uint64(b&0x7f) << s
	}
	panic("provenance: corrupt monomial key")
}

// parseKey decodes a MonomialKey back into (Var, Pow) pairs. Every pair
// takes at least two bytes, so the result is allocated once.
func parseKey(k MonomialKey) []VarPow {
	return k.AppendVars(make([]VarPow, 0, len(k)/2))
}

// substKey rewrites a key under a variable mapping, producing the canonical
// key of the substituted monomial. Variables absent from subst stay intact.
// Distinct source variables may map to the same target, in which case
// exponents accumulate.
func substKey(k MonomialKey, subst map[Var]Var) MonomialKey {
	vp := parseKey(k)
	changed := false
	for i, p := range vp {
		if t, ok := subst[p.Var]; ok && t != p.Var {
			vp[i].Var = t
			changed = true
		}
	}
	if !changed {
		return k
	}
	sort.Slice(vp, func(i, j int) bool { return vp[i].Var < vp[j].Var })
	out := vp[:0]
	for _, p := range vp {
		if n := len(out); n > 0 && out[n-1].Var == p.Var {
			out[n-1].Pow += p.Pow
		} else {
			out = append(out, p)
		}
	}
	return makeKey(out)
}

// residueKey returns the key of the monomial with variable v replaced by the
// Hole placeholder (preserving v's exponent), and ok=false when v does not
// occur. Two monomials merge when v's tree-siblings are unified exactly when
// their residue keys are equal, which is the basis of the paper's §4.1
// one-pass monomial-loss computation.
func residueKey(k MonomialKey, v Var) (MonomialKey, bool) {
	vp := parseKey(k)
	found := false
	for i, p := range vp {
		if p.Var == v {
			vp[i].Var = Hole
			found = true
			break
		}
	}
	if !found {
		return "", false
	}
	sort.Slice(vp, func(i, j int) bool { return vp[i].Var < vp[j].Var })
	return makeKey(vp), true
}

// Mul returns the product of two monomials.
func (m Monomial) Mul(o Monomial) Monomial {
	vp := make([]VarPow, 0, len(m.vars)+len(o.vars))
	i, j := 0, 0
	for i < len(m.vars) && j < len(o.vars) {
		switch {
		case m.vars[i].Var < o.vars[j].Var:
			vp = append(vp, m.vars[i])
			i++
		case m.vars[i].Var > o.vars[j].Var:
			vp = append(vp, o.vars[j])
			j++
		default:
			vp = append(vp, VarPow{Var: m.vars[i].Var, Pow: m.vars[i].Pow + o.vars[j].Pow})
			i, j = i+1, j+1
		}
	}
	vp = append(vp, m.vars[i:]...)
	vp = append(vp, o.vars[j:]...)
	return Monomial{Coeff: m.Coeff * o.Coeff, vars: vp}
}

// Eval computes the numeric value of the monomial under a valuation.
// Variables missing from the valuation default to 1 (the identity — "no
// change" in the multiplicative what-if reading).
func (m Monomial) Eval(val map[Var]float64) float64 {
	x := m.Coeff
	for _, p := range m.vars {
		v, ok := val[p.Var]
		if !ok {
			continue
		}
		switch p.Pow {
		case 1:
			x *= v
		case 2:
			x *= v * v
		default:
			x *= math.Pow(v, float64(p.Pow))
		}
	}
	return x
}

// String renders the monomial using names from vb, e.g. "220.8·p1·m1".
func (m Monomial) String(vb *Vocab) string {
	var sb strings.Builder
	sb.WriteString(trimFloat(m.Coeff))
	for _, p := range m.vars {
		sb.WriteString("·")
		if p.Var == Hole {
			sb.WriteString("◊")
		} else {
			sb.WriteString(vb.Name(p.Var))
		}
		if p.Pow > 1 {
			sb.WriteString("^")
			sb.WriteString(itoa(int(p.Pow)))
		}
	}
	return sb.String()
}
