package provenance

import (
	"fmt"
	"math"
)

// Carrier is a commutative semiring over T together with the hooks the
// compiled kernel needs to evaluate provenance polynomials in it. The
// polynomials themselves live in N[X], the universal semiring (Green et
// al., PODS'07): evaluating one under a carrier-valued valuation is the
// unique semiring homomorphism extending that valuation, so one compiled
// form answers numeric what-ifs, boolean deletion propagation, derivation
// counting, tropical min-cost and max-min security queries alike.
type Carrier[T any] interface {
	// Zero and One are the additive and multiplicative identities.
	Zero() T
	One() T
	Add(a, b T) T
	Mul(a, b T) T
	// NAdd is the n-fold sum x + x + … + x — the multiplicity hook. A
	// monomial coefficient n means "n derivations of this shape", and a
	// carrier turns it into NAdd(n, One()) in O(1) (n·x for counting, a
	// keep/drop test for the idempotent carriers) instead of a repeated-
	// addition loop. NAdd(0, x) must be Zero.
	NAdd(n int64, x T) T
	Equal(a, b T) bool
	// FromCoeff converts an N[X] monomial coefficient into the carrier at
	// compile time. Most carriers require a natural multiplicity (see
	// NaturalCoeff) and map it through NAdd(n, One()); the float carrier
	// passes the raw coefficient through so real-valued workloads (tariffs,
	// probabilities) keep today's semantics bit for bit.
	FromCoeff(c float64) (T, error)
	// Value parses a scenario assignment — always a float64 at the API
	// surface (JSON, CLI flags) — into the carrier: keep/delete for bool,
	// a count, a cost, a clearance level. It rejects assignments that have
	// no meaning in the carrier.
	Value(x float64) (T, error)
}

// NaturalTolerance is how far from an integer a float coefficient may stray
// and still be accepted as a natural multiplicity. Compression's summarize
// path accumulates multiplicities in floating point and can emit
// 2.9999999999 for 3.
const NaturalTolerance = 1e-9

// NaturalCoeff converts an N[X] coefficient to its integer multiplicity,
// accepting values within NaturalTolerance of a non-negative integer.
func NaturalCoeff(c float64) (int64, error) {
	n := math.Round(c)
	if math.IsNaN(c) || math.Abs(c-n) > NaturalTolerance || n < 0 {
		return 0, fmt.Errorf("coefficient %v is not a natural multiplicity", c)
	}
	return int64(n), nil
}

// kernelArrays is the flattened term data of a compiled kernel, split out
// so a carrier's fused bulk kernel (bulkKernel) receives the hot-loop
// state through a single pointer.
type kernelArrays[T any] struct {
	polyOff []int32 // polynomial i owns terms [polyOff[i], polyOff[i+1])
	coeffs  []T     // one coefficient per term
	factOff []int32 // term t owns factors [factOff[t], factOff[t+1])
	vars    []Var   // factor variables, indexed by factOff
	pows    []int32 // factor exponents, parallel to vars

	allPow1 bool // every exponent is 1: enables the branch-free fast path
}

// bulkKernel is the optional fused-loop interface a carrier may implement
// to replace the kernel's generic evaluation loops with monomorphic ones.
// It exists for one reason: Go's gcshape stenciling dispatches the generic
// loops' Add/Mul through a dictionary, and the float64 hot path must keep
// its pre-generic codegen. The kernel detects the interface once at
// construction, so evaluation pays a single interface call per range, per
// id list or per single polynomial, never per term. All three must run one
// per-polynomial loop: a compiler may fuse a multiply-add differently in
// two copies of it, and every path's answers must stay bit-identical.
type bulkKernel[T any] interface {
	evalBulk(a *kernelArrays[T], lo, hi int, val, out []T)
	evalBulkIDs(a *kernelArrays[T], ids []int32, val, out []T)
	evalBulkPoly(a *kernelArrays[T], i int, val []T) T
}

// Float is the numeric (+,×) carrier over float64 — the paper's semiring,
// and the default throughout the Engine, the CLI and the HTTP API. It is
// the one carrier with a fused bulk kernel, so Kernel[float64, Float]
// evaluation runs the exact pre-generic loops.
type Float struct{}

// Zero returns 0.
func (Float) Zero() float64 { return 0 }

// One returns 1.
func (Float) One() float64 { return 1 }

// Add returns a + b.
func (Float) Add(a, b float64) float64 { return a + b }

// Mul returns a · b.
func (Float) Mul(a, b float64) float64 { return a * b }

// NAdd returns n · x.
func (Float) NAdd(n int64, x float64) float64 { return float64(n) * x }

// Equal is exact float equality (the kernel guarantees bit-identical
// results across its evaluation paths, so no tolerance is needed).
func (Float) Equal(a, b float64) bool { return a == b }

// FromCoeff passes the raw coefficient through: the numeric carrier admits
// real-valued multiplicities (tariffs, probabilities).
func (Float) FromCoeff(c float64) (float64, error) { return c, nil }

// Value passes the raw assignment through.
func (Float) Value(x float64) (float64, error) { return x, nil }

func (Float) evalBulk(a *kernelArrays[float64], lo, hi int, val, out []float64) {
	poly := floatLoop(a)
	for pi := lo; pi < hi; pi++ {
		out[pi] = poly(a, pi, val)
	}
}

func (Float) evalBulkIDs(a *kernelArrays[float64], ids []int32, val, out []float64) {
	poly := floatLoop(a)
	for _, pi := range ids {
		out[pi] = poly(a, int(pi), val)
	}
}

func (Float) evalBulkPoly(a *kernelArrays[float64], i int, val []float64) float64 {
	return floatLoop(a)(a, i, val)
}

// floatLoop picks the per-polynomial loop every float path runs: the
// linear one when every exponent is 1, the general one otherwise.
func floatLoop(a *kernelArrays[float64]) func(*kernelArrays[float64], int, []float64) float64 {
	if a.allPow1 {
		return evalLinearFloat
	}
	return evalGeneralFloat
}

// evalLinearFloat is the hot path: every exponent is 1 so each factor is a
// single multiply with no branching. The factor loop is unrolled four wide
// with a small-count switch — provenance monomials have one to three factors
// almost always, so most terms finish without entering a loop at all. Every
// multiply keeps the left-to-right association of the plain loop, so results
// stay bit-identical across paths.
func evalLinearFloat(a *kernelArrays[float64], pi int, val []float64) float64 {
	coeffs, factOff, vars := a.coeffs, a.factOff, a.vars
	sum := 0.0
	for t := a.polyOff[pi]; t < a.polyOff[pi+1]; t++ {
		x := coeffs[t]
		f, end := factOff[t], factOff[t+1]
		for ; end-f >= 4; f += 4 {
			x = x * val[vars[f]] * val[vars[f+1]] * val[vars[f+2]] * val[vars[f+3]]
		}
		switch end - f {
		case 1:
			x *= val[vars[f]]
		case 2:
			x = x * val[vars[f]] * val[vars[f+1]]
		case 3:
			x = x * val[vars[f]] * val[vars[f+1]] * val[vars[f+2]]
		}
		sum += x
	}
	return sum
}

// evalGeneralFloat handles arbitrary positive exponents: by repeated
// multiplication up to powLoopMax (exponents are small in provenance
// polynomials: they count self-joins), by squaring above it.
func evalGeneralFloat(a *kernelArrays[float64], pi int, val []float64) float64 {
	sum := 0.0
	for t := a.polyOff[pi]; t < a.polyOff[pi+1]; t++ {
		x := a.coeffs[t]
		for f := a.factOff[t]; f < a.factOff[t+1]; f++ {
			v := val[a.vars[f]]
			p := a.pows[f]
			if p > powLoopMax {
				x *= powBySquaring[float64](Float{}, v, p)
				continue
			}
			for ; p > 0; p-- {
				x *= v
			}
		}
		sum += x
	}
	return sum
}

// powLoopMax is the largest exponent the evaluators raise by repeated
// multiplication, one multiply per unit of exponent; a larger one is
// raised by squaring, in at most 62 multiplies, so an exponent as large as
// 2^31−1 costs no more than a few factors. Squaring rounds differently
// from the loop, so it is kept for exponents above every one whose answer
// bits are pinned: the shipped workloads' (1) and the tests' (at most 10),
// which the golden float digest covers.
const powLoopMax = 64

// powBySquaring returns v^p for p ≥ 1 in the carrier.
func powBySquaring[T any, C Carrier[T]](cr C, v T, p int32) T {
	r := cr.One()
	for ; p > 0; p >>= 1 {
		if p&1 != 0 {
			r = cr.Mul(r, v)
		}
		v = cr.Mul(v, v)
	}
	return r
}
