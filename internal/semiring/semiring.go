// Package semiring provides commutative semirings and the evaluation of
// provenance polynomials inside them. This realizes the paper's model 1
// (§2.1): polynomials over N[X] are the universal provenance semiring, and
// assigning semiring values to variables specializes them — Boolean values
// for existence/non-existence hypotheticals, counts for multiplicity,
// tropical costs and max-min clearance levels (Green et al., PODS'07).
//
// Every carrier here implements provenance.Carrier, so it plugs directly
// into the compiled evaluation stack: Kernel[T, C] gives each semiring the
// flat-array, delta-indexed, sharded evaluation paths that were previously
// float64-only, and Eval in this package is a thin wrapper over that
// kernel. The wire-selectable carriers (see Kind) flow end to end through
// the session Engine, the /v1 HTTP API and the CLI.
package semiring

import (
	"fmt"
	"math"

	"provabs/internal/provenance"
)

// Semiring is a commutative semiring over T: (T, Add, Zero) is a commutative
// monoid, (T, Mul, One) is a commutative monoid, Mul distributes over Add,
// and Zero annihilates Mul. Implementations must be value-semantics-safe
// (Eval may reuse results). Carriers additionally implement
// provenance.Carrier, which embeds these laws and adds the compile-time
// hooks (NAdd, FromCoeff, Value).
type Semiring[T any] interface {
	Zero() T
	One() T
	Add(a, b T) T
	Mul(a, b T) T
	Equal(a, b T) bool
}

// Eval evaluates the polynomial in the carrier semiring: coefficients are
// interpreted as multiplicities (NAdd), exponents as n-fold Mul, and
// variables are valuated through val. Coefficients must be within
// provenance.NaturalTolerance of a non-negative integer — the N[X] reading,
// with slack for float accumulation in the compression paths — except in
// the raw-float Numeric carrier; otherwise Eval reports an error.
//
// Eval compiles the polynomial and runs the generic kernel, so it agrees
// with Kernel.Eval by construction; callers evaluating many scenarios
// should compile once with provenance.CompileSet instead.
func Eval[T any, C provenance.Carrier[T]](sr C, p *provenance.Polynomial, val func(provenance.Var) T) (T, error) {
	var zero T
	k, err := provenance.CompilePolys[T, C](sr, []*provenance.Polynomial{p})
	if err != nil {
		return zero, fmt.Errorf("semiring: %w", err)
	}
	dense := k.NewValuation()
	seen := make(map[provenance.Var]bool)
	for _, m := range p.Monomials() {
		for _, vp := range m.Vars() {
			if !seen[vp.Var] {
				seen[vp.Var] = true
				dense[vp.Var] = val(vp.Var)
			}
		}
	}
	return k.Eval(dense, nil)[0], nil
}

// Counting is the counting semiring (N, +, ·, 0, 1): how many derivations
// produce the tuple.
type Counting struct{}

func (Counting) Zero() int64           { return 0 }
func (Counting) One() int64            { return 1 }
func (Counting) Add(a, b int64) int64  { return a + b }
func (Counting) Mul(a, b int64) int64  { return a * b }
func (Counting) Equal(a, b int64) bool { return a == b }

// NAdd returns n·x — the n-fold sum in O(1).
func (Counting) NAdd(n int64, x int64) int64 {
	if n <= 0 {
		return 0
	}
	return n * x
}

// FromCoeff converts a natural multiplicity to its count.
func (Counting) FromCoeff(c float64) (int64, error) { return provenance.NaturalCoeff(c) }

// Value parses a scenario assignment as a tuple multiplicity (0 deletes the
// tuple, n replicates it n-fold).
func (Counting) Value(x float64) (int64, error) { return provenance.NaturalCoeff(x) }

// Boolean is the Boolean semiring ({false,true}, ∨, ∧): does the tuple
// survive the hypothetical deletion scenario.
type Boolean struct{}

func (Boolean) Zero() bool           { return false }
func (Boolean) One() bool            { return true }
func (Boolean) Add(a, b bool) bool   { return a || b }
func (Boolean) Mul(a, b bool) bool   { return a && b }
func (Boolean) Equal(a, b bool) bool { return a == b }

// NAdd keeps x for any positive multiplicity (∨ is idempotent).
func (Boolean) NAdd(n int64, x bool) bool { return n > 0 && x }

// FromCoeff maps any positive multiplicity to true.
func (Boolean) FromCoeff(c float64) (bool, error) {
	n, err := provenance.NaturalCoeff(c)
	return n > 0, err
}

// Value parses a scenario assignment as survival: 0 deletes the tuple,
// anything else keeps it.
func (Boolean) Value(x float64) (bool, error) { return x != 0, nil }

// Tropical is the min-plus semiring (R∪{∞}, min, +, ∞, 0): cheapest
// derivation cost.
type Tropical struct{}

func (Tropical) Zero() float64            { return math.Inf(1) }
func (Tropical) One() float64             { return 0 }
func (Tropical) Add(a, b float64) float64 { return math.Min(a, b) }
func (Tropical) Mul(a, b float64) float64 { return a + b }
func (Tropical) Equal(a, b float64) bool  { return a == b }

// NAdd keeps x for any positive multiplicity (min is idempotent).
func (Tropical) NAdd(n int64, x float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return x
}

// FromCoeff maps any positive multiplicity to the zero-cost One.
func (Tropical) FromCoeff(c float64) (float64, error) {
	n, err := provenance.NaturalCoeff(c)
	if err != nil {
		return math.Inf(1), err
	}
	return (Tropical{}).NAdd(n, 0), nil
}

// Value parses a scenario assignment as the tuple's cost (+Inf deletes it).
func (Tropical) Value(x float64) (float64, error) {
	if math.IsNaN(x) {
		return 0, fmt.Errorf("cost is NaN")
	}
	return x, nil
}

// MinMax is the max-min access-control semiring (R∪{±∞}, max, min, −∞, +∞):
// valuate each tuple with its clearance level and the answer is the highest
// level at which it is still derivable — the best-supported derivation's
// weakest link (Foster et al.'s security semiring, with numeric levels).
type MinMax struct{}

func (MinMax) Zero() float64            { return math.Inf(-1) }
func (MinMax) One() float64             { return math.Inf(1) }
func (MinMax) Add(a, b float64) float64 { return math.Max(a, b) }
func (MinMax) Mul(a, b float64) float64 { return math.Min(a, b) }
func (MinMax) Equal(a, b float64) bool  { return a == b }

// NAdd keeps x for any positive multiplicity (max is idempotent).
func (MinMax) NAdd(n int64, x float64) float64 {
	if n <= 0 {
		return math.Inf(-1)
	}
	return x
}

// FromCoeff maps any positive multiplicity to the unconstraining One (+∞).
func (MinMax) FromCoeff(c float64) (float64, error) {
	n, err := provenance.NaturalCoeff(c)
	if err != nil {
		return math.Inf(-1), err
	}
	return (MinMax{}).NAdd(n, math.Inf(1)), nil
}

// Value parses a scenario assignment as the tuple's clearance level.
func (MinMax) Value(x float64) (float64, error) {
	if math.IsNaN(x) {
		return 0, fmt.Errorf("clearance level is NaN")
	}
	return x, nil
}

// Numeric is the standard (R, +, ·) semiring — the aggregate reading of
// model 2. It is provenance.Float, the carrier the whole pre-generic stack
// evaluated in, re-exported here so the semiring API is complete.
type Numeric = provenance.Float
