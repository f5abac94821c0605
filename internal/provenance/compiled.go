package provenance

import (
	"slices"
	"sync"
)

// Kernel is a provenance set compiled for evaluation in the carrier C:
// every monomial of every polynomial is flattened into dense coefficient
// and factor arrays so that evaluating a scenario is a tight loop over
// contiguous memory — no string key re-parsing, no map lookups per
// monomial. Valuations are dense []T slices indexed by Var.
//
// The kernel is monomorphized per carrier by the compiler; the float
// carrier additionally supplies a fused bulk loop (see bulkKernel), so the
// float64 instantiation — the Compiled alias — runs the exact pre-generic
// code path. The CSR inverted index, the cached identity baseline and the
// delta scratch epochs are carrier-agnostic.
//
// A Kernel is a snapshot that grows only at the end: mutating the source
// Set or its polynomials in place after compiling does not change the
// compiled form, but Append extends it with additional polynomials without
// recompiling what is already there (the incremental path behind Set.Add).
// Compile once, evaluate many times — the intended workload is the paper's
// interactive many-scenario setting (Figure 10), where the same provenance
// answers a stream of hypothetical scenarios.
//
// Append mutates the receiver; it must not run concurrently with
// evaluation. The session Engine serializes the two behind its lock.
//
// Evaluation order is deterministic (monomials in canonical key order), so
// repeated evaluations of the same valuation produce identical results,
// unlike the map-based Polynomial.Eval whose summation order follows map
// iteration.
type Kernel[T any, C Carrier[T]] struct {
	Vocab *Vocab
	Tags  []string // Tags[i] labels polynomial i; may be empty

	carrier C
	bulk    bulkKernel[T] // non-nil when C supplies fused loops (Float)

	kernelArrays[T]

	maxVar Var // largest Var occurring in any factor (0 when none)

	// Inverted index for delta evaluation (see delta.go): which polynomials
	// each variable occurs in, in CSR layout (ID lists ascending per
	// variable), built once on first delta use so compile-only callers
	// never pay for it. varTermOff keeps only the term *counts* per
	// variable (as cumulative offsets) for TermsTouching; the term id lists
	// themselves are transient during index construction. varPolyTerms[v]
	// is the total term count of the polynomials containing v — a sound
	// lower bound on any scenario touching v's affected terms.
	indexOnce    sync.Once
	varTermOff   []int32 // var v occurs in varTermOff[v+1]-varTermOff[v] terms
	varPolyOff   []int32 // var v owns poly ids varPolyIDs[varPolyOff[v]:varPolyOff[v+1]]
	varPolyIDs   []int32
	varPolyTerms []int32

	baselineOnce sync.Once // guards baseline, the answers under the identity
	baselineDone bool      // set inside baselineOnce: lets Append patch vs skip
	baseline     []T
	deltaPool    sync.Pool // *DeltaKernel scratch for the EvalDelta convenience
}

// Compiled is the float64 instantiation of the kernel — the paper's
// numeric semiring, and the carrier every pre-generic call site uses.
type Compiled = Kernel[float64, Float]

// Compile flattens the set into its compiled float64 form. The Vocab and
// Tags are shared with the source set; the term data is copied. For other
// carriers use CompileSet.
func (s *Set) Compile() *Compiled {
	c, _ := CompileSet[float64, Float](Float{}, s) // Float.FromCoeff never fails
	return c
}

// Compile flattens a single polynomial into a one-member Compiled (no Vocab,
// no tags). Use Set.Compile for whole query results.
func (p *Polynomial) Compile() *Compiled {
	c, _ := CompilePolys[float64, Float](Float{}, []*Polynomial{p})
	return c
}

// CompileSet flattens the set into a kernel over the given carrier. The
// Vocab and Tags are shared with the source set; the term data is copied,
// with every coefficient converted through the carrier's FromCoeff (which
// is where non-natural multiplicities are rejected for the discrete
// carriers).
func CompileSet[T any, C Carrier[T]](cr C, s *Set) (*Kernel[T, C], error) {
	c, err := CompilePolys[T, C](cr, s.Polys)
	if err != nil {
		return nil, err
	}
	c.Vocab = s.Vocab
	c.Tags = s.Tags
	return c, nil
}

// CompilePolys flattens polynomials into a kernel over the given carrier
// (no Vocab, no tags).
func CompilePolys[T any, C Carrier[T]](cr C, polys []*Polynomial) (*Kernel[T, C], error) {
	c := &Kernel[T, C]{
		carrier: cr,
		kernelArrays: kernelArrays[T]{
			polyOff: []int32{0},
			factOff: []int32{0},
			allPow1: true,
		},
	}
	c.bulk, _ = any(cr).(bulkKernel[T])
	maxVar, err := c.appendTerms(cr, polys)
	if err != nil {
		return nil, err
	}
	c.maxVar = maxVar
	return c, nil
}

// appendTerms flattens polys onto the arrays, each polynomial's terms in
// ascending key order (the order Monomials returns), decoding every key
// straight into vars and pows. Each array grows at most once, presized
// from the key bytes, so compiling allocates nothing per term. It returns
// the largest Var it appended. When the carrier rejects a coefficient it
// returns the error with the arrays part-extended; the caller discards or
// truncates them.
func (a *kernelArrays[T]) appendTerms(cr Carrier[T], polys []*Polynomial) (Var, error) {
	nTerms, nFactors, maxTerms := 0, 0, 0
	for _, p := range polys {
		for k := range p.terms {
			// A pair is two varints of a byte or more: a bound on the
			// factor count that reads no key byte.
			nFactors += len(k) / 2
		}
		nTerms += p.Size()
		maxTerms = max(maxTerms, p.Size())
	}
	a.polyOff = slices.Grow(a.polyOff, len(polys))
	a.coeffs = slices.Grow(a.coeffs, nTerms)
	a.factOff = slices.Grow(a.factOff, nTerms)
	a.vars = slices.Grow(a.vars, nFactors)
	a.pows = slices.Grow(a.pows, nFactors)
	var maxVar Var
	keys := make([]MonomialKey, 0, maxTerms)
	for _, p := range polys {
		keys = keys[:0]
		for k := range p.terms {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			ct, err := cr.FromCoeff(p.terms[k])
			if err != nil {
				return 0, err
			}
			a.coeffs = append(a.coeffs, ct)
			for i := 0; i < len(k); {
				v, n := k.uvarint(i)
				pw, m := k.uvarint(n)
				i = m
				x := Var(int64(v>>1) ^ -int64(v&1))
				a.vars = append(a.vars, x)
				a.pows = append(a.pows, int32(pw))
				if int32(pw) != 1 {
					a.allPow1 = false
				}
				maxVar = max(maxVar, x)
			}
			a.factOff = append(a.factOff, int32(len(a.vars)))
		}
		a.polyOff = append(a.polyOff, int32(len(a.coeffs)))
	}
	return maxVar, nil
}

// Append extends the compiled form with additional polynomials in place —
// the incremental-compile path behind Set.Add. Only the new polynomials'
// terms are flattened; when the inverted index and the baseline answer
// vector have already been built they are patched (per-variable id lists
// merged, identity answers of the new polynomials appended) instead of
// discarded, so an Add-heavy session keeps one compilation alive for its
// whole lifetime. Evaluation of the pre-existing polynomials is
// bit-identical to a fresh compile: their term data is untouched.
//
// Append reports false — leaving the receiver unchanged — when the new
// polynomials introduce variables beyond the capacity the inverted index
// was sized for (the compiled vocabulary at index-build time), or when a
// coefficient does not convert into the carrier; the caller falls back to
// a full rebuild, which surfaces any conversion error. tags extends Tags
// in step with the polynomials and may be nil for untagged sets.
//
// Append mutates the receiver and must not run concurrently with
// evaluation; callers (like the session Engine) serialize the two.
func (c *Kernel[T, C]) Append(polys []*Polynomial, tags []string) bool {
	before, firstPoly := c.kernelArrays, c.Len()
	newMax, err := c.appendTerms(c.carrier, polys)
	if err != nil || (c.varTermOff != nil && newMax > c.maxVar) {
		// A rejected coefficient, or variables past the index sized to the
		// old vocabulary: drop what was appended and let the caller rebuild.
		c.kernelArrays = kernelArrays[T]{
			polyOff: c.polyOff[:len(before.polyOff)],
			coeffs:  c.coeffs[:len(before.coeffs)],
			factOff: c.factOff[:len(before.factOff)],
			vars:    c.vars[:len(before.vars)],
			pows:    c.pows[:len(before.pows)],
			allPow1: before.allPow1,
		}
		return false
	}
	firstTerm := len(before.coeffs)
	c.maxVar = max(c.maxVar, newMax)
	c.Tags = append(c.Tags, tags...)
	if c.varTermOff != nil {
		c.patchIndex(firstPoly, firstTerm)
	}
	if c.baselineDone {
		c.baseline = append(c.baseline, make([]T, c.Len()-firstPoly)...)
		c.evalRange(firstPoly, c.Len(), c.NewValuation(), c.baseline)
	}
	return true
}

// Carrier returns the carrier the kernel evaluates in.
func (c *Kernel[T, C]) Carrier() C { return c.carrier }

// Len returns the number of polynomials.
func (c *Kernel[T, C]) Len() int { return len(c.polyOff) - 1 }

// Size returns |P|_M — the total number of monomials.
func (c *Kernel[T, C]) Size() int { return len(c.coeffs) }

// MaxVar returns the largest Var occurring in the compiled set. Valuations
// passed to Eval must have length at least MaxVar+1.
func (c *Kernel[T, C]) MaxVar() Var { return c.maxVar }

// ValuationLen returns the length a dense valuation slice must have.
func (c *Kernel[T, C]) ValuationLen() int { return int(c.maxVar) + 1 }

// NewValuation returns an identity valuation (every variable One) of the
// right length for Eval. Index it by Var to assign scenario values.
func (c *Kernel[T, C]) NewValuation() []T {
	val := make([]T, c.ValuationLen())
	one := c.carrier.One()
	for i := range val {
		val[i] = one
	}
	return val
}

// Valuation converts a sparse map valuation into a dense slice for Eval.
// Variables absent from the map keep the identity value One. Map entries
// for variables beyond MaxVar are ignored (they cannot occur in any term).
func (c *Kernel[T, C]) Valuation(m map[Var]T) []T {
	val := c.NewValuation()
	for v, x := range m {
		if v >= 0 && int(v) < len(val) {
			val[v] = x
		}
	}
	return val
}

// Eval evaluates every polynomial under the dense valuation, writing one
// value per polynomial into out (grown as needed) and returning it. Passing
// a nil out allocates; passing the previous result re-uses its storage,
// which keeps steady-state batch evaluation allocation-free.
//
// val must have length at least ValuationLen(); use NewValuation or
// Valuation to build it. Eval does not mutate val and is safe for
// concurrent use with distinct out slices.
func (c *Kernel[T, C]) Eval(val []T, out []T) []T {
	n := c.Len()
	if cap(out) < n {
		out = make([]T, n)
	}
	out = out[:n]
	c.evalRange(0, n, val, out)
	return out
}

// evalRange evaluates polynomials [lo, hi) into out (indexed by polynomial
// id, not shifted). Disjoint ranges may be evaluated concurrently. Carriers
// with a fused bulk loop take it through a single interface call; the rest
// run the generic loop below.
func (c *Kernel[T, C]) evalRange(lo, hi int, val, out []T) {
	if c.bulk != nil {
		c.bulk.evalBulk(&c.kernelArrays, lo, hi, val, out)
		return
	}
	for pi := lo; pi < hi; pi++ {
		out[pi] = c.evalGeneric(pi, val)
	}
}

// evalGeneric is the carrier-generic loop over one polynomial's terms.
func (c *Kernel[T, C]) evalGeneric(pi int, val []T) T {
	cr := c.carrier
	sum := cr.Zero()
	for t := c.polyOff[pi]; t < c.polyOff[pi+1]; t++ {
		x := c.coeffs[t]
		for f := c.factOff[t]; f < c.factOff[t+1]; f++ {
			v := val[c.vars[f]]
			for p := c.pows[f]; p > 0; p-- {
				x = cr.Mul(x, v)
			}
		}
		sum = cr.Add(sum, x)
	}
	return sum
}

// EvalPoly evaluates only polynomial i under the dense valuation, on the
// same loop Eval runs, so the result is bit-identical to Eval's out[i].
func (c *Kernel[T, C]) EvalPoly(i int, val []T) T {
	if c.bulk != nil {
		return c.bulk.evalBulkPoly(&c.kernelArrays, i, val)
	}
	return c.evalGeneric(i, val)
}

// EvalMap evaluates under a sparse map valuation (convenience bridge from
// the map-based API; batch callers should build dense valuations once).
func (c *Kernel[T, C]) EvalMap(m map[Var]T) []T {
	return c.Eval(c.Valuation(m), nil)
}
