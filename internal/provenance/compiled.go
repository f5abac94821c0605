package provenance

import (
	"encoding/binary"
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
// code path. The inverted index, the cached identity baseline and the
// delta scratch epochs are carrier-agnostic.
//
// The float kernel is also how a Set stores its terms (Set.Compiled
// returns it), and a kernel grows only at the end: Append extends it with
// another kernel's polynomials without touching what is already there (the
// path behind Set.AddKernel), so a session compiles once and evaluates
// many times — the paper's interactive many-scenario setting (Figure 10),
// where the same provenance answers a stream of hypothetical scenarios. A
// kernel from Compile or CompileSet is a copy that later Adds to the set
// do not reach.
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

	// Inverted index for delta evaluation (see delta.go): which
	// polynomials each variable occurs in, one ascending id list per
	// variable, built once on first delta use so compile-only callers
	// never pay for it. The lists are carved from one array at the build,
	// each with no room past its end, and a list an Append extends grows on
	// its own, so an Append costs its new terms. varTerms keeps only the
	// term *count* per variable, for TermsTouching. varPolyTerms[v] is the
	// total term count of the polynomials containing v — a sound lower
	// bound on any scenario touching v's affected terms.
	indexOnce    sync.Once
	varTerms     []int32   // var v occurs in varTerms[v] terms
	varPolys     [][]int32 // var v occurs in polynomials varPolys[v], ascending
	varPolyTerms []int32

	baselineOnce sync.Once // guards baseline, the answers under the identity
	baselineDone bool      // set inside baselineOnce: lets Append patch vs skip
	baseline     []T
	ident        []T       // an identity valuation Append patches the baseline with
	deltaPool    sync.Pool // *DeltaKernel scratch for the EvalDelta convenience
}

// Compiled is the float64 instantiation of the kernel — the paper's
// numeric semiring, and the carrier every pre-generic call site uses.
type Compiled = Kernel[float64, Float]

// Compile returns a copy of the set's kernel: a frozen snapshot that
// later Adds to the set do not change. The Vocab and Tags are shared with
// the set; the term data is copied. For other carriers use CompileSet.
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

// CompileSet copies the set's kernel into one over the given carrier. The
// Vocab and Tags are shared with the source set; the term data is copied,
// with every coefficient converted through the carrier's FromCoeff (which
// is where non-natural multiplicities are rejected for the discrete
// carriers).
func CompileSet[T any, C Carrier[T]](cr C, s *Set) (*Kernel[T, C], error) {
	src := s.k
	c := newKernel[T](cr)
	c.Vocab, c.Tags = s.Vocab, slices.Clip(s.Tags)
	c.coeffs = make([]T, len(src.coeffs))
	for t, x := range src.coeffs {
		ct, err := cr.FromCoeff(x)
		if err != nil {
			return nil, err
		}
		c.coeffs[t] = ct
	}
	c.polyOff, c.factOff = slices.Clone(src.polyOff), slices.Clone(src.factOff)
	c.vars, c.pows = slices.Clone(src.vars), slices.Clone(src.pows)
	c.allPow1, c.maxVar = src.allPow1, src.maxVar
	return c, nil
}

// CompilePolys flattens polynomials into a kernel over the given carrier
// (no Vocab, no tags).
func CompilePolys[T any, C Carrier[T]](cr C, polys []*Polynomial) (*Kernel[T, C], error) {
	c := newKernel[T](cr)
	if err := c.appendTerms(cr, polys); err != nil {
		return nil, err
	}
	c.noteFactors(0)
	return c, nil
}

// newKernel returns an empty kernel over the carrier: no polynomials, and
// the fused loops found when the carrier has them.
func newKernel[T any, C Carrier[T]](cr C) *Kernel[T, C] {
	c := &Kernel[T, C]{
		carrier: cr,
		kernelArrays: kernelArrays[T]{
			polyOff: []int32{0},
			factOff: []int32{0},
			allPow1: true,
		},
	}
	c.bulk, _ = any(cr).(bulkKernel[T])
	return c
}

// appendTerms flattens polys onto the arrays, each polynomial's terms in
// ascending key order (the order Monomials returns), decoding every key
// straight into vars and pows. Each array grows at most once, presized
// from the key bytes, so compiling allocates nothing per term. When the
// carrier rejects a coefficient it returns the error with the arrays
// part-extended; the caller discards or truncates them.
func (a *kernelArrays[T]) appendTerms(cr Carrier[T], polys []*Polynomial) error {
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
				return err
			}
			a.coeffs = append(a.coeffs, ct)
			for i := 0; i < len(k); {
				v, n := k.uvarint(i)
				pw, m := k.uvarint(n)
				i = m
				a.vars = append(a.vars, Var(int64(v>>1)^-int64(v&1)))
				a.pows = append(a.pows, int32(pw))
			}
			a.factOff = append(a.factOff, int32(len(a.vars)))
		}
		a.polyOff = append(a.polyOff, int32(len(a.coeffs)))
	}
	return nil
}

// noteFactors folds the factors from f on into maxVar and allPow1.
func (c *Kernel[T, C]) noteFactors(f int) {
	for ; f < len(c.vars); f++ {
		c.maxVar = max(c.maxVar, c.vars[f])
		if c.pows[f] != 1 {
			c.allPow1 = false
		}
	}
}

// Append extends the kernel in place with the polynomials of src, a float
// kernel over the same vocabulary (a one-polynomial kernel from
// ParseKernel, a PolyBuilder or Polynomial.Compile, say) — the path behind
// Set.AddKernel. src's arrays are copied, each coefficient converted
// through the carrier; when the inverted index and the baseline answer
// vector have already been built they are patched (each new polynomial's
// id appended to the list of every variable it contains, lists started
// for variables past the indexed ones; the new polynomials' identity
// answers appended) instead of discarded, so an Add-heavy session keeps
// one compilation alive for its whole lifetime, and an Append costs the
// terms it adds. Evaluation of the pre-existing polynomials is
// bit-identical to a fresh compile: their term data is untouched.
//
// Append reports false — leaving the receiver unchanged — when a
// coefficient does not convert into the carrier (never for the float
// carrier); the caller then compiles afresh, which surfaces the
// conversion error. tags extends Tags in step with the polynomials and
// may be nil for untagged sets.
//
// Append mutates the receiver and must not run concurrently with
// evaluation; callers (like the session Engine) serialize the two.
func (c *Kernel[T, C]) Append(src *Compiled, tags []string) bool {
	firstPoly, firstTerm, firstFactor := c.Len(), len(c.coeffs), len(c.vars)
	for _, x := range src.coeffs {
		ct, err := c.carrier.FromCoeff(x)
		if err != nil {
			c.coeffs = c.coeffs[:firstTerm] // a rejected coefficient: drop what was appended
			return false
		}
		c.coeffs = append(c.coeffs, ct)
	}
	for _, o := range src.polyOff[1:] {
		c.polyOff = append(c.polyOff, int32(firstTerm)+o)
	}
	for _, o := range src.factOff[1:] {
		c.factOff = append(c.factOff, int32(firstFactor)+o)
	}
	c.vars = append(c.vars, src.vars...)
	c.pows = append(c.pows, src.pows...)
	c.noteFactors(firstFactor)
	c.Tags = append(c.Tags, tags...)
	if c.varTerms != nil {
		c.patchIndex(firstPoly)
	}
	if c.baselineDone {
		c.baseline = append(c.baseline, make([]T, c.Len()-firstPoly)...)
		c.evalRange(firstPoly, c.Len(), c.identity(), c.baseline)
	}
	return true
}

// identity returns an identity valuation of the kernel's length, kept
// across Appends and grown with the vocabulary, so patching the baseline
// does not allocate one per Append. Callers hold the kernel exclusively.
func (c *Kernel[T, C]) identity() []T {
	one := c.carrier.One()
	for len(c.ident) < c.ValuationLen() {
		c.ident = append(c.ident, one)
	}
	return c.ident
}

// TermArrays is the flat term data of a compiled kernel, in the layout
// CompiledDump documents: polynomial i owns terms [PolyOff[i],
// PolyOff[i+1]), term t owns factors [FactOff[t], FactOff[t+1]). Each
// polynomial's terms are in ascending key order, and each term's factors
// in ascending Var order.
type TermArrays[T any] struct {
	PolyOff []int32
	Coeffs  []T
	FactOff []int32
	Vars    []Var
	Pows    []int32
}

// TermArrays returns the kernel's term data without copying it, for
// callers that walk every term in the kernel's order: the slices alias the
// kernel's own arrays and must not be written. Append extends the arrays
// but never rewrites the part a view already covers.
func (c *Kernel[T, C]) TermArrays() TermArrays[T] {
	return TermArrays[T]{
		PolyOff: slices.Clip(c.polyOff),
		Coeffs:  slices.Clip(c.coeffs),
		FactOff: slices.Clip(c.factOff),
		Vars:    slices.Clip(c.vars),
		Pows:    slices.Clip(c.pows),
	}
}

// appendKey appends term t's canonical key, AppendKey of its pairs, to
// dst.
func (a *kernelArrays[T]) appendKey(dst []byte, t int) []byte {
	for f := a.factOff[t]; f < a.factOff[t+1]; f++ {
		dst = binary.AppendVarint(dst, int64(a.vars[f]))
		dst = binary.AppendUvarint(dst, uint64(a.pows[f]))
	}
	return dst
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
			p := c.pows[f]
			if p > powLoopMax {
				x = cr.Mul(x, powBySquaring(cr, v, p))
				continue
			}
			for ; p > 0; p-- {
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
