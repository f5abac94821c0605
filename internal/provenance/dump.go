package provenance

// Persistence support for the compiled kernel: Dump flattens a Compiled
// into plain exported arrays (the snapshot image the durable layer writes
// to disk), and RestoreSet rebuilds a Set *with its compiled cache already
// injected* from such an image — the recovery path that never recompiles.
// A restored session therefore starts in the same steady state a live one
// reaches after its first evaluation: flat arrays, CSR inverted index and
// identity baseline all warm, Stats().Compiles still counting a single
// compilation.
//
// RestoreSet trusts nothing: every structural invariant of the arrays is
// re-validated, the baseline is recomputed and compared bit-exactly, and
// the inverted index is rebuilt and compared entry-for-entry, so a corrupt
// or hostile dump is rejected with an error instead of poisoning
// evaluation. (The durable layer's CRC catches media corruption; these
// checks catch everything a checksum cannot — a dump that was valid bytes
// but never a valid kernel.)

import (
	"bytes"
	"fmt"
	"math"
)

// CompiledDump is the flat, exported image of a Compiled kernel. All
// slices follow the kernel's internal layout: polynomial i owns terms
// [PolyOff[i], PolyOff[i+1]), term t owns factors [FactOff[t],
// FactOff[t+1]). Baseline and the four index arrays are optional (nil =
// not built at dump time); when present they must be consistent with the
// term data, which RestoreSet verifies.
type CompiledDump struct {
	PolyOff []int32
	Coeffs  []float64
	FactOff []int32
	Vars    []Var
	Pows    []int32
	Tags    []string

	Baseline []float64

	VarTermOff   []int32
	VarPolyOff   []int32
	VarPolyIDs   []int32
	VarPolyTerms []int32
}

// NPolys returns the number of polynomials the dump describes.
func (d *CompiledDump) NPolys() int { return len(d.PolyOff) - 1 }

// DumpCompiled snapshots the compiled kernel's flat arrays. The inverted
// index and the identity baseline are forced to exist first (through their
// usual once-guarded builders, so concurrent evaluations share the
// construction); the snapshot therefore always carries both, and a
// restored kernel starts warm. DumpCompiled must not run concurrently with
// Append — the session Engine serializes the two behind its lock — but is
// safe against concurrent evaluation. (A free function because Go forbids
// new methods on the instantiated Kernel alias.)
func DumpCompiled(c *Compiled) *CompiledDump {
	c.ensureIndex()
	c.Baseline()
	return &CompiledDump{
		PolyOff:      append([]int32(nil), c.polyOff...),
		Coeffs:       append([]float64(nil), c.coeffs...),
		FactOff:      append([]int32(nil), c.factOff...),
		Vars:         append([]Var(nil), c.vars...),
		Pows:         append([]int32(nil), c.pows...),
		Tags:         append([]string(nil), c.Tags...),
		Baseline:     append([]float64(nil), c.baseline...),
		VarTermOff:   append([]int32(nil), c.varTermOff...),
		VarPolyOff:   append([]int32(nil), c.varPolyOff...),
		VarPolyIDs:   append([]int32(nil), c.varPolyIDs...),
		VarPolyTerms: append([]int32(nil), c.varPolyTerms...),
	}
}

// RestoreSet rebuilds a Set over vb from a dump, with the compiled cache
// injected so the first evaluation finds it warm instead of recompiling.
// The dump is fully validated against vb before anything is constructed;
// a dump that is structurally broken, references variables outside the
// vocabulary, or whose baseline/index sections disagree with the term data
// is rejected.
func RestoreSet(vb *Vocab, d *CompiledDump) (*Set, error) {
	if vb == nil || d == nil {
		return nil, fmt.Errorf("provenance: RestoreSet needs a vocabulary and a dump")
	}
	if err := d.validateArrays(vb); err != nil {
		return nil, err
	}

	nPolys := d.NPolys()
	c := newKernel[float64](Float{})
	c.Vocab = vb
	c.Tags = append([]string(nil), d.Tags...)
	c.polyOff = append([]int32(nil), d.PolyOff...)
	c.coeffs = append([]float64(nil), d.Coeffs...)
	c.factOff = append([]int32(nil), d.FactOff...)
	c.vars = append([]Var(nil), d.Vars...)
	c.pows = append([]int32(nil), d.Pows...)
	for _, p := range c.pows {
		if p != 1 {
			c.allPow1 = false
			break
		}
	}
	for _, v := range c.vars {
		if v > c.maxVar {
			c.maxVar = v
		}
	}

	// Rebuild the source polynomials from the term data. validateArrays
	// has made every key distinct, so a canonical dump loses no term here;
	// a zero coefficient means the dump was never produced by Dump.
	polys := make([]*Polynomial, nPolys)
	for pi := 0; pi < nPolys; pi++ {
		p := NewPolynomial()
		for t := d.PolyOff[pi]; t < d.PolyOff[pi+1]; t++ {
			if d.Coeffs[t] == 0 {
				return nil, fmt.Errorf("provenance: dump polynomial %d has a zero-coefficient term (non-canonical)", pi)
			}
			vp := make([]VarPow, 0, d.FactOff[t+1]-d.FactOff[t])
			for f := d.FactOff[t]; f < d.FactOff[t+1]; f++ {
				vp = append(vp, VarPow{Var: d.Vars[f], Pow: d.Pows[f]})
			}
			p.AddMonomial(NewMonomialPows(d.Coeffs[t], vp...))
		}
		polys[pi] = p
	}

	// Rebuild the inverted index through the usual once-guarded builder and
	// compare it to the stored arrays — disagreement means the dump's term
	// data and index describe different kernels.
	if d.VarTermOff != nil || d.VarPolyOff != nil || d.VarPolyIDs != nil || d.VarPolyTerms != nil {
		c.ensureIndex()
		if !equalI32(c.varTermOff, d.VarTermOff) || !equalI32(c.varPolyOff, d.VarPolyOff) ||
			!equalI32(c.varPolyIDs, d.VarPolyIDs) || !equalI32(c.varPolyTerms, d.VarPolyTerms) {
			return nil, fmt.Errorf("provenance: dump inverted index disagrees with its term data")
		}
	}

	// Recompute the identity baseline and require it bit-exact against the
	// stored vector: the baseline doubles as a semantic checksum of the
	// whole kernel.
	if d.Baseline != nil {
		if len(d.Baseline) != nPolys {
			return nil, fmt.Errorf("provenance: dump baseline has %d entries for %d polynomials", len(d.Baseline), nPolys)
		}
		fresh := c.Baseline()
		for i := range fresh {
			if math.Float64bits(fresh[i]) != math.Float64bits(d.Baseline[i]) {
				return nil, fmt.Errorf("provenance: dump baseline[%d] = %v, recomputed %v (corrupt kernel)", i, d.Baseline[i], fresh[i])
			}
		}
	}

	s := &Set{Vocab: vb, Polys: polys, Tags: c.Tags, compiled: c}
	return s, nil
}

// validateArrays checks every structural invariant of the dump's term data
// against the vocabulary, so the kernel construction above cannot index out
// of bounds or panic.
func (d *CompiledDump) validateArrays(vb *Vocab) error {
	if len(d.PolyOff) == 0 || d.PolyOff[0] != 0 {
		return fmt.Errorf("provenance: dump PolyOff must start at 0")
	}
	nPolys := d.NPolys()
	nTerms := len(d.Coeffs)
	nFactors := len(d.Vars)
	if len(d.Tags) != nPolys {
		return fmt.Errorf("provenance: dump has %d tags for %d polynomials", len(d.Tags), nPolys)
	}
	for i := 1; i < len(d.PolyOff); i++ {
		if d.PolyOff[i] < d.PolyOff[i-1] {
			return fmt.Errorf("provenance: dump PolyOff not monotone at %d", i)
		}
	}
	if int(d.PolyOff[nPolys]) != nTerms {
		return fmt.Errorf("provenance: dump PolyOff ends at %d, want %d terms", d.PolyOff[nPolys], nTerms)
	}
	if len(d.FactOff) != nTerms+1 || d.FactOff[0] != 0 {
		return fmt.Errorf("provenance: dump FactOff must have %d entries starting at 0", nTerms+1)
	}
	for i := 1; i < len(d.FactOff); i++ {
		if d.FactOff[i] < d.FactOff[i-1] {
			return fmt.Errorf("provenance: dump FactOff not monotone at %d", i)
		}
	}
	if int(d.FactOff[nTerms]) != nFactors {
		return fmt.Errorf("provenance: dump FactOff ends at %d, want %d factors", d.FactOff[nTerms], nFactors)
	}
	if len(d.Pows) != nFactors {
		return fmt.Errorf("provenance: dump has %d exponents for %d factors", len(d.Pows), nFactors)
	}
	for i, v := range d.Vars {
		if v < 1 || int(v) > vb.Len() {
			return fmt.Errorf("provenance: dump factor %d references variable %d outside the vocabulary (size %d)", i, v, vb.Len())
		}
		if d.Pows[i] < 1 {
			return fmt.Errorf("provenance: dump factor %d has non-positive exponent %d", i, d.Pows[i])
		}
	}
	// A kernel's term lists each variable once, in ascending order, and a
	// polynomial's terms are in strictly ascending key order, as Compile
	// lays them out. A repeated variable would rebuild, through
	// NewMonomialPows, into a polynomial whose exponent sum an int32 may
	// wrap, while the kernel keeps both factors: the two forms of one set
	// would disagree. The compatibility check and compression read terms
	// in key order, and a repeated key is a duplicate term.
	var pairs []VarPow
	var key, prev []byte
	for pi := 0; pi < nPolys; pi++ {
		for t := d.PolyOff[pi]; t < d.PolyOff[pi+1]; t++ {
			pairs = pairs[:0]
			for f := d.FactOff[t]; f < d.FactOff[t+1]; f++ {
				if n := len(pairs); n > 0 && d.Vars[f] <= pairs[n-1].Var {
					return fmt.Errorf("provenance: dump term %d lists variable %d after %d; a term's variables must be strictly ascending", t, d.Vars[f], pairs[n-1].Var)
				}
				pairs = append(pairs, VarPow{Var: d.Vars[f], Pow: d.Pows[f]})
			}
			key = AppendKey(key[:0], pairs)
			if t > d.PolyOff[pi] && bytes.Compare(key, prev) <= 0 {
				return fmt.Errorf("provenance: dump polynomial %d lists term %d out of key order; a polynomial's terms must be in strictly ascending key order", pi, t)
			}
			key, prev = prev, key
		}
	}
	return nil
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
