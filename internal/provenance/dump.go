package provenance

// Persistence support for the compiled kernel: Dump flattens a Compiled
// into plain exported arrays (the snapshot image the durable layer writes
// to disk), and RestoreSet makes a Set of such an image — the recovery
// path that never recompiles. A restored session therefore starts in the
// same steady state a live one reaches after its first evaluation: flat
// arrays, CSR inverted index and identity baseline all warm,
// Stats().Compiles still counting a single compilation.
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
	"slices"
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

// RestoreSet makes a Set over vb of a dump: the dump's term arrays and
// tags become the set's kernel, which the caller must not change
// afterwards, so the first evaluation finds it warm instead of
// recompiling. The dump is fully validated against vb before anything is
// constructed; a dump that is structurally broken, references variables
// outside the vocabulary, or whose baseline/index sections disagree with
// the term data is rejected.
func RestoreSet(vb *Vocab, d *CompiledDump) (*Set, error) {
	if vb == nil || d == nil {
		return nil, fmt.Errorf("provenance: RestoreSet needs a vocabulary and a dump")
	}
	if err := d.validateArrays(vb); err != nil {
		return nil, err
	}

	nPolys := d.NPolys()
	c := newKernel[float64](Float{})
	c.Vocab, c.Tags = vb, d.Tags
	c.polyOff, c.coeffs, c.factOff, c.vars, c.pows = d.PolyOff, d.Coeffs, d.FactOff, d.Vars, d.Pows
	c.noteFactors(0)

	// Rebuild the inverted index through the usual once-guarded builder and
	// compare it to the stored arrays — disagreement means the dump's term
	// data and index describe different kernels.
	if d.VarTermOff != nil || d.VarPolyOff != nil || d.VarPolyIDs != nil || d.VarPolyTerms != nil {
		c.ensureIndex()
		if !slices.Equal(c.varTermOff, d.VarTermOff) || !slices.Equal(c.varPolyOff, d.VarPolyOff) ||
			!slices.Equal(c.varPolyIDs, d.VarPolyIDs) || !slices.Equal(c.varPolyTerms, d.VarPolyTerms) {
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

	s := &Set{Vocab: vb, Tags: c.Tags, k: c, marks: make([]bool, vb.Len()+1)}
	s.mark(c.vars)
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
	// polynomial's terms are in strictly ascending key order with non-zero
	// coefficients, as a SetBuilder lays them out. A repeated variable
	// would read as a different monomial than its sum of exponents, the
	// compatibility check and compression read terms in key order, a
	// repeated key is a duplicate term, and a zero coefficient a term
	// canonical form drops.
	terms := kernelArrays[float64]{factOff: d.FactOff, vars: d.Vars, pows: d.Pows}
	var key, prev []byte
	for pi := 0; pi < nPolys; pi++ {
		for t := d.PolyOff[pi]; t < d.PolyOff[pi+1]; t++ {
			if d.Coeffs[t] == 0 {
				return fmt.Errorf("provenance: dump polynomial %d has a zero-coefficient term (non-canonical)", pi)
			}
			for f := d.FactOff[t] + 1; f < d.FactOff[t+1]; f++ {
				if d.Vars[f] <= d.Vars[f-1] {
					return fmt.Errorf("provenance: dump term %d lists variable %d after %d; a term's variables must be strictly ascending", t, d.Vars[f], d.Vars[f-1])
				}
			}
			key = terms.appendKey(key[:0], int(t))
			if t > d.PolyOff[pi] && bytes.Compare(key, prev) <= 0 {
				return fmt.Errorf("provenance: dump polynomial %d lists term %d out of key order; a polynomial's terms must be in strictly ascending key order", pi, t)
			}
			key, prev = prev, key
		}
	}
	return nil
}
