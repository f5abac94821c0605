package provenance

// Delta-aware evaluation: a typical hypothetical scenario touches a handful
// of variables, yet full Eval re-multiplies every monomial. The compiler
// therefore builds an inverted index (variable → terms, variable → affected
// polynomials) and caches the answer vector under the identity valuation;
// EvalDelta recomputes only the polynomials a scenario's assignments can
// affect and copies baseline values for the rest — sub-linear in |P|_M per
// scenario when scenarios are sparse, and bit-identical to Eval per
// polynomial, since affected polynomials are recomputed whole on the same
// code path (summation order per polynomial never changes). The index, the
// baseline and the epoch-marked scratch are carrier-agnostic: the same
// machinery answers boolean, counting, tropical and max-min deltas.
//
// For the opposite extreme — one huge scenario on a many-core machine —
// EvalSharded and DeltaKernel.EvalAffectedSharded split the polynomial
// range across a goroutine pool, so a single-scenario evaluation on a
// million-monomial set is no longer pinned to one core.

import (
	"slices"
	"sort"
	"sync"
)

// ensureIndex builds the inverted index on first delta use (NewDeltaEval,
// TermsTouching, MinAffectedTerms); compile-only callers never pay for it,
// and concurrent evaluation workers race-safely share one construction.
func (c *Kernel[T, C]) ensureIndex() {
	c.indexOnce.Do(c.buildDeltaIndex)
}

// buildDeltaIndex constructs the CSR inverted index over the flattened
// term data: patchIndex from an empty index, every polynomial new. Ids
// are filled in polynomial order, so every per-variable id list is
// ascending. Only the per-variable term counts are kept (varTermOff) —
// routing needs the polynomial lists, not the term lists.
func (c *Kernel[T, C]) buildDeltaIndex() {
	c.varTermOff, c.varPolyOff, c.varPolyIDs, c.varPolyTerms = []int32{0}, []int32{0}, nil, []int32{}
	c.patchIndex(0, 0)
}

// patchIndex extends an already-built inverted index to cover polynomials
// appended after the build (Append), in place: per-variable term counts
// are re-accumulated, and each new polynomial's id is appended to the id
// list of every variable it contains — new ids are all larger than the
// existing ones, so every per-variable list stays ascending after one
// right-to-left shift of the lists that the new ids push along. Variables
// past the indexed ones (the vocabulary grew) get rows of their own,
// exactly as a fresh build would give them. Cost is O(existing ids + new
// terms + |vocab|), a memmove-dominated fraction of a full recompile, and
// the arrays grow with slack, so a run of Adds allocates only the small
// per-call counts.
func (c *Kernel[T, C]) patchIndex(firstPoly, firstTerm int) {
	indexed := len(c.varTermOff) - 1
	nVars := indexed
	if len(c.vars) > 0 {
		nVars = max(indexed, int(c.maxVar)+1)
	}
	c.varTermOff = slices.Grow(c.varTermOff, nVars-indexed)
	c.varPolyOff = slices.Grow(c.varPolyOff, nVars-indexed)
	for range nVars - indexed { // new rows start empty, at the end
		c.varTermOff = append(c.varTermOff, c.varTermOff[indexed])
		c.varPolyOff = append(c.varPolyOff, c.varPolyOff[indexed])
	}
	c.varPolyTerms = append(c.varPolyTerms, make([]int32, nVars-indexed)...)

	// Per variable, the terms it gains and the new polynomials holding it
	// (mark deduplicates within one polynomial, by id).
	scratch := make([]int32, 3*nVars)
	terms, polys, mark := scratch[:nVars], scratch[nVars:2*nVars], scratch[2*nVars:]
	for v := range mark {
		mark[v] = -1
	}
	for f := c.factOff[firstTerm]; f < int32(len(c.vars)); f++ {
		terms[c.vars[f]]++
	}
	added := 0
	for pi := firstPoly; pi < c.Len(); pi++ {
		for f := c.factOff[c.polyOff[pi]]; f < c.factOff[c.polyOff[pi+1]]; f++ {
			if v := c.vars[f]; mark[v] != int32(pi) {
				mark[v] = int32(pi)
				polys[v]++
				added++
			}
		}
	}
	var sum int32
	for v := range nVars {
		sum += terms[v]
		c.varTermOff[v+1] += sum
	}

	// Shift each id list right by the new ids of the lists before it,
	// last list first, then turn polys[v] into where v's new ids go.
	ids := slices.Grow(c.varPolyIDs, added)[:len(c.varPolyIDs)+added]
	shift := int32(added)
	for v := nVars - 1; v >= 0; v-- {
		lo, hi := c.varPolyOff[v], c.varPolyOff[v+1]
		shift -= polys[v]
		copy(ids[lo+shift:], ids[lo:hi])
		c.varPolyOff[v+1] = hi + shift + polys[v]
		polys[v] = hi + shift
	}
	for pi := firstPoly; pi < c.Len(); pi++ {
		n := c.polyOff[pi+1] - c.polyOff[pi]
		for f := c.factOff[c.polyOff[pi]]; f < c.factOff[c.polyOff[pi+1]]; f++ {
			if v := c.vars[f]; mark[v] != -2-int32(pi) {
				mark[v] = -2 - int32(pi)
				ids[polys[v]] = int32(pi)
				polys[v]++
				c.varPolyTerms[v] += n
			}
		}
	}
	c.varPolyIDs = ids
}

// DropIndex discards the inverted index and the identity baseline, to be
// built afresh by the next evaluation that needs them; until then Append
// patches neither. A session drops them from a set it no longer
// evaluates (its source after Compress). DropIndex must not run
// concurrently with evaluation.
func (c *Kernel[T, C]) DropIndex() {
	c.indexOnce, c.baselineOnce = sync.Once{}, sync.Once{}
	c.varTermOff, c.varPolyOff, c.varPolyIDs, c.varPolyTerms = nil, nil, nil, nil
	c.baseline, c.baselineDone = nil, false
}

// Baseline returns the answer vector under the identity valuation (every
// variable One), computed once and cached. The slice is shared: callers
// must not mutate it.
func (c *Kernel[T, C]) Baseline() []T {
	c.baselineOnce.Do(func() {
		c.baseline = c.Eval(c.NewValuation(), nil)
		c.baselineDone = true // lets Append patch instead of recompute
	})
	return c.baseline
}

// TermsTouching returns an upper bound on the number of terms containing any
// of the touched variables (terms shared by several touched variables are
// counted once per variable). It costs O(len(touched)).
func (c *Kernel[T, C]) TermsTouching(touched []Var) int {
	c.ensureIndex()
	n := 0
	for _, v := range touched {
		if v < 0 || int(v)+1 >= len(c.varTermOff) {
			continue
		}
		n += int(c.varTermOff[v+1] - c.varTermOff[v])
	}
	return n
}

// MinAffectedTerms returns a lower bound on the number of terms a delta
// evaluation touching these variables would recompute: the affected set
// contains every polynomial of every touched variable, so it owns at least
// the largest single variable's polynomial-term total. It costs
// O(len(touched)) and is the cheap density pre-reject — when even the lower
// bound exceeds the delta cutoff, the full Affected walk can be skipped.
func (c *Kernel[T, C]) MinAffectedTerms(touched []Var) int {
	c.ensureIndex()
	n := int32(0)
	for _, v := range touched {
		if v < 0 || int(v) >= len(c.varPolyTerms) {
			continue
		}
		if t := c.varPolyTerms[v]; t > n {
			n = t
		}
	}
	return int(n)
}

// DeltaKernel is reusable scratch state for delta evaluation: an
// epoch-marked visited set and the gathered affected-polynomial list. A
// DeltaKernel is not safe for concurrent use; batch evaluators keep one per
// worker. For one-shot calls use Kernel.EvalDelta, which pools the scratch.
type DeltaKernel[T any, C Carrier[T]] struct {
	c     *Kernel[T, C]
	mark  []uint32
	epoch uint32
	ids   []int32
}

// DeltaEval is the float64 instantiation of the delta scratch, matching
// Compiled.
type DeltaEval = DeltaKernel[float64, Float]

// NewDeltaEval returns fresh delta-evaluation scratch for the compiled set,
// building the inverted index on first use.
func (c *Kernel[T, C]) NewDeltaEval() *DeltaKernel[T, C] {
	c.ensureIndex()
	return &DeltaKernel[T, C]{c: c, mark: make([]uint32, c.Len())}
}

// Affected gathers the ids of every polynomial containing at least one
// touched variable, ascending, along with the total number of terms those
// polynomials own (the exact amount of multiply work a delta evaluation
// would redo). The returned slice is valid until the next Affected or Eval
// call on this DeltaKernel.
func (d *DeltaKernel[T, C]) Affected(touched []Var) ([]int32, int) {
	c := d.c
	if len(d.mark) < c.Len() {
		// The compiled set grew underneath pooled scratch (Append): the new
		// polynomial ids need mark slots; zero entries are never current.
		d.mark = append(d.mark, make([]uint32, c.Len()-len(d.mark))...)
	}
	d.epoch++
	if d.epoch == 0 { // wrapped: every mark looks current, so reset
		for i := range d.mark {
			d.mark[i] = 0
		}
		d.epoch = 1
	}
	d.ids = d.ids[:0]
	terms := 0
	for _, v := range touched {
		if v < 0 || int(v)+1 >= len(c.varPolyOff) {
			continue
		}
		for _, pi := range c.varPolyIDs[c.varPolyOff[v]:c.varPolyOff[v+1]] {
			if d.mark[pi] != d.epoch {
				d.mark[pi] = d.epoch
				d.ids = append(d.ids, pi)
				terms += int(c.polyOff[pi+1] - c.polyOff[pi])
			}
		}
	}
	slices.Sort(d.ids) // generic sort: no per-call closure allocation
	return d.ids, terms
}

// EvalAffected writes the baseline answers into out and recomputes exactly
// the listed polynomials under val. The contract mirrors EvalDelta: val must
// be the identity everywhere except on variables whose polynomials are all
// listed in ids (Affected of the touched variables guarantees that).
func (d *DeltaKernel[T, C]) EvalAffected(ids []int32, val, out []T) []T {
	c := d.c
	n := c.Len()
	if cap(out) < n {
		out = make([]T, n)
	}
	out = out[:n]
	copy(out, c.Baseline())
	c.evalIDs(ids, val, out)
	return out
}

// EvalAffectedSharded is EvalAffected with the recomputation of the listed
// polynomials split across a pool of workers goroutines, balanced by term
// count — the intra-scenario parallel path for a single scenario whose
// affected set is large.
func (d *DeltaKernel[T, C]) EvalAffectedSharded(ids []int32, val, out []T, workers int) []T {
	c := d.c
	n := c.Len()
	if cap(out) < n {
		out = make([]T, n)
	}
	out = out[:n]
	copy(out, c.Baseline())
	if workers > len(ids) {
		workers = len(ids)
	}
	if workers <= 1 {
		c.evalIDs(ids, val, out)
		return out
	}
	total := 0
	for _, pi := range ids {
		total += int(c.polyOff[pi+1] - c.polyOff[pi])
	}
	var wg sync.WaitGroup
	start, acc, w := 0, 0, 0
	for i, pi := range ids {
		acc += int(c.polyOff[pi+1] - c.polyOff[pi])
		if acc >= total*(w+1)/workers || i == len(ids)-1 {
			chunk := ids[start : i+1]
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.evalIDs(chunk, val, out)
			}()
			start, w = i+1, w+1
			if start == len(ids) {
				break
			}
		}
	}
	wg.Wait()
	return out
}

// Eval is Affected + EvalAffected: the one-call delta evaluation against
// this scratch state.
func (d *DeltaKernel[T, C]) Eval(touched []Var, val, out []T) []T {
	ids, _ := d.Affected(touched)
	return d.EvalAffected(ids, val, out)
}

// EvalAffectedFrom is the chained-delta kernel: prevOut holds the answers
// under some previous valuation, and val differs from that valuation only on
// variables whose affected polynomials are all listed in ids (Affected of
// the symmetric difference guarantees that). Every unlisted polynomial's
// value is unchanged — it contains no differing variable — so it is copied
// from prevOut rather than from the identity baseline; the listed ones are
// recomputed whole under val on the usual code path, keeping every answer
// bit-identical to a full Eval. out must not alias prevOut when ids is
// non-empty.
func (d *DeltaKernel[T, C]) EvalAffectedFrom(ids []int32, val, prevOut, out []T) []T {
	c := d.c
	n := c.Len()
	if cap(out) < n {
		out = make([]T, n)
	}
	out = out[:n]
	copy(out, prevOut)
	c.evalIDs(ids, val, out)
	return out
}

// EvalFrom evaluates under val given a previous result prevOut, where
// touched lists the variables whose value differs between the two
// valuations (the symmetric difference of two consecutive scenarios, with
// equal assignments cancelled). It is Affected + EvalAffectedFrom — the
// convenience form of the chained-delta path for correlated scenario
// streams, where consecutive valuations differ on far fewer variables than
// either differs from the identity. Callers choosing a chain base per
// carrier should consult Carrier.Chainable; the kernel itself is correct
// for any carrier, since listed polynomials are recomputed whole.
func (d *DeltaKernel[T, C]) EvalFrom(touched []Var, val, prevOut, out []T) []T {
	ids, _ := d.Affected(touched)
	return d.EvalAffectedFrom(ids, val, prevOut, out)
}

// evalIDs recomputes the listed polynomials into out. IDs must be distinct
// (concurrent shards rely on writes being disjoint).
func (c *Kernel[T, C]) evalIDs(ids []int32, val, out []T) {
	if c.bulk != nil {
		c.bulk.evalBulkIDs(&c.kernelArrays, ids, val, out)
		return
	}
	for _, pi := range ids {
		c.evalRange(int(pi), int(pi)+1, val, out)
	}
}

// GetDeltaEval returns delta-evaluation scratch from the compiled set's
// pool (freshly built when the pool is empty). Return it with PutDeltaEval
// when done; batch evaluators use the pair to keep steady-state requests
// free of the O(polynomials) mark-array allocation.
func (c *Kernel[T, C]) GetDeltaEval() *DeltaKernel[T, C] {
	d, _ := c.deltaPool.Get().(*DeltaKernel[T, C])
	if d == nil {
		d = c.NewDeltaEval()
	}
	return d
}

// PutDeltaEval returns scratch obtained from GetDeltaEval to the pool. The
// scratch must not be used after Put.
func (c *Kernel[T, C]) PutDeltaEval(d *DeltaKernel[T, C]) {
	c.deltaPool.Put(d)
}

// EvalDelta evaluates under a sparse scenario: touched lists the variables
// whose value in val differs from the identity One (listing extra variables
// is harmless). Only polynomials containing a touched variable are
// recomputed; the rest receive the cached Baseline value. Per polynomial the
// result is bit-identical to Eval, which recomputes everything.
//
// EvalDelta is safe for concurrent use with distinct out slices; its scratch
// state is pooled. Callers with a per-worker evaluation loop should hold
// their own NewDeltaEval (or a GetDeltaEval/PutDeltaEval pair) instead.
func (c *Kernel[T, C]) EvalDelta(touched []Var, val, out []T) []T {
	d := c.GetDeltaEval()
	out = d.Eval(touched, val, out)
	c.PutDeltaEval(d)
	return out
}

// EvalSharded is Eval with the polynomial range split across a pool of
// workers goroutines (1 or less falls back to the serial loop). Shard
// boundaries are balanced by term count, and each polynomial is computed
// whole by one goroutine, so results are bit-identical to Eval.
func (c *Kernel[T, C]) EvalSharded(val, out []T, workers int) []T {
	n := c.Len()
	if cap(out) < n {
		out = make([]T, n)
	}
	out = out[:n]
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		c.evalRange(0, n, val, out)
		return out
	}
	var wg sync.WaitGroup
	lo := 0
	for w := 1; w <= workers && lo < n; w++ {
		hi := n
		if w < workers {
			// First polynomial boundary at or past this worker's share of
			// the terms; polyOff is the cumulative term histogram.
			target := int32(len(c.coeffs) * w / workers)
			hi = sort.Search(n, func(i int) bool { return c.polyOff[i+1] > target })
			if hi < lo {
				hi = lo
			}
		}
		if hi > lo {
			lo, hi := lo, hi
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.evalRange(lo, hi, val, out)
			}()
		}
		lo = hi
	}
	wg.Wait()
	return out
}
