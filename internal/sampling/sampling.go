// Package sampling implements the paper's §6 proposal for online
// compression: rather than compressing a fully materialized provenance
// expression, generate (or receive) only a sample of the polynomials,
// choose a valid variable set on the sample, and apply that VVS to the full
// provenance as it is produced. The two open gaps the paper identifies are
// made explicit here: AdaptBound scales the size bound to the sample (the
// "first multiplied by the second" heuristic), and EstimateFullSize
// extrapolates the full provenance size from samples of increasing size
// (the extrapolation suggestion of §6).
package sampling

import (
	"fmt"
	"math/rand"
	"sort"

	"provabs/internal/abstree"
	"provabs/internal/core"
	"provabs/internal/provenance"
)

// Options controls the online pipeline.
type Options struct {
	Fraction float64 // fraction of polynomials to sample (0,1]
	Seed     int64
}

// SamplePolys draws a uniform sample of ceil(fraction·n) polynomials. For
// simple GROUP BY provenance (one polynomial per group) this realizes the
// paper's heuristic of sampling the grouping relation: each output
// polynomial is kept or dropped wholesale.
func SamplePolys(s *provenance.Set, fraction float64, seed int64) (*provenance.Set, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("sampling: fraction %v out of (0,1]", fraction)
	}
	n := s.Len()
	k := int(float64(n)*fraction + 0.999999)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	idx := rand.New(rand.NewSource(seed)).Perm(n)[:k]
	sort.Ints(idx)
	out := provenance.NewSet(s.Vocab)
	for _, i := range idx {
		tag := ""
		if i < len(s.Tags) {
			tag = s.Tags[i]
		}
		out.Add(tag, s.Poly(i))
	}
	return out, nil
}

// AdaptBound scales the full-provenance bound to the sample: §6 proposes
// the original bound multiplied by the sample-to-full size ratio.
func AdaptBound(B, fullSize, sampleSize int) int {
	if fullSize <= 0 {
		return B
	}
	b := int(float64(B) * float64(sampleSize) / float64(fullSize))
	if b < 1 {
		b = 1
	}
	return b
}

// Result reports an online compression run.
type Result struct {
	VVS            *abstree.VVS
	SampleSize     int  // |sample|_M
	SampleBound    int  // bound used on the sample
	SampleAdequate bool // VVS met the adapted bound on the sample
	FullAdequate   bool // VVS meets the original bound on the full set
	Abstracted     *provenance.Set
	// Compiled is the abstracted set pre-compiled for scenario evaluation:
	// the online pipeline ends where the interactive what-if stage begins,
	// so the artifact it hands over is ready for hypo.EvalBatch.
	Compiled *provenance.Compiled
}

// OnlineCompress runs the full §6 pipeline: sample, adapt the bound, select
// a VVS on the sample with the greedy algorithm (trees may be many), then
// abstract the full provenance with the same VVS. The selection never sees
// the full set — only the final substitution touches it, which is the whole
// point of the online setting.
func OnlineCompress(full *provenance.Set, forest *abstree.Forest, B int, opts Options) (*Result, error) {
	if B < 1 {
		return nil, fmt.Errorf("sampling: bound B=%d must be at least 1", B)
	}
	sample, err := SamplePolys(full, opts.Fraction, opts.Seed)
	if err != nil {
		return nil, err
	}
	sb := AdaptBound(B, full.Size(), sample.Size())
	sel, err := core.GreedyVVS(sample, forest, sb)
	if err != nil {
		return nil, err
	}
	// Re-express the sample-cleaned VVS over a full-set cleaning of the
	// forest: leaves missing from the sample but present in the full set
	// must still be covered. We lift each chosen node by label into the
	// full cleaning; chosen nodes that were contracted away map to the
	// nearest surviving equivalent.
	fullInst, err := core.NewInstance(full, forest)
	if err != nil {
		return nil, err
	}
	lifted, err := liftVVS(sel.VVS, fullInst.Forest)
	if err != nil {
		return nil, err
	}
	abs := lifted.Apply(full)
	return &Result{
		VVS:            lifted,
		SampleSize:     sample.Size(),
		SampleBound:    sb,
		SampleAdequate: sel.Adequate,
		FullAdequate:   abs.Size() <= B,
		Abstracted:     abs,
		Compiled:       abs.Compile(),
	}, nil
}

// liftVVS maps a VVS over one cleaning of a forest onto another cleaning of
// the same underlying forest: chosen nodes carry over by label; leaves of
// the target forest not covered by any carried-over node are chosen as
// themselves.
func liftVVS(v *abstree.VVS, target *abstree.Forest) (*abstree.VVS, error) {
	nodes := make([][]int, len(target.Trees))
	chosen := make([]map[int]bool, len(target.Trees))
	for ti := range target.Trees {
		chosen[ti] = map[int]bool{}
	}
	targetIdx := make(map[*abstree.Tree]int, len(target.Trees))
	for ti, t := range target.Trees {
		targetIdx[t] = ti
	}
	for si, st := range v.Forest.Trees {
		for _, n := range v.Nodes[si] {
			label := st.Label(n)
			tt, tn, ok := target.TreeOfLabel(label)
			if !ok {
				// The node was contracted away in the target cleaning (its
				// subtree had a single active leaf there); its leaves will
				// be covered by the fallback below.
				continue
			}
			ti := targetIdx[tt]
			chosen[ti][tn] = true
		}
	}
	for ti, t := range target.Trees {
		for _, l := range t.Leaves() {
			covered := false
			for a := l; a >= 0; a = t.Parent(a) {
				if chosen[ti][a] {
					covered = true
					break
				}
			}
			if !covered {
				chosen[ti][l] = true
			}
		}
		// Drop any chosen node that became an ancestor of another chosen
		// node through the fallback (keep the higher node, drop the lower
		// one it covers — coverage wins, granularity is secondary here).
		for n := range chosen[ti] {
			for a := t.Parent(n); a >= 0; a = t.Parent(a) {
				if chosen[ti][a] {
					delete(chosen[ti], n)
					break
				}
			}
		}
		for n := range chosen[ti] {
			nodes[ti] = append(nodes[ti], n)
		}
		sort.Ints(nodes[ti])
	}
	out := &abstree.VVS{Forest: target, Nodes: nodes}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("sampling: lifted VVS invalid: %w", err)
	}
	return out, nil
}

// SizePoint is one (fraction, provenance size) observation.
type SizePoint struct {
	Fraction float64
	Size     int
}

// EstimateFullSize extrapolates |P|_M at fraction 1 from observations at
// smaller fractions, using linear extrapolation through the two largest
// fractions (the §6 extrapolation heuristic; provenance size for GROUP BY
// outputs grows sublinearly, so this overestimates slightly — a safe
// direction for a size bound).
func EstimateFullSize(points []SizePoint) (int, error) {
	if len(points) < 2 {
		return 0, fmt.Errorf("sampling: need at least two sample points")
	}
	ps := append([]SizePoint(nil), points...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Fraction < ps[j].Fraction })
	a, b := ps[len(ps)-2], ps[len(ps)-1]
	if b.Fraction <= a.Fraction {
		return 0, fmt.Errorf("sampling: sample fractions must be distinct")
	}
	slope := float64(b.Size-a.Size) / (b.Fraction - a.Fraction)
	est := float64(b.Size) + slope*(1-b.Fraction)
	if est < float64(b.Size) {
		est = float64(b.Size)
	}
	return int(est + 0.5), nil
}

// MeasureGrowth runs SamplePolys at each fraction and records sizes,
// producing the input for EstimateFullSize.
func MeasureGrowth(s *provenance.Set, fractions []float64, seed int64) ([]SizePoint, error) {
	var out []SizePoint
	for _, f := range fractions {
		sm, err := SamplePolys(s, f, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, SizePoint{Fraction: f, Size: sm.Size()})
	}
	return out, nil
}
