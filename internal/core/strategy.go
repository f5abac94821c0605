package core

// This file defines the uniform strategy interface every compression
// algorithm is routed through. The paper exposes five ways to pick an
// abstraction — Algorithm 1 (optimal, single tree), Algorithm 2 (greedy,
// any forest), brute force, the Ainy et al. summarization competitor, and
// the §6 online/sampled pipeline — and the session Engine treats them
// interchangeably: each is a Compressor turning (set, forest, bound) into a
// Compression. The three cut-based solvers live here; summarization and
// sampling implement the same interface from their own packages (they
// depend on core, not the other way around).

import (
	"fmt"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/provenance"
)

// Compression is the uniform outcome of a compression strategy: the
// abstracted provenance plus the selection metadata every strategy can
// report. Strategy-specific detail (sample sizes, oracle calls, …) rides in
// Extra.
type Compression struct {
	Strategy   string
	Abstracted *provenance.Set
	// VVS is the chosen valid variable set; nil for strategies that are not
	// tree-cut based (the pairwise-merge summarization competitor).
	VVS *abstree.VVS
	// Subst is the variable substitution realizing the abstraction. It is
	// what lets a session re-abstract polynomials added after compression
	// without re-running the selection.
	Subst    map[provenance.Var]provenance.Var
	ML, VL   int
	Adequate bool          // |P↓S|_M ≤ B
	Elapsed  time.Duration // selection plus building Abstracted
	// Extra carries the strategy's native result (e.g. *sampling.Result,
	// *summarize.Result) for callers that need more than the common fields.
	Extra any
}

// Compressor is the strategy interface: select an abstraction for the set
// under the bound B, constrained by the forest.
type Compressor interface {
	Name() string
	Compress(s *provenance.Set, forest *abstree.Forest, B int) (*Compression, error)
}

// CompressorFunc adapts a function to the Compressor interface.
type CompressorFunc struct {
	Label string
	Fn    func(s *provenance.Set, forest *abstree.Forest, B int) (*Compression, error)
}

// Name returns the strategy label.
func (c CompressorFunc) Name() string { return c.Label }

// Compress invokes the adapted function.
func (c CompressorFunc) Compress(s *provenance.Set, forest *abstree.Forest, B int) (*Compression, error) {
	return c.Fn(s, forest, B)
}

// timed runs a selection that also builds its abstracted set and
// assembles the uniform Compression. Elapsed is read once run has returned
// the abstracted set, so it covers that set's construction too.
func timed(name string, s *provenance.Set, run func() (*Result, *provenance.Set, error)) (*Compression, error) {
	start := time.Now()
	res, abs, err := run()
	if err != nil {
		return nil, err
	}
	subst := res.VVS.Subst(s.Vocab)
	return &Compression{
		Strategy:   name,
		Abstracted: abs,
		VVS:        res.VVS,
		Subst:      subst,
		ML:         res.ML,
		VL:         res.VL,
		Adequate:   res.Adequate,
		Elapsed:    time.Since(start),
	}, nil
}

// OptimalCompressor returns Algorithm 1 as a Compressor. It requires a
// single-tree forest (the optimal selection problem is NP-hard beyond one
// tree — use GreedyCompressor for forests).
func OptimalCompressor() Compressor {
	return CompressorFunc{Label: "optimal", Fn: func(s *provenance.Set, forest *abstree.Forest, B int) (*Compression, error) {
		if forest.Len() != 1 {
			return nil, fmt.Errorf("core: the optimal strategy handles exactly one tree (forest has %d); use the greedy strategy for forests", forest.Len())
		}
		return timed("optimal", s, func() (*Result, *provenance.Set, error) {
			return optimal(s, forest.Trees[0], B)
		})
	}}
}

// GreedyCompressor returns Algorithm 2 as a Compressor.
func GreedyCompressor() Compressor {
	return CompressorFunc{Label: "greedy", Fn: func(s *provenance.Set, forest *abstree.Forest, B int) (*Compression, error) {
		return timed("greedy", s, func() (*Result, *provenance.Set, error) {
			res, err := GreedyVVSOpts(s, forest, B, GreedyOptions{TieBreakML: true})
			if err != nil {
				return nil, nil, err
			}
			return res, s.Substitute(res.VVS.Subst(s.Vocab)), nil
		})
	}}
}

// BruteForceCompressor returns the exhaustive reference solver as a
// Compressor; limit caps the VVS enumeration (<=0 uses DefaultBruteLimit).
func BruteForceCompressor(limit int) Compressor {
	return CompressorFunc{Label: "brute", Fn: func(s *provenance.Set, forest *abstree.Forest, B int) (*Compression, error) {
		return timed("brute", s, func() (*Result, *provenance.Set, error) {
			res, err := BruteForceVVS(s, forest, B, limit)
			if err != nil {
				return nil, nil, err
			}
			return res, res.VVS.Apply(s), nil
		})
	}}
}
