// Package summarize reimplements the black-box provenance-summarization
// algorithm of Ainy, Bourhis, Davidson, Deutch and Milo (CIKM 2015) — the
// competitor the paper compares against in §4.3 ("Gain of abstraction
// trees", Figure 12) under the name we keep here: Prox.
//
// The algorithm iteratively merges pairs of variable groups: each round it
// scores, through an oracle, the grouping of every pair of current groups
// and applies the best-scoring admissible merge, until the provenance size
// reaches the bound. Following the paper's experimental protocol, the
// abstraction forest serves as the oracle: a merge is admissible when the
// merged variables share a tree (the tree's leaf vocabulary is the semantic
// constraint), and the score is the monomial loss the merge induces. Unlike
// the paper's Algorithm 1/2 the search space is all pairwise-buildable
// groupings, not tree cuts — more general, but with no quality or runtime
// guarantees, which is exactly the contrast the paper draws.
package summarize

import (
	"fmt"
	"sort"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/core"
	"provabs/internal/provenance"
)

// Options bounds the run. The paper reports the competitor "did not finish
// the computation on query 10 and the running example query within 24
// hours"; Timeout emulates that cutoff at benchmark scale.
type Options struct {
	Timeout   time.Duration // 0 = unlimited
	MaxRounds int           // 0 = unlimited
}

// Result reports the summarization outcome.
type Result struct {
	Groups      [][]string // final variable groups (size >= 2 only)
	ML, VL      int
	Adequate    bool // reached the bound
	TimedOut    bool
	OracleCalls int // pair scorings performed
	Rounds      int // merges applied
	Elapsed     time.Duration
	Abstracted  *provenance.Set
	// Subst maps each merged leaf variable to its group's summary variable —
	// the substitution whose application produced Abstracted.
	Subst map[provenance.Var]provenance.Var
}

// Summarize runs the pairwise-merge summarization until |P↓|_M <= B.
func Summarize(s *provenance.Set, forest *abstree.Forest, B int, opts Options) (*Result, error) {
	if B < 1 {
		return nil, fmt.Errorf("summarize: bound B=%d must be at least 1", B)
	}
	inst, err := core.NewInstance(s, forest)
	if err != nil {
		return nil, err
	}
	start := time.Now()

	// group state: per variable-name, the members of its group. Groups are
	// tagged with the tree index that constrains them.
	type group struct {
		tree    int
		members []string // leaf variable names, sorted
		rep     provenance.Var
	}
	var groups []*group
	for ti, t := range inst.Forest.Trees {
		for _, l := range t.Leaves() {
			name := t.Label(l)
			if v, ok := s.Vocab.Lookup(name); ok {
				groups = append(groups, &group{tree: ti, members: []string{name}, rep: v})
			}
		}
	}

	cur := s.Clone()
	res := &Result{}
	freshID := 0

	for cur.Size() > B {
		if opts.MaxRounds > 0 && res.Rounds >= opts.MaxRounds {
			break
		}
		if opts.Timeout > 0 && time.Since(start) > opts.Timeout {
			res.TimedOut = true
			break
		}
		// One pass over the current polynomials collects each group
		// representative's residue set; every pair scoring below is then a
		// set intersection. The per-round cost stays quadratic in the
		// number of groups — the competitor's defining expense — without
		// re-scanning the polynomials per pair.
		polys := make([]*provenance.Polynomial, cur.Len())
		for pi := range polys {
			polys[pi] = cur.Poly(pi)
		}
		residues := make(map[provenance.Var]map[residueID]struct{}, len(groups))
		for _, g := range groups {
			set := make(map[residueID]struct{})
			for pi, p := range polys {
				for _, k := range p.Residues(g.rep) {
					set[residueID{int32(pi), k}] = struct{}{}
				}
			}
			residues[g.rep] = set
		}
		// Score every admissible pair through the oracle.
		bestI, bestJ, bestML := -1, -1, -1
		timedOut := false
		for i := 0; i < len(groups) && !timedOut; i++ {
			for j := i + 1; j < len(groups); j++ {
				if groups[i].tree != groups[j].tree {
					continue // oracle: no shared semantic domain
				}
				res.OracleCalls++
				if opts.Timeout > 0 && res.OracleCalls%1024 == 0 && time.Since(start) > opts.Timeout {
					timedOut = true
					break
				}
				ml := intersectionSize(residues[groups[i].rep], residues[groups[j].rep])
				key := groups[i].members[0] + "|" + groups[j].members[0]
				better := ml > bestML
				if !better && ml == bestML && bestI >= 0 {
					bestKey := groups[bestI].members[0] + "|" + groups[bestJ].members[0]
					better = key < bestKey
				}
				if better {
					bestI, bestJ, bestML = i, j, ml
				}
			}
		}
		if timedOut {
			res.TimedOut = true
			break
		}
		if bestI < 0 {
			break // nothing mergeable
		}
		// Apply the merge: both groups substitute to a fresh summary
		// variable.
		freshID++
		meta := s.Vocab.Var(fmt.Sprintf("ainy_g%d", freshID))
		subst := map[provenance.Var]provenance.Var{
			groups[bestI].rep: meta,
			groups[bestJ].rep: meta,
		}
		cur = cur.Substitute(subst)
		merged := &group{
			tree:    groups[bestI].tree,
			members: mergeSorted(groups[bestI].members, groups[bestJ].members),
			rep:     meta,
		}
		ng := groups[:0]
		for k, g := range groups {
			if k != bestI && k != bestJ {
				ng = append(ng, g)
			}
		}
		groups = append(ng, merged)
		res.Rounds++
	}

	res.ML = s.Size() - cur.Size()
	res.VL = s.Granularity() - cur.Granularity()
	res.Adequate = cur.Size() <= B
	res.Elapsed = time.Since(start)
	res.Abstracted = cur
	res.Subst = make(map[provenance.Var]provenance.Var)
	for _, g := range groups {
		if len(g.members) >= 2 {
			res.Groups = append(res.Groups, g.members)
			for _, name := range g.members {
				if v, ok := s.Vocab.Lookup(name); ok {
					res.Subst[v] = g.rep
				}
			}
		}
	}
	sort.Slice(res.Groups, func(i, j int) bool { return res.Groups[i][0] < res.Groups[j][0] })
	return res, nil
}

// residueID tags a residue with its polynomial so residues of different
// polynomials never match.
type residueID struct {
	poly int32
	key  provenance.MonomialKey
}

// intersectionSize counts shared residues — the monomial loss of unifying
// the two variables.
func intersectionSize(a, b map[residueID]struct{}) int {
	if len(b) < len(a) {
		a, b = b, a
	}
	n := 0
	for k := range a {
		if _, ok := b[k]; ok {
			n++
		}
	}
	return n
}

func mergeSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Strings(out)
	return out
}
