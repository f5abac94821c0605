// Package hypo is the hypothetical-reasoning layer: scenarios assign values
// to provenance variables (or to the meta-variables of an abstraction), and
// applying a scenario to pre-computed provenance yields the query answers
// under the hypothetical update without re-running the query (§1).
//
// Scenarios evaluate in any provenance semiring: the batch entry points are
// generic over provenance.Carrier, so the same scenario can be asked for
// numeric magnitudes (the default), boolean derivability under deletions,
// derivation counts, tropical min-plus costs or max-min clearance levels,
// and every carrier takes the same delta, chained and sharded routes.
//
// The package also quantifies the two costs the paper trades off:
// assignment time (Figure 10's speedup of compressed vs original
// provenance) and accuracy (abstraction is exact for group-uniform
// scenarios and approximate otherwise).
package hypo

import (
	"fmt"
	"math"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/provenance"
)

// Scenario is a hypothetical update: a multiplicative (or absolute,
// depending on how the provenance was parameterized) assignment to
// variables by name. Unassigned variables keep the identity value 1.
type Scenario struct {
	Assign map[string]float64
}

// NewScenario returns an empty scenario.
func NewScenario() *Scenario { return &Scenario{Assign: map[string]float64{}} }

// Set assigns a value to a variable name and returns the scenario for
// chaining.
func (sc *Scenario) Set(name string, v float64) *Scenario {
	sc.Assign[name] = v
	return sc
}

// SetAll assigns the same value to several variables.
func (sc *Scenario) SetAll(v float64, names ...string) *Scenario {
	for _, n := range names {
		sc.Assign[n] = v
	}
	return sc
}

// Eval applies the scenario to every polynomial of the set, returning the
// hypothetical answers in set order. The set is compiled and evaluated on
// the dense path; callers holding a long-lived set who evaluate many
// scenarios should compile once with Set.Compile and use EvalCompiled or
// EvalBatch to amortize the compilation.
func (sc *Scenario) Eval(s *provenance.Set) ([]float64, error) {
	return sc.EvalCompiled(s.Compile())
}

// UniformOn lifts a scenario defined on the meta-variables of a VVS to the
// underlying leaf variables: every leaf below a chosen node receives the
// node's assigned value. Scenarios of this form are exactly those the
// abstraction supports losslessly.
func (sc *Scenario) UniformOn(v *abstree.VVS) *Scenario {
	out := NewScenario()
	for ti, t := range v.Forest.Trees {
		for _, n := range v.Nodes[ti] {
			x, ok := sc.Assign[t.Label(n)]
			if !ok {
				continue
			}
			for _, l := range t.LeavesUnder(n) {
				out.Assign[t.Label(l)] = x
			}
		}
	}
	// Assignments to variables outside the forest pass through.
	for name, x := range sc.Assign {
		if _, _, ok := v.Forest.TreeOfLabel(name); !ok {
			out.Assign[name] = x
		}
	}
	return out
}

// Exactness: a scenario on leaf variables is supported by an abstraction
// exactly when it is uniform on every chosen group. IsUniformOn reports
// that, listing the first violating group otherwise.
func (sc *Scenario) IsUniformOn(v *abstree.VVS) (bool, string) {
	for ti, t := range v.Forest.Trees {
		for _, n := range v.Nodes[ti] {
			if t.IsLeaf(n) {
				continue
			}
			var first float64
			var firstName string
			seen := false
			for _, l := range t.LeavesUnder(n) {
				x, ok := sc.Assign[t.Label(l)]
				if !ok {
					x = 1
				}
				if !seen {
					first, firstName, seen = x, t.Label(l), true
					continue
				}
				if x != first {
					return false, fmt.Sprintf("group %q assigns %v to %s but %v to %s",
						t.Label(n), first, firstName, x, t.Label(l))
				}
			}
		}
	}
	return true, ""
}

// Project maps a leaf-variable scenario onto the abstraction's
// meta-variables: each chosen group receives the mean of its members'
// assignments (exact when the scenario is uniform, the natural estimate
// otherwise).
func (sc *Scenario) Project(v *abstree.VVS) *Scenario {
	out := NewScenario()
	covered := map[string]bool{}
	for ti, t := range v.Forest.Trees {
		for _, n := range v.Nodes[ti] {
			leaves := t.LeavesUnder(n)
			sum := 0.0
			for _, l := range leaves {
				covered[t.Label(l)] = true
				x, ok := sc.Assign[t.Label(l)]
				if !ok {
					x = 1
				}
				sum += x
			}
			if len(leaves) > 0 {
				out.Assign[t.Label(n)] = sum / float64(len(leaves))
			}
		}
	}
	for name, x := range sc.Assign {
		if !covered[name] {
			out.Assign[name] = x
		}
	}
	return out
}

// AnswerOf pairs a polynomial's tag with its value under a scenario, in
// whatever carrier the scenario was evaluated in — float64 magnitudes,
// boolean derivability, int64 counts, tropical costs.
type AnswerOf[T any] struct {
	Tag   string
	Value T
}

// Answer is the float64 answer — the default carrier, and the type every
// pre-semiring call site uses.
type Answer = AnswerOf[float64]

// ValueAnswer is the carrier-erased answer the Go API hands out where the
// carrier is chosen per call (Engine.WhatIfIn, Engine.Query): Value holds
// the carrier's value (float64, bool, int64) as an any. Row.Erase builds
// it.
type ValueAnswer struct {
	Tag   string
	Value any
}

// Row is one scenario's answers as the kernel computed them: the answer
// vector in its carrier's own slice — a []float64 (float, tropical,
// minmax), []bool or []int64 — paired with the set's polynomial tags. It
// carries answers from the kernel to the wire without boxing any of them;
// Erase is the only place they are boxed. Base, when set, is the identity
// baseline of the kernel that computed the row, for an encoder to reuse
// (see Baseline). The zero Row has no answers.
type Row struct {
	Tags   []string
	Values any
	Base   *Baseline
}

// RowOf pairs one answer vector with the set's polynomial tags and the
// kernel's baseline (nil for none).
func RowOf[T any](tags []string, vals []T, base *Baseline) Row {
	return Row{Tags: tags, Values: vals, Base: base}
}

// Tag is answer j's tag, "" when the set carries none.
func (r Row) Tag(j int) string { return tagAt(r.Tags, j) }

// Len is the number of answers.
func (r Row) Len() int {
	switch vals := r.Values.(type) {
	case nil:
		return 0
	case []float64:
		return len(vals)
	case []bool:
		return len(vals)
	case []int64:
		return len(vals)
	}
	panic(fmt.Sprintf("hypo: Row holds %T, not a carrier's answer vector", r.Values))
}

// Erase boxes every answer into the carrier-erased form.
func (r Row) Erase() []ValueAnswer {
	switch vals := r.Values.(type) {
	case nil:
		return nil
	case []float64:
		return erase(r.Tags, vals)
	case []bool:
		return erase(r.Tags, vals)
	case []int64:
		return erase(r.Tags, vals)
	}
	panic(fmt.Sprintf("hypo: Row holds %T, not a carrier's answer vector", r.Values))
}

func erase[T any](tags []string, vals []T) []ValueAnswer {
	ans := make([]ValueAnswer, len(vals))
	for j, v := range vals {
		ans[j] = ValueAnswer{Tag: tagAt(tags, j), Value: v}
	}
	return ans
}

// MaxRelError returns the maximum per-component relative error between two
// answer vectors: max_i |a[i]−b[i]| / max(|b[i]|, 1). The divisor is floored
// at 1 so that near-zero reference answers stay comparable instead of
// inflating the error.
func MaxRelError(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("hypo: answer vectors have lengths %d and %d", len(a), len(b))
	}
	worst := 0.0
	for i := range a {
		denom := math.Abs(b[i])
		if denom < 1 {
			denom = 1
		}
		if e := math.Abs(a[i]-b[i]) / denom; e > worst {
			worst = e
		}
	}
	return worst, nil
}

// AssignmentTimes measures the time to evaluate `rounds` scenarios on the
// original and on the abstracted provenance (Figure 10's quantities). Both
// sets are compiled outside the timed region — the measurement is of the
// production evaluation path, which is the compiled one. The scenario
// values are irrelevant to the timing; a fixed pseudo-random valuation over
// each set's variables is used.
func AssignmentTimes(orig, abstracted *provenance.Set, rounds int) (tOrig, tAbs time.Duration) {
	if rounds < 1 {
		rounds = 1
	}
	mkVal := func(s *provenance.Set) map[provenance.Var]float64 {
		val := make(map[provenance.Var]float64)
		for i, v := range s.Vars() {
			val[v] = 0.5 + float64(i%7)/8
		}
		return val
	}
	co, ca := orig.Compile(), abstracted.Compile()
	vo, va := co.Valuation(mkVal(orig)), ca.Valuation(mkVal(abstracted))
	var out []float64
	start := time.Now()
	for r := 0; r < rounds; r++ {
		out = co.Eval(vo, out)
	}
	tOrig = time.Since(start)
	out = nil
	start = time.Now()
	for r := 0; r < rounds; r++ {
		out = ca.Eval(va, out)
	}
	tAbs = time.Since(start)
	return tOrig, tAbs
}

// Speedup converts the two assignment times into the paper's speedup — the
// fraction of the original assignment time saved by the abstraction, in
// [0, 1]: 0.75 means the abstracted evaluation takes a quarter of the
// original's time (multiply by 100 for Figure 10's percentages). Returns 0
// when tOrig is zero (nothing to compare) or when the abstraction is slower
// (negative savings clamp to 0).
func Speedup(tOrig, tAbs time.Duration) float64 {
	if tOrig <= 0 {
		return 0
	}
	s := 1 - float64(tAbs)/float64(tOrig)
	if s < 0 {
		return 0
	}
	return s
}
