// Quickstart: build a provenance polynomial, define an abstraction tree,
// open a session Engine, compress, and run hypothetical scenarios — the
// minimal end-to-end tour of the public API.
package main

import (
	"fmt"
	"log"

	"provabs"
)

func main() {
	// 1. Provenance. The polynomial of Example 2: the revenue of zip code
	// 10001 parameterized by plan variables (p1, f1, y1, v) and month
	// variables (m1, m3).
	vb := provabs.NewVocab()
	set := provabs.NewSet(vb)
	set.Add("zip 10001", provabs.MustParse(vb,
		"220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 + "+
			"75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3"))
	fmt.Printf("original: %d monomials over %d variables\n", set.Size(), set.Granularity())

	// 2. Abstraction tree: months may be grouped into quarter q1 (Figure 3,
	// restricted to the active months), and a session over it. The Engine
	// owns the compress-once/evaluate-many lifecycle: it caches the
	// compiled provenance across scenarios and invalidates it on mutation.
	forest, err := provabs.NewForest(provabs.MustParseTree("Year(q1(m1,m3))"))
	if err != nil {
		log.Fatal(err)
	}
	eng, err := provabs.Open(set, forest)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Compress to at most 4 monomials, keeping as many variables as
	// possible (the paper's optimization problem; StrategyAuto runs
	// Algorithm 1 on a single tree).
	comp, err := eng.Compress(4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chosen abstraction: %s (monomial loss %d, variable loss %d)\n",
		comp.VVS, comp.ML, comp.VL)
	fmt.Printf("compressed: %d monomials over %d variables\n",
		comp.Abstracted.Size(), comp.Abstracted.Granularity())
	fmt.Printf("  %s\n", comp.Abstracted.Poly(0).String(vb))

	// 4. Hypothetical reasoning: "what if prices drop 20% in the first
	// quarter?" — a single assignment to the meta-variable q1, answered
	// from the session's cached compiled provenance.
	answers, err := eng.WhatIf(provabs.NewScenario().Set("q1", 0.8))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("revenue under the Q1-discount scenario: %.2f\n", answers[0].Value)

	// The abstraction is exact for such group-uniform scenarios: the same
	// scenario expressed on the original variables agrees.
	orig, err := provabs.NewScenario().Set("m1", 0.8).Set("m3", 0.8).Eval(set)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same scenario on the original provenance:  %.2f\n", orig[0])
}
