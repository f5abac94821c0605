// What-if tour: the hypothetical-reasoning API across both provenance
// models — numeric scenarios over aggregate provenance (model 2) and
// semiring valuations over SPJU tuple annotations (model 1), including the
// exactness boundary of abstraction.
package main

import (
	"fmt"
	"log"

	"provabs"
	"provabs/internal/engine"
	"provabs/internal/hypo"
)

func main() {
	numericScenarios()
	semiringScenarios()
}

// numericScenarios works model 2: aggregate provenance with multiplicative
// what-ifs, and what abstraction does to them.
func numericScenarios() {
	fmt.Println("== model 2: aggregate provenance, numeric what-ifs ==")
	vb := provabs.NewVocab()
	set := provabs.NewSet(vb)
	set.Add("zip 10001", provabs.MustParse(vb,
		"220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3"))

	baseline, _ := provabs.NewScenario().Eval(set)
	fmt.Printf("baseline revenue: %.2f\n", baseline[0])

	// "Business plans +10%" — a per-plan scenario, no month change.
	up, _ := provabs.NewScenario().Set("p1", 1.1).Eval(set)
	fmt.Printf("plan A +10%%:      %.2f\n", up[0])

	// Open a session and compress months into the quarter meta-variable;
	// every what-if below reuses the Engine's cached compilation.
	forest, err := provabs.NewForest(provabs.MustParseTree("Year(q1(m1,m3))"))
	if err != nil {
		log.Fatal(err)
	}
	eng, err := provabs.Open(set, forest)
	if err != nil {
		log.Fatal(err)
	}
	comp, err := eng.Compress(4, provabs.WithStrategy(provabs.StrategyOptimal))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed to %d monomials with %s\n", comp.Abstracted.Size(), comp.VVS)

	// Exact: uniform per group.
	uniform := provabs.NewScenario().Set("q1", 0.8)
	cAns, _ := eng.WhatIf(uniform)
	oVals, _ := uniform.UniformOn(comp.VVS).Eval(set)
	fmt.Printf("uniform 'Q1 -20%%': compressed %.2f vs original %.2f (exact)\n", cAns[0].Value, oVals[0])

	// Approximate: January and March diverge — below the abstraction's
	// granularity. The projection uses the group mean.
	skewed := hypo.NewScenario().Set("m1", 0.6).Set("m3", 1.0)
	if ok, why := skewed.IsUniformOn(comp.VVS); !ok {
		fmt.Printf("skewed scenario is NOT supported exactly: %s\n", why)
	}
	trueVals, _ := skewed.Eval(set)
	approxAns, _ := eng.WhatIf(skewed.Project(comp.VVS))
	approxVals := make([]float64, len(approxAns))
	for i, a := range approxAns {
		approxVals[i] = a.Value
	}
	relErr, _ := hypo.MaxRelError(approxVals, trueVals)
	fmt.Printf("skewed scenario: true %.2f, via abstraction %.2f (rel. err %.3f)\n\n",
		trueVals[0], approxVals[0], relErr)
}

// semiringScenarios works model 1: SPJU queries over annotated tuples, with
// Boolean deletion what-ifs and other semirings over the same polynomial.
func semiringScenarios() {
	fmt.Println("== model 1: SPJU tuple annotations, semiring what-ifs ==")
	vb := provabs.NewVocab()
	cat := engine.NewCatalog(vb)

	claims := engine.NewRelation("claims", engine.Schema{
		{Name: "patient", Type: engine.TString}, {Name: "drug", Type: engine.TString},
	})
	claims.MustAppend(engine.Str("ann"), engine.Str("aspirin"))
	claims.MustAppend(engine.Str("bob"), engine.Str("aspirin"))
	claims.MustAppend(engine.Str("ann"), engine.Str("statin"))
	claims.AnnotateTuples(vb, func(i int) string { return fmt.Sprintf("c%d", i+1) })
	cat.AddTable(claims)

	interacts := engine.NewRelation("interacts", engine.Schema{
		{Name: "drug", Type: engine.TString}, {Name: "with", Type: engine.TString},
	})
	interacts.MustAppend(engine.Str("aspirin"), engine.Str("warfarin"))
	interacts.MustAppend(engine.Str("statin"), engine.Str("warfarin"))
	interacts.AnnotateTuples(vb, func(i int) string { return fmt.Sprintf("i%d", i+1) })
	cat.AddTable(interacts)

	// Which patients take a drug that interacts with warfarin?
	res, err := cat.ExecSQL(
		"SELECT DISTINCT claims.patient FROM claims, interacts WHERE claims.drug = interacts.drug")
	if err != nil {
		log.Fatal(err)
	}
	set, err := engine.TupleProvenance(vb, res)
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range set.Polys {
		fmt.Printf("%-18s %s\n", set.Tags[i], p.String(vb))
	}

	// One Engine over the tuple provenance answers every semiring what-if,
	// each carrier on its own cached compilation.
	eng, err := provabs.Open(set, nil)
	if err != nil {
		log.Fatal(err)
	}
	whatIf := func(kind provabs.SemiringKind, sc *provabs.Scenario) []provabs.ValueAnswer {
		answers, err := eng.WhatIfIn(kind, sc)
		if err != nil {
			log.Fatal(err)
		}
		return answers
	}

	// Boolean semiring: does ann still show up if claim c1 is deleted?
	for _, a := range whatIf(provabs.SemiringBool, provabs.NewScenario().Set("c1", 0)) {
		fmt.Printf("delete c1: %-10s still derivable? %v\n", a.Tag, a.Value)
	}

	// Tropical semiring: cheapest derivation if each tuple has a cost.
	cost := provabs.NewScenario().Set("c1", 2).Set("c2", 1).Set("c3", 5).Set("i1", 1).Set("i2", 1)
	for _, a := range whatIf(provabs.SemiringTropical, cost) {
		fmt.Printf("tropical:  %-10s cheapest derivation cost %v\n", a.Tag, a.Value)
	}

	// Counting semiring: number of derivations.
	for _, a := range whatIf(provabs.SemiringCount, provabs.NewScenario()) {
		fmt.Printf("counting:  %-10s %d derivation(s)\n", a.Tag, a.Value)
	}
}
