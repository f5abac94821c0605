package provabs_test

// Cross-module integration tests: each test exercises a full paper
// workflow spanning the engine, the provenance model, the compression
// algorithms, the codec and the hypothetical-reasoning layer.

import (
	"bytes"
	"math"
	"testing"

	"provabs/internal/abstree"
	"provabs/internal/core"
	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/sampling"
	"provabs/internal/semiring"
	"provabs/internal/telco"
	"provabs/internal/tpch"
	"provabs/internal/treegen"
)

// TestPipelineTelcoScenarioExactness runs the complete offline pipeline on
// the telco workload and checks the end-to-end soundness property: a
// quarter-uniform scenario evaluated on the compressed provenance equals
// the same scenario on the uncompressed provenance, for every zip.
func TestPipelineTelcoScenarioExactness(t *testing.T) {
	ds, err := telco.Generate(telco.Config{Customers: 300, Plans: 32, Months: 12, Zips: 15, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	set, err := ds.Provenance()
	if err != nil {
		t.Fatal(err)
	}
	plansTree, err := telco.PlansTree(treegen.Shape{Fanouts: []int{4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	forest := abstree.MustForest(plansTree, telco.QuarterTree())
	res, err := core.GreedyVVS(set, forest, set.Size()/2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Adequate {
		t.Fatalf("greedy missed the bound: ML=%d of %d", res.ML, set.Size()-set.Size()/2)
	}
	compressed := res.VVS.Apply(set)

	// Scenario on the abstraction's own variables (whatever the greedy
	// chose), lifted to the leaves for the reference evaluation.
	meta := hypo.NewScenario()
	for _, lbl := range res.VVS.Labels() {
		meta.Set(lbl, 0.75)
	}
	absVals, err := meta.Eval(compressed)
	if err != nil {
		t.Fatal(err)
	}
	origVals, err := meta.UniformOn(res.VVS).Eval(set)
	if err != nil {
		t.Fatal(err)
	}
	for i := range absVals {
		if math.Abs(absVals[i]-origVals[i]) > 1e-6*(1+math.Abs(origVals[i])) {
			t.Errorf("zip %s: compressed %v != original %v", set.Tags[i], absVals[i], origVals[i])
		}
	}
}

// TestPipelineShipToAnalyst emulates the paper's deployment story (§1
// "Offline vs. Online Compression"): compress at the server, encode, ship,
// decode at the analyst, and run scenarios on the decoded provenance.
func TestPipelineShipToAnalyst(t *testing.T) {
	d, err := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	set, err := d.Provenance(tpch.Q1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := tpch.SupplierTree(treegen.SmallestOfType(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.OptimalVVS(set, tree, set.Size()/2)
	if err != nil {
		t.Fatal(err)
	}
	compressed := res.VVS.Apply(set)
	if provenance.EncodedSize(compressed) >= provenance.EncodedSize(set) {
		t.Error("compression did not shrink the shipped bytes")
	}

	var wire bytes.Buffer
	if err := provenance.Encode(&wire, compressed); err != nil {
		t.Fatal(err)
	}
	analystCopy, err := provenance.Decode(&wire)
	if err != nil {
		t.Fatal(err)
	}
	// Scenario fidelity across the wire: identical answers from the local
	// and the decoded copies.
	sc := hypo.NewScenario()
	for _, lbl := range res.VVS.Labels() {
		sc.Set(lbl, 0.9)
	}
	local, err := sc.Eval(compressed)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sc.Eval(analystCopy)
	if err != nil {
		t.Fatal(err)
	}
	for i := range local {
		if math.Abs(local[i]-remote[i]) > 1e-9*(1+math.Abs(local[i])) {
			t.Errorf("answer %d drifted across the wire: %v vs %v", i, local[i], remote[i])
		}
	}
}

// TestPipelineSemiringAfterAbstraction: abstraction is semantics-preserving
// in arbitrary semirings for group-uniform valuations — checked in the
// counting semiring over real Q10 provenance (natural coefficients).
func TestPipelineSemiringAfterAbstraction(t *testing.T) {
	vb := provenance.NewVocab()
	s := provenance.NewSet(vb)
	// Natural-coefficient provenance (semiring-eligible): three tuples per
	// group joining two annotated relations.
	s.Add("out1", provenance.MustParse(vb, "1·r1·s1 + 1·r2·s1 + 1·r3·s2"))
	s.Add("out2", provenance.MustParse(vb, "1·r1·s2 + 1·r2·s2"))
	forest := abstree.MustForest(abstree.MustParseTree("R(r1,r2,r3)"))
	v := abstree.MustFromLabels(forest, "R")
	abs := v.Apply(s)

	// Uniform counting valuation: every r_i worth 2, meta R worth 2.
	rVal, sVal := int64(2), int64(3)
	val := func(x provenance.Var) int64 {
		name := vb.Name(x)
		if name[0] == 'r' || name == "R" {
			return rVal
		}
		return sVal
	}
	for i := range s.Len() {
		a, err := semiring.Eval[int64](semiring.Counting{}, s.Poly(i), val)
		if err != nil {
			t.Fatal(err)
		}
		b, err := semiring.Eval[int64](semiring.Counting{}, abs.Poly(i), val)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("poly %d: counting eval %d != abstracted %d", i, a, b)
		}
	}
}

// TestPipelineOnlineMatchesOfflineAtFullFraction: sampling with fraction 1
// degenerates to the offline pipeline.
func TestPipelineOnlineMatchesOfflineAtFullFraction(t *testing.T) {
	set, err := telco.SyntheticProvenance(telco.Config{Customers: 250, Plans: 16, Months: 12, Zips: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	plansTree, err := telco.PlansTree(treegen.Shape{Fanouts: []int{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	forest := abstree.MustForest(plansTree)
	B := set.Size() / 2
	online, err := sampling.OnlineCompress(set, forest, B, sampling.Options{Fraction: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	offline, err := core.GreedyVVS(set, forest, B)
	if err != nil {
		t.Fatal(err)
	}
	if online.Abstracted.Size() != set.Size()-offline.ML {
		t.Errorf("fraction-1 online size %d != offline size %d",
			online.Abstracted.Size(), set.Size()-offline.ML)
	}
	if online.Abstracted.Granularity() != set.Granularity()-offline.VL {
		t.Errorf("fraction-1 online granularity %d != offline %d",
			online.Abstracted.Granularity(), set.Granularity()-offline.VL)
	}
}

// TestPipelineQ10ManySmallPolynomials verifies the paper's Q10 narrative at
// the system level: lots of polynomials, tiny each, little to gain — the
// optimal abstraction's ML stays far from a 50% cut.
func TestPipelineQ10Narrative(t *testing.T) {
	d, err := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	set, err := d.Provenance(tpch.Q10)
	if err != nil {
		t.Fatal(err)
	}
	if set.MeanPolySize() > 20 {
		t.Fatalf("Q10 mean polynomial size %v; narrative needs tiny polynomials", set.MeanPolySize())
	}
	tree, err := tpch.SupplierTree(treegen.SmallestOfType(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.OptimalVVS(set, tree, set.Size()/2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adequate {
		t.Log("note: Q10 reached the 0.5 bound at this scale; paper reports ~0.03% max compression at 10GB")
	}
	// Whatever was achieved must be consistent.
	if got := core.MonomialLoss(set, res.VVS); got != res.ML {
		t.Errorf("ML mismatch: %d vs %d", got, res.ML)
	}
}
