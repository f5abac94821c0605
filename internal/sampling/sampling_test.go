package sampling

import (
	"math"
	"testing"

	"provabs/internal/abstree"
	"provabs/internal/core"
	"provabs/internal/provenance"
	"provabs/internal/telco"
	"provabs/internal/treegen"
)

func telcoSet(t testing.TB) *provenance.Set {
	t.Helper()
	s, err := telco.SyntheticProvenance(telco.Config{
		Customers: 600, Plans: 32, Months: 12, Zips: 40, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func telcoForest(t testing.TB) *abstree.Forest {
	t.Helper()
	plansTree := treegen.Shape{Fanouts: []int{4, 8}}.Build("PlansRoot", treegen.NumberedLeaves("pl"))
	return abstree.MustForest(plansTree, treegen.QuarterTree())
}

func TestSamplePolys(t *testing.T) {
	s := telcoSet(t)
	sm, err := SamplePolys(s, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := int(float64(s.Len())*0.25 + 0.999999)
	if sm.Len() != want {
		t.Errorf("sample has %d polynomials, want %d", sm.Len(), want)
	}
	if sm.Size() >= s.Size() {
		t.Errorf("sample size %d not smaller than full %d", sm.Size(), s.Size())
	}
	// Determinism.
	sm2, _ := SamplePolys(s, 0.25, 1)
	if sm.Size() != sm2.Size() {
		t.Error("same seed produced different samples")
	}
	if _, err := SamplePolys(s, 0, 1); err == nil {
		t.Error("fraction 0 accepted")
	}
	if _, err := SamplePolys(s, 1.5, 1); err == nil {
		t.Error("fraction 1.5 accepted")
	}
}

func TestAdaptBound(t *testing.T) {
	if got := AdaptBound(1000, 2000, 500); got != 250 {
		t.Errorf("AdaptBound = %d, want 250", got)
	}
	if got := AdaptBound(10, 1000, 5); got != 1 {
		t.Errorf("AdaptBound floor = %d, want 1", got)
	}
	if got := AdaptBound(7, 0, 5); got != 7 {
		t.Errorf("AdaptBound with zero full = %d, want 7", got)
	}
}

func TestOnlineCompressAchievesBound(t *testing.T) {
	s := telcoSet(t)
	f := telcoForest(t)
	B := s.Size() / 2
	res, err := OnlineCompress(s, f, B, Options{Fraction: 0.3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SampleAdequate {
		t.Error("greedy failed on the sample")
	}
	if !res.FullAdequate {
		t.Errorf("VVS chosen on 30%% sample misses the full bound: |P↓S|_M=%d > B=%d",
			res.Abstracted.Size(), B)
	}
	if res.SampleBound >= B {
		t.Errorf("adapted bound %d not smaller than full bound %d", res.SampleBound, B)
	}
	if err := res.VVS.Validate(); err != nil {
		t.Errorf("returned VVS invalid: %v", err)
	}
	// The pipeline hands over the abstracted set pre-compiled for the
	// what-if stage; it must match the abstracted set it was built from.
	if res.Compiled == nil {
		t.Fatal("result lacks compiled provenance")
	}
	if res.Compiled.Len() != res.Abstracted.Len() || res.Compiled.Size() != res.Abstracted.Size() {
		t.Errorf("compiled len/size = %d/%d, abstracted %d/%d",
			res.Compiled.Len(), res.Compiled.Size(), res.Abstracted.Len(), res.Abstracted.Size())
	}
	got := res.Compiled.Eval(res.Compiled.NewValuation(), nil)
	want := make([]float64, res.Abstracted.Len())
	for i := range want {
		want[i] = res.Abstracted.Poly(i).Eval(nil)
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Errorf("compiled identity eval poly %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// The offline optimum (full greedy) retains at least as much granularity as
// the online pipeline — sampling costs quality, never gains it (on the same
// forest and bound).
func TestOnlineVersusOffline(t *testing.T) {
	s := telcoSet(t)
	f := telcoForest(t)
	B := s.Size() / 2
	online, err := OnlineCompress(s, f, B, Options{Fraction: 0.3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	offline, err := core.GreedyVVS(s, f, B)
	if err != nil {
		t.Fatal(err)
	}
	offlineV := s.Granularity() - offline.VL
	onlineV := online.Abstracted.Granularity()
	if onlineV > offlineV+2 {
		// Allow slack of 2: the greedy itself is heuristic, so tiny
		// inversions are possible; big ones indicate a lifting bug.
		t.Errorf("online granularity %d far exceeds offline %d", onlineV, offlineV)
	}
}

func TestEstimateFullSize(t *testing.T) {
	s := telcoSet(t)
	points, err := MeasureGrowth(s, []float64{0.2, 0.4, 0.6}, 2)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateFullSize(points)
	if err != nil {
		t.Fatal(err)
	}
	full := s.Size()
	// The estimate should land within 40% of truth on this workload.
	if est < full*6/10 || est > full*14/10 {
		t.Errorf("estimated size %d, actual %d", est, full)
	}
}

func TestEstimateFullSizeErrors(t *testing.T) {
	if _, err := EstimateFullSize([]SizePoint{{0.5, 10}}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := EstimateFullSize([]SizePoint{{0.5, 10}, {0.5, 12}}); err == nil {
		t.Error("duplicate fractions accepted")
	}
}

func TestOnlineCompressBadInputs(t *testing.T) {
	s := telcoSet(t)
	f := telcoForest(t)
	if _, err := OnlineCompress(s, f, 0, Options{Fraction: 0.5}); err == nil {
		t.Error("B=0 accepted")
	}
	if _, err := OnlineCompress(s, f, 10, Options{Fraction: 0}); err == nil {
		t.Error("fraction 0 accepted")
	}
}

// Lifting must cover leaves that were absent from the sample: build a tiny
// set where the sample misses a variable entirely.
func TestLiftCoversUnsampledLeaves(t *testing.T) {
	vb := provenance.NewVocab()
	s := provenance.NewSet(vb)
	s.Add("g1", provenance.MustParse(vb, "1·a1 + 2·a2"))
	s.Add("g2", provenance.MustParse(vb, "3·b1 + 4·b2"))
	f := abstree.MustForest(abstree.MustParseTree("R(A(a1,a2),B(b1,b2))"))
	// Fraction 0.5 keeps exactly one polynomial; whichever it is, the other
	// tree half is unseen by the selection yet must remain covered.
	res, err := OnlineCompress(s, f, 2, Options{Fraction: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.VVS.Validate(); err != nil {
		t.Fatalf("lifted VVS invalid: %v", err)
	}
	if res.Abstracted.Len() != 2 {
		t.Errorf("abstracted set lost polynomials: %d", res.Abstracted.Len())
	}
}
