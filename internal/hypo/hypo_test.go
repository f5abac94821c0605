package hypo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/provenance"
)

func exampleSet(t testing.TB) (*provenance.Set, *abstree.Forest, *abstree.VVS) {
	t.Helper()
	vb := provenance.NewVocab()
	s := provenance.NewSet(vb)
	s.Add("10001", provenance.MustParse(vb,
		"220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3"))
	f := abstree.MustForest(abstree.MustParseTree("Year(q1(m1,m3))"))
	v := abstree.MustFromLabels(f, "q1")
	return s, f, v
}

func TestScenarioEval(t *testing.T) {
	s, _, _ := exampleSet(t)
	// "What if the ppm of all plans decreased by 20% in March?" (Example 1).
	got, err := NewScenario().Set("m3", 0.8).Eval(s)
	if err != nil {
		t.Fatal(err)
	}
	base := 220.8 + 127.4 + 75.9 + 42
	march := (240 + 114.45 + 72.5 + 24.2) * 0.8
	if math.Abs(got[0]-(base+march)) > 1e-9 {
		t.Errorf("scenario value = %v, want %v", got[0], base+march)
	}
}

func TestScenarioUnknownVariable(t *testing.T) {
	s, _, _ := exampleSet(t)
	if _, err := NewScenario().Set("nope", 2).Eval(s); err == nil {
		t.Error("unknown variable accepted")
	}
}

func TestUniformScenarioExactOnAbstraction(t *testing.T) {
	s, _, v := exampleSet(t)
	abs := v.Apply(s)
	// Scenario on the meta-variable q1.
	meta := NewScenario().Set("q1", 0.8)
	gotAbs, err := meta.Eval(abs)
	if err != nil {
		t.Fatal(err)
	}
	// The lifted scenario on the original provenance agrees exactly.
	lifted := meta.UniformOn(v)
	if lifted.Assign["m1"] != 0.8 || lifted.Assign["m3"] != 0.8 {
		t.Fatalf("lifted scenario = %v", lifted.Assign)
	}
	gotOrig, err := lifted.Eval(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotAbs[0]-gotOrig[0]) > 1e-9 {
		t.Errorf("abstracted %v != original %v under uniform scenario", gotAbs[0], gotOrig[0])
	}
}

func TestIsUniformOn(t *testing.T) {
	_, _, v := exampleSet(t)
	ok, _ := NewScenario().SetAll(0.8, "m1", "m3").IsUniformOn(v)
	if !ok {
		t.Error("uniform scenario flagged as non-uniform")
	}
	ok, why := NewScenario().Set("m1", 0.8).Set("m3", 0.9).IsUniformOn(v)
	if ok {
		t.Error("non-uniform scenario flagged as uniform")
	}
	if why == "" {
		t.Error("violation explanation missing")
	}
}

func TestProjectAveragesGroups(t *testing.T) {
	s, _, v := exampleSet(t)
	sc := NewScenario().Set("m1", 0.6).Set("m3", 1.0)
	proj := sc.Project(v)
	if got := proj.Assign["q1"]; math.Abs(got-0.8) > 1e-12 {
		t.Errorf("projected q1 = %v, want 0.8", got)
	}
	// Accuracy loss is bounded and measurable.
	origVals, err := sc.Eval(s)
	if err != nil {
		t.Fatal(err)
	}
	absVals, err := proj.Eval(v.Apply(s))
	if err != nil {
		t.Fatal(err)
	}
	e, err := MaxRelError(absVals, origVals)
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0 || e > 0.25 {
		t.Errorf("relative error = %v, want small but nonzero", e)
	}
}

func TestAnswersTagging(t *testing.T) {
	s, _, _ := exampleSet(t)
	ans, err := NewScenario().Eval(s)
	if err != nil {
		t.Fatal(err)
	}
	tagged := TagAnswers(s.Tags, ans)
	if tagged[0].Tag != "10001" || tagged[0].Value != ans[0] {
		t.Errorf("tagged answer = %+v, want value %v", tagged[0], ans[0])
	}
}

func TestMaxRelErrorMismatch(t *testing.T) {
	if _, err := MaxRelError([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	e, err := MaxRelError([]float64{1.1, 0}, []float64{1, 0})
	if err != nil || math.Abs(e-0.1) > 1e-9 {
		t.Errorf("MaxRelError = %v, %v", e, err)
	}
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(100*time.Millisecond, 25*time.Millisecond); math.Abs(s-0.75) > 1e-9 {
		t.Errorf("Speedup = %v, want 0.75", s)
	}
	if s := Speedup(0, time.Second); s != 0 {
		t.Errorf("Speedup with zero base = %v", s)
	}
	if s := Speedup(time.Millisecond, time.Second); s != 0 {
		t.Errorf("negative speedup should clamp to 0, got %v", s)
	}
}

func TestAssignmentTimesPositive(t *testing.T) {
	s, _, v := exampleSet(t)
	to, ta := AssignmentTimes(s, v.Apply(s), 50)
	if to <= 0 || ta <= 0 {
		t.Errorf("times = %v, %v", to, ta)
	}
}

// Property: for any scenario that is uniform on the groups, evaluation on
// the abstraction equals evaluation on the original (the core soundness
// guarantee of the framework).
func TestQuickUniformExactness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vb := provenance.NewVocab()
		s := provenance.NewSet(vb)
		p := provenance.NewPolynomial()
		leaves := []string{"a1", "a2", "a3", "b1", "b2"}
		other := []string{"x", "y"}
		// Generators intern every parameter variable up front, whether or
		// not a particular polynomial ends up using it.
		vb.Vars(append(append([]string{}, leaves...), other...)...)
		for i := 0; i < rng.Intn(10)+2; i++ {
			vars := []provenance.Var{vb.Var(leaves[rng.Intn(len(leaves))])}
			if rng.Intn(2) == 0 {
				vars = append(vars, vb.Var(other[rng.Intn(len(other))]))
			}
			p.AddTerm(float64(rng.Intn(9)+1), vars...)
		}
		s.Add("", p)
		forest := abstree.MustForest(abstree.MustParseTree("R(A(a1,a2,a3),B(b1,b2))"))
		var v *abstree.VVS
		switch rng.Intn(3) {
		case 0:
			v = abstree.MustFromLabels(forest, "A", "B")
		case 1:
			v = abstree.MustFromLabels(forest, "A", "b1", "b2")
		default:
			v = abstree.MustFromLabels(forest, "R")
		}
		meta := NewScenario()
		for _, lbl := range v.Labels() {
			meta.Set(lbl, float64(rng.Intn(8))/4)
		}
		for _, o := range other {
			meta.Set(o, float64(rng.Intn(8))/4)
		}
		absVals, err := meta.Eval(v.Apply(s))
		if err != nil {
			// Meta labels not in the abstracted set's vocab can error only
			// if the polynomial lost them; skip.
			return true
		}
		origVals, err := meta.UniformOn(v).Eval(s)
		if err != nil {
			return false
		}
		return math.Abs(absVals[0]-origVals[0]) <= 1e-6*(1+math.Abs(origVals[0]))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
