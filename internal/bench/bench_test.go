package bench

import (
	"strings"
	"testing"
	"time"

	"provabs/internal/treegen"
)

// tinyScale keeps the harness tests fast.
func tinyScale() Scale {
	return Scale{TPCHScaleFactor: 0.001, TelcoCustomers: 200, TelcoZips: 10, Seed: 1}
}

func TestLoadWorkloads(t *testing.T) {
	ws, err := LoadWorkloads(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 {
		t.Fatalf("workloads = %d, want 4", len(ws))
	}
	names := []string{"Q5", "Q10", "Q1", "telco"}
	for i, w := range ws {
		if w.Name != names[i] {
			t.Errorf("workload %d = %s, want %s", i, w.Name, names[i])
		}
		if w.Set.Size() == 0 {
			t.Errorf("workload %s has empty provenance", w.Name)
		}
	}
}

func TestLoadWorkloadUnknown(t *testing.T) {
	if _, err := LoadWorkload("nope", tinyScale()); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestCompressionTimeVsCuts(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy workload sweep; skipped with -short")
	}
	w, err := LoadWorkload("Q5", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	tab, err := CompressionTimeVsCuts(w, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(treegen.ShapesOfType(1)) {
		t.Errorf("rows = %d, want %d", len(tab.Rows), len(treegen.ShapesOfType(1)))
	}
	// Small type-1 shapes are brute-forceable; the largest are not.
	if tab.Rows[0][5] == "-" {
		t.Error("smallest type-1 shape should be brute-forceable")
	}
	if tab.Rows[len(tab.Rows)-1][5] != "-" {
		t.Error("largest type-1 shape should exceed the brute limit")
	}
	if !strings.Contains(tab.String(), "cuts") || !strings.Contains(tab.CSV(), "opt") {
		t.Error("table rendering broken")
	}
}

func TestCompressionTimeVsDataSize(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy workload sweep; skipped with -short")
	}
	for _, name := range []string{"telco", "Q1"} {
		tab, err := CompressionTimeVsDataSize(name, tinyScale(), []float64{0.5, 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 2 {
			t.Errorf("%s rows = %d, want 2", name, len(tab.Rows))
		}
	}
}

func TestBoundSweepAndFigure9(t *testing.T) {
	w, err := LoadWorkload("Q5", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	shape := treegen.SmallestOfType(1)
	bounds := BoundSweep(w, shape, 4)
	if len(bounds) == 0 {
		t.Fatal("no bounds")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Errorf("bounds not increasing: %v", bounds)
		}
	}
	tab, err := CompressionTimeVsBound(w, shape, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Error("figure 9 produced no rows")
	}
}

func TestSpeedupVsBound(t *testing.T) {
	w, err := LoadWorkload("Q5", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	tab, err := SpeedupVsBound(w, treegen.SmallestOfType(1), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if !strings.HasSuffix(row[2], "%") {
			t.Errorf("speedup cell %q not a percentage", row[2])
		}
	}
}

func TestTimeVsNumTrees(t *testing.T) {
	w, err := LoadWorkload("telco", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	tab, err := TimeVsNumTrees(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 { // k = 2, 3, 4
		t.Errorf("rows = %d, want 3", len(tab.Rows))
	}
}

func TestOptVsCompetitor(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy competitor comparison; skipped with -short")
	}
	w, err := LoadWorkload("Q1", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	tab, err := OptVsCompetitor(w, treegen.SmallestOfType(1), 2, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tab.Rows {
		if row[4] != "ok" && row[4] != "timeout" && row[4] != "inadequate" {
			t.Errorf("unexpected status %q", row[4])
		}
	}
}

func TestTimeVsNumVariables(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy variable-count sweep; skipped with -short")
	}
	tab, err := TimeVsNumVariables("Q1", tinyScale(), []int{128, 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	// More variable groups → more distinct variables in the provenance.
	if tab.Rows[0][0] >= tab.Rows[1][0] && len(tab.Rows[0][0]) >= len(tab.Rows[1][0]) {
		t.Errorf("variable count did not grow: %v vs %v", tab.Rows[0][0], tab.Rows[1][0])
	}
}

func TestGreedyQualityTable(t *testing.T) {
	w, err := LoadWorkload("Q5", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	tab, err := GreedyQuality(w, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if !strings.HasSuffix(row[1], "%") || !strings.HasSuffix(row[2], "%") {
			t.Errorf("cells not percentages: %v", row)
		}
	}
}

func TestTreeCatalogMatchesTable2(t *testing.T) {
	tab := TreeCatalog()
	if len(tab.Rows) != len(treegen.Table2) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(treegen.Table2))
	}
	if tab.Rows[0][1] != "131" || tab.Rows[0][3] != "5" {
		t.Errorf("first row = %v, want nodes 131, VVS 5", tab.Rows[0])
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"a", "b"}}
	tab.AddRow(1, "x,y")
	s := tab.String()
	if !strings.Contains(s, "T\n=") || !strings.Contains(s, "a") {
		t.Errorf("String output:\n%s", s)
	}
	csv := tab.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Errorf("CSV quoting broken: %s", csv)
	}
	if got := fmtDuration(0); got != "-" {
		t.Errorf("fmtDuration(0) = %q", got)
	}
	if got := fmtDuration(1500 * time.Millisecond); got != "1.50s" {
		t.Errorf("fmtDuration(1.5s) = %q", got)
	}
}
