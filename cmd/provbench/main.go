// Command provbench regenerates every table and figure of the paper's
// evaluation: compression time vs cuts (Figures 5–7), vs data size
// (Figure 8), vs bound (Figure 9), assignment-time speedup (Figure 10),
// time vs number of trees (Figure 11), the comparison with Ainy et al.
// (Figure 12), time vs number of variables (Figure 14), greedy quality
// (Table 1) and the tree catalog (Table 2).
//
//	provbench                         # run everything at CI scale
//	provbench -experiment fig5        # one experiment
//	provbench -workloads Q5,telco     # restrict the workload panels
//	provbench -tpch-sf 0.02 -telco-customers 20000   # larger scale
//	provbench -csv                    # machine-readable output
//
// The kernel's and planner's own gains (delta routing, chained deltas, the
// adaptive cutoff, in-place appends, the bulk float kernels) are go-test
// benchmarks in the repository root's bench_test.go, and TestRatioFloors
// there checks their ratios.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"provabs/internal/bench"
	"provabs/internal/treegen"
)

// experiments are the ids -experiment accepts besides "all".
var experiments = []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig14", "table1", "table2"}

func main() {
	experiment := flag.String("experiment", "all",
		"all or one of "+strings.Join(experiments, ", "))
	workloadsFlag := flag.String("workloads", "Q5,Q10,Q1,telco", "comma-separated workload panels")
	tpchSF := flag.Float64("tpch-sf", 0.002, "TPC-H scale factor")
	telcoCustomers := flag.Int("telco-customers", 800, "telco customers")
	telcoZips := flag.Int("telco-zips", 40, "telco zip codes")
	seed := flag.Int64("seed", 1, "generator seed")
	steps := flag.Int("steps", 5, "points per sweep")
	rounds := flag.Int("assign-rounds", 10, "scenario evaluations per speedup measurement")
	ainyTimeout := flag.Duration("ainy-timeout", 30*time.Second, "competitor cutoff (paper: 24h)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	flag.Parse()
	if *experiment != "all" && !slices.Contains(experiments, *experiment) {
		fmt.Fprintf(os.Stderr, "provbench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}

	sc := bench.Scale{
		TPCHScaleFactor: *tpchSF,
		TelcoCustomers:  *telcoCustomers,
		TelcoZips:       *telcoZips,
		Seed:            *seed,
	}
	names := strings.Split(*workloadsFlag, ",")
	emit := func(t *bench.Table, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "provbench:", err)
			os.Exit(1)
		}
		if *csv {
			fmt.Println("#", t.Title)
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}
	want := func(id string) bool { return *experiment == "all" || *experiment == id }

	loadAll := func() []*bench.Workload {
		var out []*bench.Workload
		for _, n := range names {
			w, err := bench.LoadWorkload(strings.TrimSpace(n), sc)
			if err != nil {
				fmt.Fprintln(os.Stderr, "provbench:", err)
				os.Exit(1)
			}
			out = append(out, w)
		}
		return out
	}

	if want("table2") {
		emit(bench.TreeCatalog(), nil)
	}
	var ws []*bench.Workload
	needWorkloads := false
	for _, id := range []string{"fig5", "fig6", "fig7", "fig9", "fig10", "fig11", "table1"} {
		if want(id) {
			needWorkloads = true
		}
	}
	if needWorkloads {
		ws = loadAll()
	}
	if want("fig5") {
		for _, w := range ws {
			emit(bench.CompressionTimeVsCuts(w, []int{1}))
		}
	}
	if want("fig6") {
		for _, w := range ws {
			emit(bench.CompressionTimeVsCuts(w, []int{2, 3, 4}))
		}
	}
	if want("fig7") {
		for _, w := range ws {
			emit(bench.CompressionTimeVsCuts(w, []int{5, 6, 7}))
		}
	}
	if want("fig8") {
		for _, n := range names {
			emit(bench.CompressionTimeVsDataSize(strings.TrimSpace(n), sc,
				[]float64{0.25, 0.5, 1, 2, 4}))
		}
	}
	if want("fig9") {
		for _, w := range ws {
			emit(bench.CompressionTimeVsBound(w, treegen.SmallestOfType(1), *steps))
		}
	}
	if want("fig10") {
		for _, w := range ws {
			emit(bench.SpeedupVsBound(w, treegen.SmallestOfType(1), *steps, *rounds))
		}
	}
	if want("fig11") {
		for _, w := range ws {
			emit(bench.TimeVsNumTrees(w, 8))
		}
	}
	if want("fig12") {
		for _, n := range names {
			n = strings.TrimSpace(n)
			if n != "Q5" && n != "Q1" {
				continue // the paper reports Figure 12 on Q5 and Q1 only
			}
			w, err := bench.LoadWorkload(n, sc)
			if err != nil {
				fmt.Fprintln(os.Stderr, "provbench:", err)
				os.Exit(1)
			}
			emit(bench.OptVsCompetitor(w, treegen.SmallestOfType(1), *steps, *ainyTimeout))
		}
	}
	if want("fig14") {
		for _, n := range names {
			n = strings.TrimSpace(n)
			if n != "Q5" && n != "Q1" {
				continue // Appendix B reports Q5 and Q1
			}
			emit(bench.TimeVsNumVariables(n, sc, []int{128, 512, 2048, 8000}))
		}
	}
	if want("table1") {
		for _, w := range ws {
			emit(bench.GreedyQuality(w, []int{1, 2, 3, 4, 5, 6, 7}))
		}
	}
}
