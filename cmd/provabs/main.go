// Command provabs is the command-line front end of the library: generate
// benchmark provenance, inspect it, compress it with the paper's
// algorithms, and evaluate hypothetical scenarios.
//
// Usage:
//
//	provabs generate -dataset telco -customers 1000 -zips 100 -out telco.pvab
//	provabs generate -dataset tpch -query Q5 -sf 0.002 -out q5.pvab
//	provabs stats -in q5.pvab
//	provabs trees
//	provabs compress -in q5.pvab -algo opt -shape 2,64 -prefix s -ratio 0.5 -out q5c.pvab
//	provabs compress -in q5.pvab -algo greedy -tree 'Root(A(s0,s1),B(s2,s3))' -bound 100
//	provabs eval -in q5c.pvab -set SuppRoot_l1_0=0.8,s9=1.1
//	provabs whatif -in q5c.pvab -scenarios 1000 -workers 0
//	provabs whatif -in q5c.pvab -sets 's9=0.8;s9=1.1,s4=0.5'
//	provabs whatif -in q5.pvab -scenarios 1000 -semiring bool
//	provabs query -in q5c.pvab 'SuppRoot_l1_0 IN [0.5:1.5:0.01] ORDER BY ans[0] DESC LIMIT 5'
//	provabs query -in q5c.pvab 'EXPLAIN s9 IN [0:1:0.1] USING tropical'
//	provabs serve -in q5c.pvab -addr :8080
//	provabs serve -load telco=telco.pvab -load q5=q5c.pvab -addr :8080
//	provabs gateway -backend 127.0.0.1:8081 -backend 127.0.0.1:8082 -addr :8090
//
// Every compression and evaluation path runs through the session Engine
// (provabs.Open): one object owning the provenance, the abstraction, and
// the compiled-evaluation cache.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/bench"
	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/sampling"
	"provabs/internal/scenql"
	"provabs/internal/semiring"
	"provabs/internal/server"
	"provabs/internal/session"
	"provabs/internal/summarize"
	"provabs/internal/telco"
	"provabs/internal/tpch"
	"provabs/internal/treegen"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "whatif":
		err = cmdWhatif(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "gateway":
		err = cmdGateway(os.Args[2:])
	case "trees":
		err = cmdTrees(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "provabs: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "provabs:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `provabs — hypothetical reasoning via provenance abstraction

commands:
  generate   generate benchmark provenance (telco or tpch)
  stats      print size statistics of a provenance file
  compress   select an abstraction and compress a provenance file
  eval       evaluate a hypothetical scenario over a provenance file
  whatif     batch-evaluate many scenarios on compiled provenance in parallel (any semiring)
  query      run a ScenQL scenario query (grid sweeps, sampling, ORDER BY, EXPLAIN)
  serve      serve named provenance sessions over HTTP (v1 API + streaming NDJSON)
  gateway    route /v1 traffic across a pool of serve backends (consistent hashing, live migration)
  trees      print the benchmark abstraction-tree catalog (Table 2)

run 'provabs <command> -h' for command flags`)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	dataset := fs.String("dataset", "telco", "telco or tpch")
	out := fs.String("out", "", "output provenance file (required)")
	customers := fs.Int("customers", 1000, "telco: number of customers")
	zips := fs.Int("zips", 100, "telco: number of zip codes")
	sf := fs.Float64("sf", 0.002, "tpch: scale factor")
	query := fs.String("query", "Q5", "tpch: Q1, Q5 or Q10")
	seed := fs.Int64("seed", 1, "generator seed")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("generate: -out is required")
	}
	var set *provenance.Set
	switch *dataset {
	case "telco":
		s, err := telco.SyntheticProvenance(telco.Config{
			Customers: *customers, Plans: 128, Months: 12, Zips: *zips, Seed: *seed,
		})
		if err != nil {
			return err
		}
		set = s
	case "tpch":
		d, err := tpch.Generate(tpch.Config{ScaleFactor: *sf, Seed: *seed})
		if err != nil {
			return err
		}
		s, err := d.Provenance(tpch.QueryID(*query))
		if err != nil {
			return err
		}
		set = s
	default:
		return fmt.Errorf("generate: unknown dataset %q", *dataset)
	}
	if err := writeSet(*out, set); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d polynomials, %d monomials, %d variables, %d bytes\n",
		*out, set.Len(), set.Size(), set.Granularity(), provenance.EncodedSize(set))
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "provenance file (required)")
	verbose := fs.Bool("v", false, "print every polynomial's size")
	fs.Parse(args)
	set, err := readSet(*in)
	if err != nil {
		return err
	}
	fmt.Printf("polynomials: %d\n", set.Len())
	fmt.Printf("|P|_M (monomials): %d\n", set.Size())
	fmt.Printf("|P|_V (variables): %d\n", set.Granularity())
	fmt.Printf("min/mean/max polynomial size: %d / %.2f / %d\n",
		set.MinPolySize(), set.MeanPolySize(), set.MaxPolySize())
	fmt.Printf("encoded bytes: %d\n", provenance.EncodedSize(set))
	if *verbose {
		for i := range set.Len() {
			p := set.Poly(i)
			fmt.Printf("  %-30s %d monomials, %d variables\n", set.Tags[i], p.Size(), p.Granularity())
		}
	}
	return nil
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("in", "", "provenance file (required)")
	out := fs.String("out", "", "output file for the compressed provenance (optional)")
	algo := fs.String("algo", "auto", "auto, opt, greedy, brute, ainy or online")
	treeSrc := fs.String("tree", "", "abstraction tree(s) in compact format, ';'-separated")
	shapeSrc := fs.String("shape", "", "build a uniform tree instead: comma-separated fan-outs, e.g. 2,64")
	prefix := fs.String("prefix", "s", "leaf prefix for -shape trees (s, p, pl)")
	bound := fs.Int("bound", 0, "monomial bound B (overrides -ratio)")
	ratio := fs.Float64("ratio", 0.5, "bound as a fraction of |P|_M")
	fraction := fs.Float64("fraction", 0.3, "online: sample fraction")
	seed := fs.Int64("seed", 1, "online: sample seed")
	timeout := fs.Duration("timeout", time.Minute, "ainy: cutoff")
	fs.Parse(args)
	set, err := readSet(*in)
	if err != nil {
		return err
	}
	forest, err := buildForest(*treeSrc, *shapeSrc, *prefix)
	if err != nil {
		return err
	}
	strategy, err := session.ParseStrategy(*algo)
	if err != nil {
		return err
	}
	B := resolveBound(*bound, *ratio, set.Size())
	eng, err := session.Open(set, forest)
	if err != nil {
		return err
	}
	comp, err := eng.Compress(B,
		session.WithStrategy(strategy),
		session.WithSamplingFraction(*fraction),
		session.WithSeed(*seed),
		session.WithTimeout(*timeout))
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s in %v\n", comp.Strategy, adequacy(comp.Adequate), comp.Elapsed)
	if comp.VVS != nil {
		fmt.Printf("VVS: %s\n", comp.VVS)
	}
	switch extra := comp.Extra.(type) {
	case *summarize.Result:
		fmt.Printf("ainy: %d oracle calls, %d merges\n", extra.OracleCalls, extra.Rounds)
	case *sampling.Result:
		fmt.Printf("online: sample |P|_M=%d, adapted bound=%d\n", extra.SampleSize, extra.SampleBound)
	}
	return finishCompress(set, comp.Abstracted, *out)
}

func adequacy(ok bool) string {
	if ok {
		return "bound met"
	}
	return "bound NOT met (best effort)"
}

func finishCompress(orig, abs *provenance.Set, out string) error {
	fmt.Printf("monomials: %d -> %d (ML %d)\n", orig.Size(), abs.Size(), orig.Size()-abs.Size())
	fmt.Printf("variables: %d -> %d (VL %d)\n", orig.Granularity(), abs.Granularity(),
		orig.Granularity()-abs.Granularity())
	fmt.Printf("bytes:     %d -> %d\n", provenance.EncodedSize(orig), provenance.EncodedSize(abs))
	if out != "" {
		if err := writeSet(out, abs); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	return nil
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	in := fs.String("in", "", "provenance file (required)")
	assign := fs.String("set", "", "comma-separated var=value assignments")
	top := fs.Int("top", 20, "print at most this many answers (0 = all)")
	fs.Parse(args)
	set, err := readSet(*in)
	if err != nil {
		return err
	}
	sc := hypo.NewScenario()
	if *assign != "" {
		sc, err = scenql.ParseAssignments(*assign)
		if err != nil {
			return fmt.Errorf("eval: -set: %w", err)
		}
	}
	eng, err := session.Open(set, nil)
	if err != nil {
		return err
	}
	answers, err := eng.WhatIf(sc)
	if err != nil {
		return err
	}
	sort.Slice(answers, func(i, j int) bool { return answers[i].Value > answers[j].Value })
	n := len(answers)
	if *top > 0 && n > *top {
		n = *top
	}
	for _, a := range answers[:n] {
		fmt.Printf("%-40s %14.2f\n", a.Tag, a.Value)
	}
	if n < len(answers) {
		fmt.Printf("... (%d more)\n", len(answers)-n)
	}
	return nil
}

// cmdWhatif is the batch what-if mode: compile the provenance once, then
// evaluate many scenarios against it with the parallel batch engine. It is
// the CLI surface of the paper's core promise — once compressed (and now
// compiled), hypothetical scenarios are cheap enough to ask in bulk.
func cmdWhatif(args []string) error {
	fs := flag.NewFlagSet("whatif", flag.ExitOnError)
	in := fs.String("in", "", "provenance file (required)")
	scenarios := fs.Int("scenarios", 0, "generate this many pseudo-random scenarios")
	sets := fs.String("sets", "", "';'-separated explicit scenarios, each comma-separated var=value")
	seed := fs.Int64("seed", 1, "seed for -scenarios generation")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	deltaCutoff := fs.Float64("delta-cutoff", 0,
		"delta-vs-full density cutoff (0 = adaptive, learned from observed timings; >0 = static fraction; negative = always evaluate in full)")
	sparse := fs.Float64("sparse", 0.5, "fraction of variables each generated scenario assigns")
	top := fs.Int("top", 5, "print at most this many answers of the first scenario (0 = none)")
	sem := fs.String("semiring", "",
		"evaluation semiring: float (default), bool, count, tropical or minmax")
	fs.Parse(args)
	kind, err := semiring.ParseKind(*sem)
	if err != nil {
		return fmt.Errorf("whatif: %w", err)
	}
	set, err := readSet(*in)
	if err != nil {
		return err
	}
	var scs []*hypo.Scenario
	if *sets != "" {
		scs, err = scenql.ParseScenarios(*sets)
		if err != nil {
			return fmt.Errorf("whatif: -sets: %w", err)
		}
	}
	if *scenarios > 0 {
		vars := set.Vars()
		rng := rand.New(rand.NewSource(*seed))
		for i := 0; i < *scenarios; i++ {
			sc := hypo.NewScenario()
			for _, v := range vars {
				if rng.Float64() < *sparse {
					sc.Set(set.Vocab.Name(v), scenarioValue(kind, rng))
				}
			}
			scs = append(scs, sc)
		}
	}
	if len(scs) == 0 {
		return fmt.Errorf("whatif: provide -scenarios N and/or -sets")
	}
	eng, err := session.Open(set, nil,
		session.WithWorkers(*workers), session.WithDeltaCutoff(*deltaCutoff))
	if err != nil {
		return err
	}
	return whatifTail(eng, kind, scs, *top)
}

// cmdQuery runs one ScenQL statement against a provenance file: the
// scenarios are generated by the plan's iterator in overlap-maximizing
// order and evaluated through the session's chained stream path, so a
// large grid never materializes. EXPLAIN prints the annotated plan tree as
// indented JSON — the same document POST /v1/sessions/{name}/query returns.
func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	in := fs.String("in", "", "provenance file (required)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	deltaCutoff := fs.Float64("delta-cutoff", 0,
		"delta-vs-full density cutoff (0 = adaptive; >0 = static fraction; negative = always full)")
	jsonOut := fs.Bool("json", false, "emit NDJSON rows instead of text")
	top := fs.Int("top", 3, "text mode: answers to print per row (0 = all)")
	fs.Parse(args)
	stmt := strings.TrimSpace(strings.Join(fs.Args(), " "))
	if stmt == "" {
		return fmt.Errorf("query: provide a ScenQL statement, e.g. 'x IN [0:1:0.1] ORDER BY ans[0] DESC LIMIT 5'")
	}
	set, err := readSet(*in)
	if err != nil {
		return err
	}
	eng, err := session.Open(set, nil,
		session.WithWorkers(*workers), session.WithDeltaCutoff(*deltaCutoff))
	if err != nil {
		return err
	}
	info, rows, err := eng.QueryStream(context.Background(), stmt)
	if err != nil {
		return err
	}
	if info.Explain != nil {
		out, err := json.MarshalIndent(info.Explain, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	if *jsonOut {
		return queryJSON(info, rows)
	}
	return queryText(eng, info, rows, *top)
}

// queryJSON writes the server's /query/stream bytes to stdout, through the
// server's own appender: a header line, then one NDJSON line per scenario.
func queryJSON(info *session.QueryInfo, rows <-chan session.QueryRow) error {
	buf := server.AppendQueryHeader(nil, info)
	if _, err := os.Stdout.Write(buf); err != nil {
		return err
	}
	for row := range rows {
		buf = server.AppendQueryLine(buf[:0], row)
		if _, err := os.Stdout.Write(buf); err != nil {
			return err
		}
	}
	return info.Err()
}

// queryText prints a human-readable sweep: one line per scenario with its
// generated assignments, the top answers indented under it, and a summary
// with the evaluation-path counters.
func queryText(eng *session.Engine, info *session.QueryInfo, rows <-chan session.QueryRow, top int) error {
	start := time.Now()
	var n, errs int64
	for row := range rows {
		n++
		if row.Err != nil {
			errs++
			fmt.Printf("#%-6d %s  error: %v\n", row.Index, formatAssign(row.Assign), row.Err)
			continue
		}
		fmt.Printf("#%-6d %s\n", row.Index, formatAssign(row.Assign))
		answers := row.Row.Erase()
		if top > 0 && len(answers) > top {
			answers = answers[:top]
		}
		for _, a := range answers {
			fmt.Printf("        %-40s %14v\n", a.Tag, a.Value)
		}
	}
	if err := info.Err(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("%d of %d scenarios in the %s semiring in %v (%d errors)\n",
		n, info.Scenarios, info.Semiring, elapsed, errs)
	ss := carrierStats(eng.Stats(), info.Semiring)
	fmt.Printf("paths: %d delta, %d chained, %d full, %d sharded, %d ranked\n",
		ss.DeltaEvals, ss.ChainedEvals, ss.FullEvals, ss.ShardedEvals, ss.RankedEvals)
	return nil
}

// formatAssign renders a scenario's assignments name-sorted, the way the
// generator's axes are easiest to scan.
func formatAssign(assign map[string]float64) string {
	names := make([]string, 0, len(assign))
	for name := range assign {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%g", name, assign[name])
	}
	return strings.Join(parts, " ")
}

// scenarioValue draws one generated assignment in the carrier's natural
// domain: magnitudes near 1 for the float default, keep/delete bits under
// bool, small multiplicities under count, per-tuple costs under tropical,
// clearance levels under minmax.
func scenarioValue(kind semiring.Kind, rng *rand.Rand) float64 {
	switch kind {
	case semiring.KindBool:
		if rng.Float64() < 0.5 {
			return 0 // delete the tuple
		}
		return 1
	case semiring.KindCount:
		return float64(rng.Intn(4)) // 0 deletes, n replicates n-fold
	case semiring.KindTropical:
		return rng.Float64() * 10 // per-tuple derivation cost
	case semiring.KindMinMax:
		return float64(1 + rng.Intn(5)) // clearance level
	}
	return 0.5 + rng.Float64()
}

// whatifTail is cmdWhatif's evaluation, one for every carrier: the batch
// on the carrier's runtime (a non-float kernel is compiled lazily inside
// the timed region — its compile is part of the first batch's cost), then
// that carrier's path counters and learned cutoff, and the first
// scenario's top answers.
func whatifTail(eng *session.Engine, kind semiring.Kind, scs []*hypo.Scenario, top int) error {
	active := eng.Active()
	fmt.Printf("kernel: %d polynomials / %d monomials\n", active.Len(), active.Size())
	evalStart := time.Now()
	rows, err := eng.WhatIfBatchIn(kind, scs)
	if err != nil {
		return err
	}
	elapsed := time.Since(evalStart)
	perSec := float64(len(rows)) / elapsed.Seconds()
	fmt.Printf("evaluated %d scenarios in the %s semiring in %v (%.0f scenarios/s, %.0f answers/s)\n",
		len(rows), kind, elapsed, perSec, perSec*float64(active.Len()))
	ss := carrierStats(eng.Stats(), kind)
	fmt.Printf("paths: %d delta, %d chained, %d full, %d sharded\n",
		ss.DeltaEvals, ss.ChainedEvals, ss.FullEvals, ss.ShardedEvals)
	if ss.AdaptiveCutoff > 0 {
		fmt.Printf("adaptive cutoff: %.3f (delta %.2f ns/term, full %.2f ns/term)\n",
			ss.AdaptiveCutoff, ss.DeltaNsPerTerm, ss.FullNsPerTerm)
	}
	if top > 0 && len(rows) > 0 {
		first := append([]hypo.ValueAnswer(nil), rows[0]...)
		sort.SliceStable(first, func(i, j int) bool { return valueOrd(first[i].Value) > valueOrd(first[j].Value) })
		if len(first) > top {
			first = first[:top]
		}
		format := "  %-40s %14v\n"
		if kind == semiring.KindFloat {
			format = "  %-40s %14.2f\n" // as eval prints them
		}
		fmt.Println("first scenario, top answers:")
		for _, a := range first {
			fmt.Printf(format, a.Tag, a.Value)
		}
	}
	return nil
}

// carrierStats is kind's slice of the session's evaluation accounting: the
// top-level fields for float, its Stats.Semirings entry otherwise.
func carrierStats(st session.Stats, kind semiring.Kind) session.SemiringStats {
	if kind != semiring.KindFloat {
		return st.Semirings[kind.String()]
	}
	return session.SemiringStats{
		Scenarios: st.Scenarios, DeltaEvals: st.DeltaEvals, ChainedEvals: st.ChainedEvals,
		FullEvals: st.FullEvals, ShardedEvals: st.ShardedEvals, RankedEvals: st.RankedEvals,
		DeltaNsPerTerm: st.DeltaNsPerTerm, FullNsPerTerm: st.FullNsPerTerm, AdaptiveCutoff: st.AdaptiveCutoff,
	}
}

// valueOrd orders carrier-erased answers for the top-N display: derivable
// before deleted, higher counts, costs and clearance levels numerically.
func valueOrd(v any) float64 {
	switch x := v.(type) {
	case bool:
		if x {
			return 1
		}
		return 0
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// resolveBound turns the -bound/-ratio flag pair into a monomial bound: an
// explicit bound wins, otherwise the ratio of the set size, floored at 1.
func resolveBound(bound int, ratio float64, size int) int {
	if bound > 0 {
		return bound
	}
	b := int(float64(size) * ratio)
	if b < 1 {
		b = 1
	}
	return b
}

func cmdTrees(args []string) error {
	fs := flag.NewFlagSet("trees", flag.ExitOnError)
	fs.Parse(args)
	fmt.Print(bench.TreeCatalog().String())
	return nil
}

func buildForest(treeSrc, shapeSrc, prefix string) (*abstree.Forest, error) {
	switch {
	case treeSrc != "":
		var trees []*abstree.Tree
		for _, src := range strings.Split(treeSrc, ";") {
			t, err := abstree.ParseTree(strings.TrimSpace(src))
			if err != nil {
				return nil, err
			}
			trees = append(trees, t)
		}
		return abstree.NewForest(trees...)
	case shapeSrc != "":
		var fanouts []int
		for _, f := range strings.Split(shapeSrc, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad fan-out %q", f)
			}
			fanouts = append(fanouts, n)
		}
		shape := treegen.Shape{Fanouts: fanouts}
		tree := shape.Build("Root", treegen.NumberedLeaves(prefix))
		return abstree.NewForest(tree)
	}
	return nil, fmt.Errorf("compress: provide -tree or -shape")
}

func writeSet(path string, s *provenance.Set) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := provenance.Encode(f, s); err != nil {
		return err
	}
	return f.Close()
}

func readSet(path string) (*provenance.Set, error) {
	if path == "" {
		return nil, fmt.Errorf("-in is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return provenance.Decode(f)
}
