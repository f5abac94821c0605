package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

type runConfig struct {
	workload *workload
	seed     int64
	window   time.Duration
	trace    bool
	sizes    sizes
	workDir  string // the traced run's WAL root and trace files; inside the checkout
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints. env is printed on the line before.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	env       map[string]any
}

// gateError is a failed correctness gate: the run reports correct=false.
type gateError struct{ msg string }

func (e *gateError) Error() string { return "correctness gate: " + e.msg }

func gatef(format string, args ...any) error { return &gateError{fmt.Sprintf(format, args...)} }

type runner struct {
	cfg runConfig
	log io.Writer

	mu sync.Mutex
	st *stack
}

func newRunner(cfg runConfig, log io.Writer) *runner { return &runner{cfg: cfg, log: log} }

// closeStack stops the serving stack, if one is up; main calls it when the
// run overstays its deadline.
func (r *runner) closeStack() {
	r.mu.Lock()
	st := r.st
	r.mu.Unlock()
	if st != nil {
		st.close()
	}
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "perfbench: "+format+"\n", args...)
}

// liveSession is one session of the run: its inputs, its name on the
// stack, and what its compression reported.
type liveSession struct {
	in    *sessionInput
	name  string
	comp  *compressReply
	first []byte // the first what-if's answers, from set-up
}

// phaseTimes splits the window between the timed phases; phase F sends a
// fixed number of lines instead.
type phaseTimes struct{ a, q, b time.Duration }

func (r *runner) phases() phaseTimes {
	w := r.cfg.workload
	sum := w.shareA + w.shareQ + w.shareB
	part := func(s float64) time.Duration { return time.Duration(float64(r.cfg.window) * s / sum) }
	return phaseTimes{part(w.shareA), part(w.shareQ), part(w.shareB)}
}

// phaseShots is how many distinct one-shots phases A and B each cycle
// through.
const phaseShots = 4096

// rounds is how many times the window cycles through its phases, so a
// spell of host contention lands in a slice of every phase rather than in
// all of one. Rates per CPU-second are the mean over rounds, for the
// reason the host gauge is a mean.
const rounds = 10

func (r *runner) run(ctx context.Context) (*result, error) {
	cfg, w := r.cfg, r.cfg.workload
	rng := rand.New(rand.NewSource(cfg.seed))

	// Inputs: every session's provenance comes from the workload seed.
	size := cfg.sizes.small
	if w.medium {
		size = cfg.sizes.medium
	}
	var queries []*liveSession
	for i := 0; i < w.sessions; i++ {
		c := size
		c.Seed = cfg.seed*1000 + int64(i)
		in, err := makeSessionInput(fmt.Sprintf("q%d", i), c)
		if err != nil {
			return nil, err
		}
		queries = append(queries, &liveSession{in: in})
	}
	small := func(name string, seed int64) (*liveSession, error) {
		c := cfg.sizes.small
		c.Seed = cfg.seed*1000 + seed
		in, err := makeSessionInput(name, c)
		return &liveSession{in: in}, err
	}
	// reads are the sessions that answer reads, targets those that phases
	// A and B send one-shots to.
	reads, targets := queries, queries
	if w.shotSession {
		s, err := small("shots", 998)
		if err != nil {
			return nil, err
		}
		reads, targets = append(slices.Clone(queries), s), []*liveSession{s}
	}
	feed, err := small("feed", 999)
	if err != nil {
		return nil, err
	}
	all := append(slices.Clone(reads), feed)
	forest, err := trees()
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	st, err := startStack(tr)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.st = st
	r.mu.Unlock()
	defer st.close()
	admin := newClient(st.url, 1, nil)
	defer admin.close()

	// Set-up, repeated: create through the gateway, compress, first
	// what-if (which compiles the kernel). The last repetition's sessions
	// serve the traffic. Each set-up is timed in CPU-seconds of the whole
	// process, which leave out time the host took the CPU away; its
	// wall-clock time is recorded beside the result. The host gauge runs
	// before each set-up and each phase and after the last set-up, on a
	// collected heap.
	href := newHostRef()
	var gauges []time.Duration
	var setups, setupsWall []time.Duration
	for rep := 0; rep < cfg.sizes.setupReps; rep++ {
		gauges = append(gauges, href.gauge())
		start, cpu0 := time.Now(), cpuTime()
		for _, s := range all {
			s.name = fmt.Sprintf("%s-r%d", s.in.name, rep)
			if err := admin.create(ctx, s.name, s.in.b64, forest); err != nil {
				return nil, err
			}
			if s.comp, err = admin.compress(ctx, s.name, s.in.bound); err != nil {
				return nil, err
			}
			if _, s.first, err = admin.whatif(ctx, s.name, []byte(`{"assign":{}}`), true); err != nil {
				return nil, err
			}
		}
		setups = append(setups, cpuTime()-cpu0)
		setupsWall = append(setupsWall, time.Since(start))
		if rep == cfg.sizes.setupReps-1 {
			for _, s := range all {
				s.in.b64 = "" // sent for the last time
			}
			break
		}
		for _, s := range all {
			if err := admin.remove(ctx, s.name); err != nil {
				return nil, err
			}
		}
	}

	gauges = append(gauges, href.gauge())

	// Traffic inputs, from the same seed: the one-shot cycles of phases A
	// and B spread over their target sessions, each over its session's VVS
	// variables, the statements and the add lines.
	pt := r.phases()
	perRound := cfg.sizes.addsPerRound
	shots := make([]oneShot, 2*phaseShots)
	for i := range shots {
		s := targets[i%len(targets)]
		shots[i] = oneShot{s, makeWhatIfs(rng, 1, s.comp.VVS)[0]}
	}
	shotsA, shotsB := shots[:phaseShots], shots[phaseShots:]
	stmts := makeStatements(rng, w, 8, queries)
	adds, err := makeAdds(rng, rounds*perRound)
	if err != nil {
		return nil, err
	}

	before, err := scrape(ctx, admin, all)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	heap := startHeapSampler()
	tr.take() // drop set-up spans

	// Each phase starts on a collected heap, so it never pays for the
	// previous phase's garbage.
	ph := &phaseResults{digests: map[int]uint64{}}
	var sp tracedSpans
	for round := 0; round < rounds && ctx.Err() == nil; round++ {
		runtime.GC()
		gauges = append(gauges, href.gauge())
		r.phaseA(ctx, st, tr, shotsA, pt.a/rounds, ph)
		sp.a = append(sp.a, tr.take()...)
		runtime.GC()
		gauges = append(gauges, href.gauge())
		r.phaseQ(ctx, st, tr, queries, stmts, pt.q/rounds, ph)
		sp.q = append(sp.q, tr.take()...)
		runtime.GC()
		gauges = append(gauges, href.gauge())
		r.phaseB(ctx, st, tr, shotsB, pt.b/rounds, ph)
		sp.b = append(sp.b, tr.take()...)
		runtime.GC()
		gauges = append(gauges, href.gauge())
		r.feed(ctx, st, tr, feed, adds[round*perRound:(round+1)*perRound], round*perRound, ph)
		sp.f = append(sp.f, tr.take()...)
	}
	peak := heap.finish()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	after, err := scrape(ctx, admin, all)
	if err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	for _, s := range ph.all() {
		res.Attempted += s.attempted.Load()
		res.Failed += s.failed.Load()
	}
	res.env = r.environment(pt, ph)
	res.env["setup_wall_s"] = quantile(setupsWall, 0.5).Seconds()
	r.report(setups, setupsWall, ph)
	r.logf("by round: scenarios/s %.4g, per CPU-s %.4g", ph.rateQ, ph.cpuQ)
	r.logf("by round: one-shots/s %.4g, per CPU-s %.4g", ph.rateB, ph.cpuB)
	// The mean, not the median: the host switches between a fast and a
	// slow mode from one second to the next, and the run's timings are
	// spread over both in proportion to the time it spends in each.
	var sum time.Duration
	for _, g := range gauges {
		sum += g
	}
	gauge := sum / time.Duration(len(gauges))
	scale := float64(gaugeNominal) / float64(gauge)
	res.env["host_gauge_ms"] = ms(gauge)
	res.env["host_scale"] = scale
	r.logf("host gauges (mean %v, timings scaled by %.4f): %v", gauge, scale, gauges)

	refs, err := r.check(ctx, admin, reads, queries, feed, stmts, adds, before, after, ph)
	if refs != nil {
		res.env["compression_last_bit_diffs"] = refs.lastBitDiffs
	}
	if err == nil && res.Failed > 0 {
		err = gatef("%d of %d operations failed; first: %v", res.Failed, res.Attempted, ph.firstErr())
	}
	if err != nil {
		var ge *gateError
		if errors.As(err, &ge) {
			return res, err
		}
		return nil, err
	}
	res.Correct = true

	if !cfg.trace {
		endToEnd(res, setups, ph, peak, refs, queries, scale)
		return res, nil
	}
	return res, r.perLayer(ctx, res, sp, st, reads, queries, feed, stmts, adds, shotsA[:min(ph.nextA, len(shotsA))], before, after, ph)
}

// endToEnd fills the untraced run's metrics. The timings are multiplied
// by the run's host scale, gaugeNominal over its mean host gauge, and the
// rates per CPU-second divided by it, so that they read as on a host
// running the gauge in gaugeNominal; the unscaled figures go to the
// environment line.
func endToEnd(res *result, setups []time.Duration, ph *phaseResults, peak uint64, refs *references, queries []*liveSession, scale float64) {
	vl := 0.0
	for _, s := range queries {
		vl += float64(s.comp.VariableLoss)
	}
	unscaled := map[string]float64{
		"setup_s":             quantile(setups, 0.5).Seconds(),
		"whatif_p50_ms":       ms(quantile(ph.whatifA.lat, 0.5)),
		"whatif_per_cpu_s":    mean(ph.cpuB),
		"scenarios_per_cpu_s": mean(ph.cpuQ),
		"add_p50_ms":          ms(quantile(ph.adds.lat, 0.5)),
	}
	res.env["unscaled"] = unscaled
	m := res.Metrics
	m["setup_s"] = metric{unscaled["setup_s"] * scale, "s"}
	m["whatif_p50_ms"] = metric{unscaled["whatif_p50_ms"] * scale, "ms"}
	m["whatif_per_cpu_s"] = metric{unscaled["whatif_per_cpu_s"] / scale, "1/cpu-s"}
	m["scenarios_per_cpu_s"] = metric{unscaled["scenarios_per_cpu_s"] / scale, "1/cpu-s"}
	m["add_p50_ms"] = metric{unscaled["add_p50_ms"] * scale, "ms"}
	m["heap_peak_mb"] = metric{float64(peak) / (1 << 20), "MB"}
	m["variable_loss"] = metric{vl / float64(len(queries)), "count"}
	m["max_rel_error"] = metric{refs.maxRelErr, "ratio"}
}

// mean is the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// report prints each phase's distributions to standard error.
func (r *runner) report(setups, setupsWall []time.Duration, ph *phaseResults) {
	r.logf("set-ups: CPU %v, wall-clock %v", setups, setupsWall)
	for _, x := range []struct {
		name string
		d    []time.Duration
	}{{"whatif A", ph.whatifA.lat}, {"add", ph.adds.lat},
		{"whatif B", ph.whatifB.lat}, {"statement", ph.queries.lat}} {
		d := slices.Clone(x.d)
		r.logf("%-9s n=%-6d p10=%-10v p50=%-10v p90=%-10v p99=%-10v max=%v", x.name, len(d),
			quantile(d, 0.1), quantile(d, 0.5), quantile(d, 0.9), quantile(d, 0.99), quantile(d, 1))
	}
	kinds := map[string]time.Duration{}
	for _, s := range ph.stmtRuns {
		kinds[s.kind] += s.took
	}
	r.logf("statement time by kind: %v", kinds)
}

// environment is what every result records beside its metrics.
func (r *runner) environment(pt phaseTimes, ph *phaseResults) map[string]any {
	w, sz := r.cfg.workload, r.cfg.sizes
	size := sz.small
	if w.medium {
		size = sz.medium
	}
	return map[string]any{
		"workload":   w.name,
		"why":        w.why,
		"seed":       r.cfg.seed,
		"trace":      r.cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"telco": map[string]any{
			"customers": size.Customers, "zips": size.Zips, "plans": size.Plans, "months": size.Months,
			"sessions": w.sessions,
		},
		"phases_s": map[string]float64{
			"a": pt.a.Seconds(), "q": ph.durQ.Seconds(), "b": ph.durB.Seconds(), "f": ph.durF.Seconds(),
		},
		"clients": map[string]int{"a": 1, "q": 1, "b": 2, "f": 1},
		// The stack serves from memory; the traced run's durable twin
		// writes with the shipped flush policy.
		"twin_flush_policy": map[string]any{
			"group_window_ns": flushGroupWindow, "rotate_records": flushRotateRecords,
		},
		"samples": map[string]int{
			"whatif_a": len(ph.whatifA.lat), "add": len(ph.adds.lat),
			"statements": len(ph.queries.lat), "whatif_b": len(ph.whatifB.lat),
		},
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
