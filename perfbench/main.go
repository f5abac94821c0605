// Command perfbench is the provabs benchmark. It starts two serve backends
// and a gateway inside its own process on loopback, drives one seeded
// workload through the /v1 API, checks the answers against in-process
// reference Engines, and prints one JSON result line as the last line of
// standard output, after a line recording the environment.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload interactive --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, and the spans and the layer breakdown
// are written to .bench_build/trace/. A failed correctness gate prints the
// result marked "correct": false and exits 1; any other failure, the run
// deadline or SIGINT/SIGTERM exit 1 with no result line. Every exit path
// stops the gateway and the servers and removes the traced run's temporary
// WAL root; the benchmark starts no child processes. It runs on one P
// (GOMAXPROCS 1).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// runDeadline bounds one run, set-up and checks included, so a hang fails
// the run well inside the 180 s a run may take.
const runDeadline = 150 * time.Second

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr))
}

func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: interactive or sweep")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "measured window per run, in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	// The load generator and the whole serving stack share one P. With
	// two on a 2-vCPU VM, a request's hand-offs between goroutines keep
	// both vCPUs busy, and how much they slow each other down moves with
	// the host's other tenants: over five runs interleaved with five on
	// one P, the spread (IQR/median) of whatif_p50_ms and whatif_per_cpu_s
	// was 0.22–0.23 on two Ps against 0.06–0.08 on one.
	runtime.GOMAXPROCS(1)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	cfg := runConfig{
		workload: w,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		sizes:    fullSizes,
		workDir:  ".bench_build",
	}
	type outcome struct {
		res *result
		err error
	}
	done := make(chan outcome, 1)
	r := newRunner(cfg, stderr)
	go func() {
		res, err := r.run(ctx)
		done <- outcome{res, err}
	}()

	var out outcome
	select {
	case out = <-done:
	case <-ctx.Done():
		// The run honours ctx everywhere it waits; give it a moment to
		// unwind, then tear the stack down from here so a stuck goroutine
		// cannot keep a listener or a WAL root alive past the deadline.
		select {
		case out = <-done:
		case <-time.After(5 * time.Second):
			r.closeStack()
			out.err = fmt.Errorf("run did not stop at its deadline: %w", ctx.Err())
		}
	}
	if out.err == nil && ctx.Err() != nil {
		out.err = ctx.Err()
	}
	if out.err != nil {
		if errors.Is(out.err, context.DeadlineExceeded) {
			fmt.Fprintf(stderr, "perfbench: run deadline (%v) exceeded\n", runDeadline)
		}
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, out.err)
		// A failed gate still reports what ran, marked incorrect; any
		// other failure reports nothing.
		var ge *gateError
		if out.res != nil && errors.As(out.err, &ge) {
			printResult(stdout, stderr, out.res) //nolint:errcheck // the run fails either way
		}
		return 1
	}
	if err := printResult(stdout, stderr, out.res); err != nil {
		return 1
	}
	return 0
}

// printResult prints the environment record, then the result as the last
// line of standard output.
func printResult(stdout, stderr io.Writer, res *result) error {
	env, err := json.Marshal(map[string]any{"env": res.env})
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Fprintf(stdout, "%s\n%s\n", env, line)
			return nil
		}
	}
	fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
	return err
}
