package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"provabs/internal/provenance"
	"provabs/internal/telco"
)

// tinySizes runs every workload in a second or two: small sessions, one
// set-up, no tail-percentile sample floor.
var tinySizes = sizes{
	small:         telco.Config{Customers: 1500, Zips: 20, Plans: 128, Months: 12},
	medium:        telco.Config{Customers: 3000, Zips: 40, Plans: 128, Months: 12},
	setupReps:     1,
	addsPerRound:  20,
	minBeyond:     0,
	relErrSamples: 4,
	uniformChecks: 2,
}

// benchmarkSpec is the part of BENCHMARK.json the runs must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runTiny runs one tiny workload and returns its result and the addresses
// its stack listened on.
func runTiny(t *testing.T, ctx context.Context, name string, trace bool, workDir string) (*result, []string, error) {
	t.Helper()
	r := newRunner(runConfig{
		workload: workloads[name],
		seed:     7,
		window:   1500 * time.Millisecond,
		trace:    trace,
		sizes:    tinySizes,
		workDir:  workDir,
	}, testWriter{t})
	res, err := r.run(ctx)
	var addrs []string
	if r.st != nil {
		addrs = append(addrs, strings.TrimPrefix(r.st.url, "http://"))
		for _, b := range r.st.backends {
			addrs = append(addrs, b.addr)
		}
	}
	return res, addrs, err
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// assertClean checks that a finished run left nothing behind: no extra
// goroutine, no listener, no WAL root of the traced run's durable twin.
func assertClean(t *testing.T, goroutines int, addrs []string, workDir string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines still running, %d before the run:\n%s", n, goroutines, buf[:runtime.Stack(buf, true)])
	}
	if len(addrs) == 0 {
		t.Error("the run recorded no listener addresses")
	}
	for _, addr := range addrs {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections", addr)
		}
	}
	walRoots, err := filepath.Glob(filepath.Join(workDir, "walroot-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(walRoots) > 0 {
		t.Errorf("WAL roots left behind: %v", walRoots)
	}
}

func TestWorkloadsCleanUp(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if def, ok := workloads[w.Name]; !ok || def.why != w.Why {
			t.Fatalf("workload %q: BENCHMARK.json's why differs from the definition's", w.Name)
		}
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			workDir := t.TempDir()
			goroutines := runtime.NumGoroutine()
			res, addrs, err := runTiny(t, context.Background(), name, trace, workDir)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s is %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			assertClean(t, goroutines, addrs, workDir)
		}
	}
}

// A run that hits its deadline mid-window stops and cleans up like any
// other.
func TestDeadlineCleansUp(t *testing.T) {
	workDir := t.TempDir()
	goroutines := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 1200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, addrs, err := runTiny(t, ctx, "interactive", true, workDir)
	if err == nil {
		t.Fatal("a run past its deadline succeeded")
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("the run took %v to stop at its deadline", took)
	}
	assertClean(t, goroutines, addrs, workDir)
}

// A run whose gate fails reports correct=false through a gate error.
func TestGateFailureIsReported(t *testing.T) {
	raw := []byte(`{"answers":[{"tag":"a","value":1}]}`)
	refs := &references{}
	set, err := provenance.Decode(bytes.NewReader(mustSet(t)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := openForest(set, mustForest(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := matchWhatIf(eng, map[string]float64{}, raw); err == nil {
		t.Fatal("a wrong answer matched the engine")
	}
	if err := refs.near(eng, map[string]float64{}, raw); err == nil {
		t.Fatal("a wrong answer was near the engine's")
	}
}

func mustSet(t *testing.T) []byte {
	t.Helper()
	in, err := makeSessionInput("t", tinySizes.small)
	if err != nil {
		t.Fatal(err)
	}
	return in.encoded
}

func mustForest(t *testing.T) []string {
	t.Helper()
	f, err := trees()
	if err != nil {
		t.Fatal(err)
	}
	return f
}
