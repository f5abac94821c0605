package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"provabs/internal/provenance"
	"provabs/internal/telco"
	"provabs/internal/treegen"
)

// workload is one traffic mix over one session layout. Every workload runs
// the same phases in order, so every end-to-end metric is measured on every
// workload; the layout, the rates and each phase's share of the window are
// what make a workload stress its own layers.
//
//   - Phase A is a closed loop with one client sending one-shot what-ifs,
//     spread over the query sessions or sent to the one-shot session: the
//     latency of a request that finds the stack warm and to itself.
//   - Phase Q is a closed loop with one client sending ScenQL top-k
//     statements to /query/stream, alternating grid sweeps over two plan
//     leaves (chained deltas) with SAMPLEs over the month and quarter
//     variables (full evaluation).
//   - Phase B is a closed loop with two clients sending one-shot what-ifs.
//   - Phase F is a closed loop of a fixed number of add lines on one
//     full-duplex /add stream into a feed session that nothing else
//     queries: each line goes out when the previous one is acked.
type workload struct {
	name string
	why  string

	sessions int  // query sessions
	medium   bool // query sessions are telco-m rather than telco-s
	// shotSession sends phases A and B to a telco-s session of their own
	// rather than to the query sessions. A one-shot on a telco-m session
	// moves 79 KB of answers, and its cost swung with the host's other
	// tenants by more than the one-shot metrics' bounds.
	shotSession bool

	shareA, shareQ, shareB float64 // phase shares of the window

	gridStep    string // grid sweep step over [0.5:1.5]
	samplePoint int    // scenarios per SAMPLE statement
}

var workloads = map[string]*workload{
	"interactive": {
		name: "interactive",
		why: "one-shots on 8 telco-s sessions from 1 then 2 closed-loop clients; the kernel is a few % of a " +
			"request, the rest is JSON, net/http and the gateway hop",
		sessions: 8,
		shareA:   0.35, shareQ: 0.25, shareB: 0.40,
		gridStep: "0.1", samplePoint: 40,
	},
	"sweep": {
		name: "sweep",
		why: "ScenQL top-k statements on a telco-m session whose kernel is past L2 (one-shots go to a telco-s " +
			"session); 10 rows cross the wire, so time goes to the kernel, answer boxing and the generator",
		sessions: 1, medium: true, shotSession: true,
		shareA: 0.25, shareQ: 0.50, shareB: 0.25,
		gridStep: "0.05", samplePoint: 80,
	},
}

// sizes scales a run; the test runs a tiny version of every workload.
type sizes struct {
	small, medium telco.Config
	setupReps     int // set-ups per run; setup_s is their median
	addsPerRound  int // add lines phase F sends each round
	minBeyond     int // samples a reported tail percentile needs beyond it
	relErrSamples int // non-uniform scenarios behind max_rel_error
	uniformChecks int // VVS-uniform scenarios checked against the source
}

var fullSizes = sizes{
	small:         telco.Config{Customers: 2000, Zips: 200, Plans: 128, Months: 12},
	medium:        telco.Config{Customers: 20000, Zips: 2000, Plans: 128, Months: 12},
	setupReps:     3,
	addsPerRound:  500,
	minBeyond:     10,
	relErrSamples: 256,
	uniformChecks: 16,
}

// plansShape is the Table 2 type 1 tree over the 128 plan variables.
var plansShape = treegen.Shape{Type: 1, Fanouts: []int{2, 64}}

// sessionInput is one session's provenance, ready to send.
type sessionInput struct {
	name    string
	encoded []byte // provenance.Encode output
	b64     string
	bound   int // B = |P|/2
	polys   int
}

func makeSessionInput(name string, cfg telco.Config) (*sessionInput, error) {
	set, err := telco.SyntheticProvenance(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := provenance.Encode(&buf, set); err != nil {
		return nil, err
	}
	return &sessionInput{
		name:    name,
		encoded: buf.Bytes(),
		b64:     base64.StdEncoding.EncodeToString(buf.Bytes()),
		bound:   set.Size() / 2,
		polys:   set.Len(),
	}, nil
}

// trees are the abstraction forest every session is created with: the
// plans tree and the quarter tree.
func trees() ([]string, error) {
	pt, err := telco.PlansTree(plansShape)
	if err != nil {
		return nil, err
	}
	return []string{pt.String(), telco.QuarterTree().String()}, nil
}

// whatifInput is one one-shot scenario: 1–3 VVS variables moved.
type whatifInput struct {
	assign map[string]float64
	body   []byte
}

func makeWhatIfs(rng *rand.Rand, n int, vvs []string) []whatifInput {
	out := make([]whatifInput, n)
	for i := range out {
		assign := map[string]float64{}
		for k := 1 + rng.Intn(3); len(assign) < k; {
			assign[vvs[rng.Intn(len(vvs))]] = 0.5 + float64(rng.Intn(101))/100
		}
		out[i] = whatifInput{assign: assign, body: whatifBody(assign)}
	}
	return out
}

func whatifBody(assign map[string]float64) []byte {
	body, err := json.Marshal(map[string]any{"assign": assign})
	if err != nil {
		panic(err) // a map of finite floats always encodes
	}
	return body
}

// addInput is one add line: a new polynomial of one or two plan × month
// terms, which the session abstracts under its chosen substitution.
type addInput struct {
	tag, poly string
	line      []byte
}

func makeAdds(rng *rand.Rand, n int) ([]addInput, error) {
	out := make([]addInput, n)
	for i := range out {
		terms := make([]string, 1+rng.Intn(2))
		for t := range terms {
			terms[t] = fmt.Sprintf("%g*%s*%s", float64(100+rng.Intn(60000))/100,
				telco.PlanVar(rng.Intn(128)), telco.MonthVar(1+rng.Intn(12)))
		}
		tag := fmt.Sprintf("a%06d", i)
		poly := strings.Join(terms, " + ")
		line, err := json.Marshal(map[string]string{"tag": tag, "poly": poly})
		if err != nil {
			return nil, err
		}
		out[i] = addInput{tag: tag, poly: poly, line: append(line, '\n')}
	}
	return out, nil
}

// statement is one ScenQL top-k statement, its kind and the query
// session it runs on.
type statement struct {
	kind, src string
	session   int
}

// makeStatements builds the fixed phase Q mix: n statements spread over
// the query sessions, grid sweeps over two plan leaves alternating with
// SAMPLEs over the month and quarter variables of the session's VVS, each
// ranked by one zip's answer.
func makeStatements(rng *rand.Rand, w *workload, n int, sessions []*liveSession) []statement {
	out := make([]statement, n)
	for i := range out {
		session := i % len(sessions)
		s := sessions[session]
		var plans, periods []string
		for _, v := range s.comp.VVS {
			if strings.HasPrefix(v, "pl") {
				plans = append(plans, v)
			} else {
				periods = append(periods, v)
			}
		}
		rank := rng.Intn(s.in.polys)
		if i%2 == 0 {
			a, b := plans[rng.Intn(len(plans))], plans[rng.Intn(len(plans))]
			for b == a {
				b = plans[rng.Intn(len(plans))]
			}
			out[i] = statement{"grid", fmt.Sprintf("%s IN [0.5:1.5:%s] %s IN [0.5:1.5:%s] ORDER BY ans[%d] DESC LIMIT 10",
				a, w.gridStep, b, w.gridStep, rank), session}
		} else {
			out[i] = statement{"sample", fmt.Sprintf("SAMPLE %d %s IN [0.5:1.5] SEED %d ORDER BY ans[%d] DESC LIMIT 10",
				w.samplePoint, strings.Join(periods, ", "), 1+rng.Intn(1000), rank), session}
		}
	}
	return out
}
