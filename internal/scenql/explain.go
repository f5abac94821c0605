package scenql

// EXPLAIN plan-tree JSON. The tree is the contract tooling depends on
// (pinned by a golden test): node names, route labels, and cost-estimate
// fields are stable. The generator half is built here from the Plan; the
// eval node is filled in by the executor, which owns the kernels, the
// routing decision, and the live cost model.

// ExplainPlan is the top-level EXPLAIN payload.
type ExplainPlan struct {
	Statement string `json:"statement"`
	Semiring  string `json:"semiring"`
	Scenarios int64  `json:"scenarios"` // what the iterator will yield
	Plan      any    `json:"plan"`      // root node: eval
}

// TopKNode is the streaming top-k filter (ORDER BY ... LIMIT k). It ranks
// every scenario of its input on the key polynomial alone — KeyTerms terms
// a scenario — and passes only the k winners on to the eval node above
// it.
type TopKNode struct {
	Node     string `json:"node"` // "topk"
	Key      string `json:"key"`  // "ans[3]", "ans['total']"
	Dir      string `json:"dir"`  // "asc" | "desc"
	K        int    `json:"k"`
	KeyTerms int    `json:"key_terms"` // terms of the key polynomial
	Input    any    `json:"input"`
}

// LimitNode caps generation (standalone LIMIT).
type LimitNode struct {
	Node  string `json:"node"` // "limit"
	Limit int64  `json:"limit"`
	Input any    `json:"input"`
}

// EvalNode is the full-evaluation stage, annotated by the executor with
// the compiled kernel's shape, the cost model behind the adaptive cutoff,
// and the predicted route for each transition class. Over a topk input it
// answers only the k winners, which are not consecutive scenarios, so
// Routes is omitted.
type EvalNode struct {
	Node        string    `json:"node"` // "eval"
	Semiring    string    `json:"semiring"`
	Polynomials int       `json:"polynomials"`
	Terms       int       `json:"terms"`
	Chained     bool      `json:"chained"` // scenarios ride the chained-delta stream
	CostModel   CostModel `json:"cost_model"`
	Routes      []Route   `json:"routes,omitempty"`
	Input       any       `json:"input"`
}

// CostModel reports the numbers driving the delta-vs-full decision.
type CostModel struct {
	// Source: "static" (fixed cutoff), "adaptive" (EWMA-complete),
	// "bootstrap" (adaptive mode, model still warming), "disabled".
	Source string `json:"source"`
	// DeltaNsPerTerm / FullNsPerTerm are the live EWMA estimates; zero
	// until the respective path has been observed.
	DeltaNsPerTerm float64 `json:"delta_ns_per_term,omitempty"`
	FullNsPerTerm  float64 `json:"full_ns_per_term,omitempty"`
	// Cutoff is the affected-terms fraction above which full evaluation
	// wins; ThresholdTerms is that fraction applied to this kernel.
	Cutoff         float64 `json:"cutoff"`
	ThresholdTerms float64 `json:"threshold_terms"`
}

// Route is the predicted evaluation route for one transition class.
type Route struct {
	Class         string   `json:"class"` // "seed", "step x", "step (a,b)"
	Vars          []string `json:"vars"`
	Transitions   int64    `json:"transitions"`
	AffectedTerms int      `json:"affected_terms"`
	// Route: "delta" (seed transition vs identity baseline), "chained"
	// (delta vs the previous scenario), "full", or "sharded".
	Route string `json:"route"`
}

// GenerateNode is the scenario source.
type GenerateNode struct {
	Node      string             `json:"node"`  // "generate"
	Order     string             `json:"order"` // "snake"
	Scenarios int64              `json:"scenarios"`
	Set       map[string]float64 `json:"set,omitempty"`
	Axes      []AxisNode         `json:"axes,omitempty"`
}

// AxisNode describes one generator axis. The numeric bounds are pointers
// so a legitimate zero (from=0) survives omitempty.
type AxisNode struct {
	Node   string   `json:"node"` // "sweep" | "cross" | "sample"
	Vars   []string `json:"vars"`
	Points int      `json:"points"`
	From   *float64 `json:"from,omitempty"`
	To     *float64 `json:"to,omitempty"`
	Step   *float64 `json:"step,omitempty"`
	Lo     *float64 `json:"lo,omitempty"`
	Hi     *float64 `json:"hi,omitempty"`
	Seed   int64    `json:"seed,omitempty"`
}

func ptr(x float64) *float64 { return &x }

// GenerateNode builds the generator half of the EXPLAIN tree.
func (p *Plan) GenerateNode() *GenerateNode {
	g := &GenerateNode{Node: "generate", Order: "snake", Scenarios: p.total}
	if len(p.sets) > 0 {
		g.Set = make(map[string]float64, len(p.sets))
		for _, s := range p.sets {
			g.Set[s.Name] = s.Value
		}
	}
	for _, ax := range p.axes {
		n := AxisNode{Vars: ax.names, Points: int(ax.card)}
		switch s := ax.spec.(type) {
		case *SweepSpec:
			n.Node = "sweep"
			n.From, n.To, n.Step = ptr(s.From), ptr(s.To), ptr(s.Step)
		case *CrossSpec:
			n.Node = "cross"
		case *SampleSpec:
			n.Node = "sample"
			n.Lo, n.Hi, n.Seed = ptr(s.Lo), ptr(s.Hi), s.Seed
		}
		g.Axes = append(g.Axes, n)
	}
	return g
}
