// Package provabs is a library for hypothetical reasoning over data
// provenance with provenance abstraction, reproducing Deutch, Moskovitch
// and Rinetzky, "Hypothetical Reasoning via Provenance Abstraction"
// (SIGMOD 2019).
//
// The workflow mirrors the paper:
//
//  1. Obtain provenance polynomials — either from the built-in
//     provenance-aware SQL engine (see internal/engine and the generators
//     in internal/telco and internal/tpch), by parsing the text format, or
//     by constructing them directly.
//  2. Define abstraction trees over the provenance variables: hierarchies
//     of meta-variables describing which variables may be grouped for the
//     anticipated hypothetical scenarios.
//  3. Compress: pick a valid variable set (a cut in each tree) with
//     Optimal (single tree, exact, PTIME — the paper's Algorithm 1),
//     Greedy (any forest — Algorithm 2), or BruteForce (reference).
//  4. Ask what-ifs: scenarios valuate (meta-)variables; on abstracted
//     provenance, group-uniform scenarios are exact and the rest are
//     approximated.
//
// # The session Engine
//
// The paper's workload is a long-lived session: compress once, then answer
// a stream of hypothetical scenarios. The Engine owns that lifecycle — the
// provenance, the abstraction forest, the chosen compression, and a lazily
// built compiled form that is cached across evaluations and invalidated on
// mutation. A minimal round trip:
//
//	vb := provabs.NewVocab()
//	set := provabs.NewSet(vb)
//	set.Add("zip 10001", provabs.MustParse(vb, "220.8·p1·m1 + 240·p1·m3"))
//	forest, _ := provabs.NewForest(provabs.MustParseTree("Year(q1(m1,m3))"))
//	eng, _ := provabs.Open(set, forest)
//	comp, _ := eng.Compress(1) // StrategyAuto: optimal for one tree
//	answers, _ := eng.WhatIf(provabs.NewScenario().Set("q1", 0.8))
//	_ = comp.Abstracted // the compressed provenance, if needed directly
//
// Engine.Compress unifies the five selection strategies — Optimal
// (Algorithm 1), Greedy (Algorithm 2), BruteForce, Summarize (the Ainy et
// al. competitor) and Online (§6 sampling) — behind one call:
//
//	eng.Compress(B, provabs.WithStrategy(provabs.StrategyOnline),
//	    provabs.WithSamplingFraction(0.25), provabs.WithSeed(7))
//
// Engine.WhatIfBatch evaluates many scenarios in parallel against one
// cached compilation, and Engine.Stream answers scenarios as they arrive
// on a channel.
//
// # Multi-session registry and the v1 server
//
// One process can host many named sessions — several provenance files or
// tenants, each with its own abstraction, cached compilation and counters —
// through a Registry:
//
//	reg := provabs.OpenRegistry()
//	telco, _ := reg.Create("telco", telcoSet, telcoForest) // first = default
//	q5, _ := reg.Create("q5", q5Set, q5Forest)
//	telco.Engine().Compress(5000)
//	answers, _ := q5.Engine().WhatIf(scenario)
//	agg := reg.Stats() // aggregate counters across every session
//	reg.Close("q5")    // tears down the session's live scenario streams
//
// `provabs serve` (see internal/server) exposes the registry as a
// versioned, resource-oriented HTTP API mounted at /v1: POST/GET
// /v1/sessions, GET|DELETE /v1/sessions/{name}, POST
// /v1/sessions/{name}/whatif (+ a streaming NDJSON /whatif/stream), POST
// /v1/sessions/{name}/compress, GET /v1/sessions/{name}/stats and the
// aggregated GET /v1/stats. The pre-registry unversioned routes remain as
// deprecated aliases onto the default session.
//
// The free functions Optimal, Greedy, BruteForce, Summarize and
// OnlineCompress predate the Engine and remain as thin deprecated wrappers
// over it.
//
// # Compiled batch evaluation
//
// Under the Engine sits the compiled evaluation layer, usable directly:
// compile the (abstracted) set once with Compile — flattening every
// monomial into dense coefficient/variable arrays — and evaluate batches of
// scenarios in parallel:
//
//	compiled := provabs.Compile(compressed)
//	scenarios := []*provabs.Scenario{ ... many what-ifs ... }
//	rows, _ := provabs.EvalBatch(compiled, scenarios, 0) // 0 = GOMAXPROCS workers
//
// Compiled evaluation needs no string parsing or map lookups per monomial
// and is deterministic (canonical monomial order); EvalBatch spreads
// scenarios over a worker pool.
//
// # Delta evaluation and sharding
//
// The compiled form also carries an inverted index (variable → affected
// polynomials) and the cached baseline answers under the identity
// valuation, built once on first delta use. A sparse scenario — the typical interactive what-if, touching
// a handful of variables — is then answered by recomputing only the
// affected polynomials (Compiled.EvalDelta), with results bit-identical to
// full evaluation. The delta base is chosen per scenario: the identity
// baseline, or — on chained stream micro-batches — the previous scenario's
// answers, when consecutive valuations differ on fewer terms than either
// differs from the identity (DeltaEval.EvalFrom). Routing between the
// delta and full paths is adaptive by default: an online cost model learns
// the observed ns/term of each path and picks per scenario
// (BatchOptions.DeltaCutoff pins a static fraction instead). When a batch
// has fewer scenarios than workers the pool shards each scenario's
// polynomial range (Compiled.EvalSharded), so one huge scenario uses every
// core. The Engine applies all of this transparently (see WithDeltaCutoff)
// and reports DeltaEvals/ChainedEvals/FullEvals/ShardedEvals plus the
// learned cutoff in its Stats. Engine.Add extends the compiled form, its
// indexes and its baseline in place (Compiled.Append), so an Add-heavy
// session never recompiles.
//
// # Semiring-generic evaluation
//
// The compiled kernel is generic over the provenance semiring: the same
// flattening, inverted index, delta routing and chained streaming run on
// any commutative semiring carrier, with the float64 path bit-identical to
// the pre-generic kernel. Every evaluation entry point has an -In variant
// taking a SemiringKind:
//
//	alive, _ := eng.WhatIfIn(provabs.SemiringBool, provabs.NewScenario().Set("q1", 0))
//	counts, _ := eng.WhatIfBatchIn(provabs.SemiringCount, scenarios)
//	results := eng.StreamIn(ctx, provabs.SemiringTropical, in)
//
// Boolean answers deletion propagation (does the tuple survive?), counting
// reports derivation multiplicities, tropical the cheapest derivation and
// minmax the best worst-case clearance; answers carry the carrier's own
// value type (ValueAnswer). Non-numeric carriers read the provenance
// strictly as N[X] — fractional coefficients are rejected, near-integer
// ones (within 1e-9, summarize's float accumulation) are accepted. Each
// carrier compiles once per session and caches independently, and Stats
// breaks scenario and delta counters out per semiring.
package provabs

import (
	"io"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/core"
	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/registry"
	"provabs/internal/sampling"
	"provabs/internal/scenql"
	"provabs/internal/semiring"
	"provabs/internal/session"
	"provabs/internal/summarize"
)

// Provenance model (internal/provenance).
type (
	// Var is an interned provenance variable.
	Var = provenance.Var
	// Vocab interns variable names.
	Vocab = provenance.Vocab
	// Monomial is a coefficient times a product of variables.
	Monomial = provenance.Monomial
	// Polynomial is a canonical sum of monomials.
	Polynomial = provenance.Polynomial
	// Set is a multiset of tagged polynomials — a query's provenance.
	Set = provenance.Set
	// Compiled is a set flattened into dense arrays for fast, repeated,
	// parallel scenario evaluation, with an inverted variable index and a
	// cached baseline for delta evaluation.
	Compiled = provenance.Compiled
	// DeltaEval is reusable scratch for repeated delta evaluation against
	// one Compiled (Compiled.NewDeltaEval).
	DeltaEval = provenance.DeltaEval
)

// Abstraction model (internal/abstree).
type (
	// Tree is an abstraction tree: leaves are provenance variables,
	// internal nodes are meta-variables.
	Tree = abstree.Tree
	// Spec declaratively describes a Tree.
	Spec = abstree.Spec
	// Forest is a set of label-disjoint abstraction trees.
	Forest = abstree.Forest
	// VVS is a valid variable set: a cut per tree, i.e. one abstraction.
	VVS = abstree.VVS
)

// Algorithms (internal/core).
type (
	// Result is a VVS-selection outcome: the chosen abstraction, its
	// monomial and variable losses, and whether it meets the bound.
	Result = core.Result
	// Compression is the uniform outcome of any compression strategy run
	// through the Engine: abstracted set, substitution, losses, adequacy.
	Compression = core.Compression
	// Compressor is the strategy interface all five compression algorithms
	// implement.
	Compressor = core.Compressor
)

// Session engine (internal/session).
type (
	// Engine is a long-lived hypothetical-reasoning session: it owns the
	// provenance, the abstraction, and a mutation-invalidated compiled
	// cache, and answers scenario streams without re-compiling.
	Engine = session.Engine
	// EngineStats is a point-in-time snapshot of an Engine.
	EngineStats = session.Stats
	// StreamResult is one streamed what-if outcome of Engine.Stream.
	StreamResult = session.StreamResult
	// ValueStreamResult is one streamed outcome of Engine.StreamIn, with
	// the answers carrier-erased (Value holds the semiring's own type).
	ValueStreamResult = session.ValueStreamResult
	// Strategy names a compression algorithm for WithStrategy.
	Strategy = session.Strategy
	// Option configures an Engine at Open time.
	Option = session.Option
	// CompressOption tunes a single Engine.Compress call.
	CompressOption = session.CompressOption
)

// ScenQL (internal/scenql): a scenario query language over a session —
// grid sweeps, cross products and samples compiled into a lazily iterated
// plan and evaluated through the chained delta kernel, with streaming
// top-k and an EXPLAIN that reports routes and live cost estimates:
//
//	res, _ := eng.Query("price IN [0.5:1.5:0.01] ORDER BY ans[0] DESC LIMIT 10")
//	info, rows, _ := eng.QueryStream(ctx, "SAMPLE 100000 a, b IN [0:1] SEED 7")
type (
	// QueryResult is a non-streaming Engine.Query outcome.
	QueryResult = session.QueryResult
	// QueryRow is one scenario's outcome within a query.
	QueryRow = session.QueryRow
	// QueryInfo is the statement-level header of Engine.QueryStream.
	QueryInfo = session.QueryInfo
	// QueryParseError is a positioned ScenQL syntax error.
	QueryParseError = scenql.ParseError
	// QueryCompileError is a positioned ScenQL resolution error (an unknown
	// variable, an unsatisfiable ORDER BY, …).
	QueryCompileError = scenql.CompileError
)

// ParseScenarioLiteral parses one "x=0.5, y=1" scenario literal — the
// syntax shared by the CLI's -set/-sets flags, ScenQL's SET clause, and
// the server's bare stream lines.
func ParseScenarioLiteral(spec string) (*Scenario, error) { return scenql.ParseAssignments(spec) }

// ParseScenarioLiterals parses a ";"-separated list of scenario literals.
func ParseScenarioLiterals(spec string) ([]*Scenario, error) { return scenql.ParseScenarios(spec) }

// Compression strategies for Engine.Compress.
const (
	// StrategyAuto picks Optimal for a single tree, Greedy otherwise.
	StrategyAuto = session.StrategyAuto
	// StrategyOptimal is Algorithm 1 (exact, PTIME, single tree).
	StrategyOptimal = session.StrategyOptimal
	// StrategyGreedy is Algorithm 2 (heuristic, any forest).
	StrategyGreedy = session.StrategyGreedy
	// StrategyBruteForce is the exhaustive reference solver.
	StrategyBruteForce = session.StrategyBruteForce
	// StrategySummarize is the Ainy et al. (CIKM'15) competitor.
	StrategySummarize = session.StrategySummarize
	// StrategyOnline is the §6 sample-then-apply pipeline.
	StrategyOnline = session.StrategyOnline
)

// Semiring selection (internal/semiring): every evaluation entry point has
// an -In variant (Engine.WhatIfIn, Engine.WhatIfBatchIn, Engine.StreamIn)
// that runs the same compiled kernel on the named carrier.
type (
	// SemiringKind names a wire-selectable evaluation carrier.
	SemiringKind = semiring.Kind
	// ValueAnswer is a tagged answer in the carrier's own value type
	// (float64, bool, int64), carrier-erased into an any.
	ValueAnswer = hypo.ValueAnswer
)

const (
	// SemiringFloat is the numeric semiring — the default float64 path.
	SemiringFloat = semiring.KindFloat
	// SemiringBool is the boolean semiring: deletion propagation, answers
	// report whether the tuple survives.
	SemiringBool = semiring.KindBool
	// SemiringCount is the counting semiring: derivation counts under
	// integer multiplicities.
	SemiringCount = semiring.KindCount
	// SemiringTropical is the min-plus semiring: cheapest derivation cost.
	SemiringTropical = semiring.KindTropical
	// SemiringMinMax is the max-min semiring: best worst-case clearance.
	SemiringMinMax = semiring.KindMinMax
)

// ParseSemiring resolves a carrier name ("" = float) for the -In entry
// points; unknown names list the valid set.
func ParseSemiring(name string) (SemiringKind, error) { return semiring.ParseKind(name) }

// Semirings lists every wire-selectable carrier, float first.
func Semirings() []SemiringKind { return semiring.Kinds() }

// Multi-session registry (internal/registry).
type (
	// Registry owns many named session Engines in one process — one per
	// provenance set / tenant — with a full lifecycle and aggregate stats.
	Registry = registry.Registry
	// RegistrySession is one named session: an Engine plus its registry
	// lifecycle (Name, Created, Done on close).
	RegistrySession = registry.Session
	// AggregateStats is the registry-wide stats view: per-session snapshots
	// plus cross-session totals.
	AggregateStats = registry.AggregateStats
)

// Registry lookup errors, matched with errors.Is.
var (
	// ErrSessionExists reports a Create against a name already in use.
	ErrSessionExists = registry.ErrExists
	// ErrSessionNotFound reports a lookup of an unknown session name.
	ErrSessionNotFound = registry.ErrNotFound
	// ErrNoDefaultSession reports that no default session is designated.
	ErrNoDefaultSession = registry.ErrNoDefault
)

// ErrActiveSetReplaced fails a ScenQL statement that a Compress overtook
// mid-statement (Engine.Query, QueryInfo.Err); the statement may be
// retried. Match it with errors.Is.
var ErrActiveSetReplaced = session.ErrActiveSetReplaced

// Open starts a session Engine over the set. forest may be nil for an
// evaluation-only session; otherwise it is validated against the set.
func Open(set *Set, forest *Forest, opts ...Option) (*Engine, error) {
	return session.Open(set, forest, opts...)
}

// OpenRegistry returns an empty multi-session registry. Create named
// sessions on it (the first becomes the default) and serve it with
// internal/server or use it directly.
func OpenRegistry() *Registry { return registry.New() }

// ParseStrategy resolves a strategy name ("optimal", "greedy", "brute",
// "summarize", "online" and their aliases).
func ParseStrategy(name string) (Strategy, error) { return session.ParseStrategy(name) }

// WithWorkers sets an Engine's worker-pool size (0 = GOMAXPROCS). With
// fewer scenarios than workers the pool shards each scenario's polynomial
// range instead of idling.
func WithWorkers(n int) Option { return session.WithWorkers(n) }

// WithDeltaCutoff sets the affected-term density below which an Engine
// delta-evaluates scenarios (0 = adaptive, learned from observed per-path
// timings; >0 = static fraction; negative disables the delta path).
func WithDeltaCutoff(f float64) Option { return session.WithDeltaCutoff(f) }

// WithStreamBuffer sets the capacity of Engine.Stream's output channel so a
// slow consumer does not serialize evaluation (0 = the micro-batch size,
// negative = unbuffered).
func WithStreamBuffer(n int) Option { return session.WithStreamBuffer(n) }

// WithStreamBatch caps how many pending scenarios Engine.Stream drains into
// one micro-batched evaluation (0 = the default, 64).
func WithStreamBatch(n int) Option { return session.WithStreamBatch(n) }

// WithStrategy selects the compression algorithm for Engine.Compress.
func WithStrategy(s Strategy) CompressOption { return session.WithStrategy(s) }

// WithSamplingFraction sets the online strategy's sample fraction.
func WithSamplingFraction(f float64) CompressOption { return session.WithSamplingFraction(f) }

// WithSeed sets the online strategy's sampling seed.
func WithSeed(seed int64) CompressOption { return session.WithSeed(seed) }

// WithTimeout bounds the summarize strategy's runtime (0 = unlimited).
func WithTimeout(d time.Duration) CompressOption { return session.WithTimeout(d) }

// WithBruteLimit caps the brute-force strategy's VVS enumeration.
func WithBruteLimit(n int) CompressOption { return session.WithBruteLimit(n) }

// Hypothetical reasoning (internal/hypo).
type (
	// Scenario assigns hypothetical values to variables by name.
	Scenario = hypo.Scenario
	// Answer pairs a polynomial tag with its value under a scenario.
	Answer = hypo.Answer
	// BatchOptions tunes EvalBatchOpts: worker-pool size, delta-vs-full
	// density cutoff (static, or the adaptive cost model), chained
	// evaluation, and optional evaluation counters.
	BatchOptions = hypo.BatchOptions
	// BatchCounters accumulates delta/chained/full/sharded evaluation
	// counts and carries the adaptive cost model's learned per-term
	// timings (DeltaNsPerTerm/FullNsPerTerm/AdaptiveCutoff).
	BatchCounters = hypo.BatchCounters
)

// DefaultDeltaCutoff is the affected-term density above which scenarios are
// evaluated in full rather than via the delta path while the adaptive cost
// model has no observations (and the static fallback fraction).
const DefaultDeltaCutoff = hypo.DefaultDeltaCutoff

// NewVocab returns an empty variable vocabulary.
func NewVocab() *Vocab { return provenance.NewVocab() }

// NewSet returns an empty provenance set over vb (a fresh vocabulary when
// nil).
func NewSet(vb *Vocab) *Set { return provenance.NewSet(vb) }

// Parse parses a polynomial in the paper's notation, e.g.
// "220.8·p1·m1 + 240*p1*m3", interning variables into vb.
func Parse(vb *Vocab, src string) (*Polynomial, error) { return provenance.Parse(vb, src) }

// MustParse is Parse that panics on error.
func MustParse(vb *Vocab, src string) *Polynomial { return provenance.MustParse(vb, src) }

// NewTree builds an abstraction tree from a Spec.
func NewTree(spec Spec) (*Tree, error) { return abstree.NewTree(spec) }

// ParseTree parses the compact tree format, e.g. "Year(q1(m1,m2,m3))".
func ParseTree(src string) (*Tree, error) { return abstree.ParseTree(src) }

// MustParseTree is ParseTree that panics on error.
func MustParseTree(src string) *Tree { return abstree.MustParseTree(src) }

// NewForest validates that the trees are label-disjoint and combines them.
func NewForest(trees ...*Tree) (*Forest, error) { return abstree.NewForest(trees...) }

// FromLabels builds and validates a VVS from chosen node labels.
func FromLabels(f *Forest, labels ...string) (*VVS, error) {
	return abstree.FromLabels(f, labels...)
}

// engineCompress runs one compression through a throwaway Engine — the
// shared body of the deprecated free functions.
func engineCompress(s *Set, forest *Forest, B int, opts ...CompressOption) (*Compression, error) {
	e, err := Open(s, forest)
	if err != nil {
		return nil, err
	}
	return e.Compress(B, opts...)
}

// resultOf converts a Compression back to the legacy Result shape.
func resultOf(c *Compression) *Result {
	return &Result{VVS: c.VVS, ML: c.ML, VL: c.VL, Adequate: c.Adequate}
}

// Optimal selects an optimal abstraction for a single tree and bound B on
// the number of monomials — the paper's Algorithm 1 (exact, PTIME).
//
// Deprecated: use Open and Engine.Compress(B, WithStrategy(StrategyOptimal)),
// which additionally caches the compiled form for scenario evaluation.
func Optimal(s *Set, tree *Tree, B int) (*Result, error) {
	forest, err := NewForest(tree)
	if err != nil {
		return nil, err
	}
	c, err := engineCompress(s, forest, B, WithStrategy(StrategyOptimal))
	if err != nil {
		return nil, err
	}
	return resultOf(c), nil
}

// Greedy selects an abstraction for an arbitrary forest — the paper's
// Algorithm 2 (heuristic; the multi-tree problem is NP-hard).
//
// Deprecated: use Open and Engine.Compress(B, WithStrategy(StrategyGreedy)).
func Greedy(s *Set, forest *Forest, B int) (*Result, error) {
	c, err := engineCompress(s, forest, B, WithStrategy(StrategyGreedy))
	if err != nil {
		return nil, err
	}
	return resultOf(c), nil
}

// BruteForce exhaustively selects an optimal abstraction (reference
// implementation; fails beyond limit enumerated VVS, 0 = default).
//
// Deprecated: use Open and Engine.Compress(B,
// WithStrategy(StrategyBruteForce), WithBruteLimit(limit)).
func BruteForce(s *Set, forest *Forest, B, limit int) (*Result, error) {
	c, err := engineCompress(s, forest, B, WithStrategy(StrategyBruteForce), WithBruteLimit(limit))
	if err != nil {
		return nil, err
	}
	return resultOf(c), nil
}

// Summarize runs the pairwise-merge summarization of Ainy et al. (CIKM'15),
// the paper's experimental competitor, with an optional timeout.
//
// Deprecated: use Open and Engine.Compress(B,
// WithStrategy(StrategySummarize), WithTimeout(timeout)).
func Summarize(s *Set, forest *Forest, B int, timeout time.Duration) (*summarize.Result, error) {
	c, err := engineCompress(s, forest, B, WithStrategy(StrategySummarize), WithTimeout(timeout))
	if err != nil {
		return nil, err
	}
	return c.Extra.(*summarize.Result), nil
}

// OnlineCompress runs the §6 online pipeline: choose a VVS on a sampled
// fraction of the polynomials and abstract the full set with it.
//
// Deprecated: use Open and Engine.Compress(B, WithStrategy(StrategyOnline),
// WithSamplingFraction(fraction), WithSeed(seed)).
func OnlineCompress(s *Set, forest *Forest, B int, fraction float64, seed int64) (*sampling.Result, error) {
	c, err := engineCompress(s, forest, B, WithStrategy(StrategyOnline),
		WithSamplingFraction(fraction), WithSeed(seed))
	if err != nil {
		return nil, err
	}
	return c.Extra.(*sampling.Result), nil
}

// MonomialLoss returns ML(S) = |P|_M − |P↓S|_M.
func MonomialLoss(s *Set, v *VVS) int { return core.MonomialLoss(s, v) }

// VariableLoss returns VL(S) = |P|_V − |P↓S|_V.
func VariableLoss(s *Set, v *VVS) int { return core.VariableLoss(s, v) }

// NewScenario returns an empty hypothetical scenario.
func NewScenario() *Scenario { return hypo.NewScenario() }

// Compile flattens a provenance set for fast repeated evaluation. Compile
// once, then evaluate many scenarios with EvalBatch or Scenario.EvalCompiled.
func Compile(s *Set) *Compiled { return s.Compile() }

// EvalBatch evaluates many scenarios against compiled provenance on a
// worker pool of the given size (0 = GOMAXPROCS), returning one answer
// vector per scenario in scenario order. Sparse scenarios automatically
// take the delta path; use EvalBatchOpts to tune or disable the routing.
func EvalBatch(c *Compiled, scenarios []*Scenario, workers int) ([][]float64, error) {
	return hypo.EvalBatch(c, scenarios, hypo.BatchOptions{Workers: workers})
}

// EvalBatchOpts is EvalBatch with full control over the routing: worker
// count, delta cutoff, and evaluation counters.
func EvalBatchOpts(c *Compiled, scenarios []*Scenario, opts BatchOptions) ([][]float64, error) {
	return hypo.EvalBatch(c, scenarios, opts)
}

// AnswersBatch is EvalBatch with each value paired to its polynomial's tag.
func AnswersBatch(c *Compiled, scenarios []*Scenario, workers int) ([][]Answer, error) {
	return hypo.AnswersBatch(c, scenarios, hypo.BatchOptions{Workers: workers})
}

// Encode writes a provenance set in the compact binary format.
func Encode(w io.Writer, s *Set) error { return provenance.Encode(w, s) }

// Decode reads a provenance set written by Encode.
func Decode(r io.Reader) (*Set, error) { return provenance.Decode(r) }

// EncodedSize returns the byte size Encode would produce — the
// storage/communication cost of shipping the provenance to analysts.
func EncodedSize(s *Set) int { return provenance.EncodedSize(s) }
