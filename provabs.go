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
//  3. Open a session Engine over the provenance and the abstraction forest.
//  4. Compress once: pick a valid variable set (a cut in each tree) with
//     Optimal (single tree, exact, PTIME — the paper's Algorithm 1),
//     Greedy (any forest — Algorithm 2), BruteForce (reference),
//     Summarize (the Ainy et al. competitor) or Online (§6 sampling).
//  5. Ask many what-ifs: scenarios valuate (meta-)variables; on abstracted
//     provenance, group-uniform scenarios are exact and the rest are
//     approximated.
//
// # The session Engine
//
// The paper's workload is a long-lived session: compress once, then answer
// a stream of hypothetical scenarios. The Engine owns that lifecycle — the
// provenance, the abstraction forest, the chosen compression, and a lazily
// built compiled form that is cached across evaluations. A minimal round
// trip:
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
// Engine.Compress runs the five selection strategies — Optimal
// (Algorithm 1), Greedy (Algorithm 2), BruteForce, Summarize and Online —
// behind one call, returning one Compression shape (abstracted set, VVS,
// monomial and variable losses, adequacy):
//
//	eng.Compress(B, provabs.WithStrategy(provabs.StrategyOnline),
//	    provabs.WithSamplingFraction(0.25), provabs.WithSeed(7))
//
// Every evaluation then runs on the session's one cached compilation:
// Engine.WhatIf answers a scenario, Engine.WhatIfBatch evaluates many in
// parallel on the worker pool, Engine.StreamIn answers scenarios as they
// arrive on a channel, and Engine.Query runs ScenQL sweeps. Engine.Add
// and Engine.AddText append provenance to the live compilation in place
// (Compiles stays 1), and Engine.Compiled exposes that compilation for
// direct use.
//
// # Multi-session registry and the v1 server
//
// One process can host many named sessions — several provenance files or
// tenants, each with its own abstraction, cached compilation and counters —
// through a Registry:
//
//	reg := provabs.OpenRegistry()
//	telco, _ := reg.Create("telco", telcoSet, telcoForest)
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
// aggregated GET /v1/stats.
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
// the observed ns/term of each path and picks per scenario (WithDeltaCutoff
// pins a static fraction instead). When a batch has fewer scenarios than
// workers the pool shards each scenario's polynomial range
// (Compiled.EvalSharded), so one huge scenario uses every core. The Engine
// applies all of this transparently and reports
// DeltaEvals/ChainedEvals/FullEvals/ShardedEvals plus the learned cutoff in
// its Stats. Engine.Add extends the compiled form, its indexes and its
// baseline in place (Kernel.Append, in the add's own terms), so an
// Add-heavy session never recompiles.
//
// # Semiring-generic evaluation
//
// The compiled kernel is generic over the provenance semiring: the same
// flattening, inverted index, delta routing and chained streaming run on
// any commutative semiring carrier, with the float64 path bit-identical to
// the pre-generic kernel. Every evaluation entry point takes a
// SemiringKind (WhatIf and WhatIfBatch are typed float shorthands):
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
	"provabs/internal/scenql"
	"provabs/internal/semiring"
	"provabs/internal/session"
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
	// Compression is the uniform outcome of any compression strategy run
	// through the Engine: abstracted set, substitution, losses, adequacy.
	Compression = core.Compression
)

// Session engine (internal/session).
type (
	// Engine is a long-lived hypothetical-reasoning session: it owns the
	// provenance, the abstraction, and a mutation-invalidated compiled
	// cache, and answers scenario streams without re-compiling.
	Engine = session.Engine
	// EngineStats is a point-in-time snapshot of an Engine.
	EngineStats = session.Stats
	// ValueStreamResult is one streamed outcome of Engine.StreamIn: Row
	// holds the answers in the semiring's own slice ([]float64, []bool or
	// []int64) with their tags, and Row.Erase boxes them as ValueAnswers.
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
// sessions on it and serve it with internal/server or use it directly.
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

// WithStreamBuffer sets the capacity of Engine.StreamIn's output channel so a
// slow consumer does not serialize evaluation (0 = the micro-batch size,
// negative = unbuffered).
func WithStreamBuffer(n int) Option { return session.WithStreamBuffer(n) }

// WithStreamBatch caps how many pending scenarios Engine.StreamIn drains into
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
)

// NewVocab returns an empty variable vocabulary.
func NewVocab() *Vocab { return provenance.NewVocab() }

// NewSet returns an empty provenance set over vb (a fresh vocabulary when
// nil).
func NewSet(vb *Vocab) *Set { return provenance.NewSet(vb) }

// Parse parses a polynomial in the paper's notation, e.g.
// "220.8·p1·m1 + 240*p1*m3", interning variables into vb. Parsing takes
// time linear in the length of src.
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

// MonomialLoss returns ML(S) = |P|_M − |P↓S|_M.
func MonomialLoss(s *Set, v *VVS) int { return core.MonomialLoss(s, v) }

// VariableLoss returns VL(S) = |P|_V − |P↓S|_V.
func VariableLoss(s *Set, v *VVS) int { return core.VariableLoss(s, v) }

// NewScenario returns an empty hypothetical scenario.
func NewScenario() *Scenario { return hypo.NewScenario() }

// Encode writes a provenance set in the compact binary format.
func Encode(w io.Writer, s *Set) error { return provenance.Encode(w, s) }

// Decode reads a provenance set written by Encode. It reads r to its end
// before parsing: on a pipe or socket it returns only once the writer
// closes it, and whatever follows the set is consumed and ignored. A
// stream that carries more after the set must be framed by its caller.
func Decode(r io.Reader) (*Set, error) { return provenance.Decode(r) }

// EncodedSize returns the byte size Encode would produce — the
// storage/communication cost of shipping the provenance to analysts.
func EncodedSize(s *Set) int { return provenance.EncodedSize(s) }
