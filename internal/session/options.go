package session

import (
	"fmt"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/core"
	"provabs/internal/provenance"
	"provabs/internal/sampling"
	"provabs/internal/summarize"
)

// Strategy names one of the five compression algorithms the Engine routes
// through the core.Compressor interface.
type Strategy string

const (
	// StrategyAuto picks OptimalVVS for a single-tree forest and GreedyVVS
	// otherwise — the paper's own recommendation per setting.
	StrategyAuto Strategy = ""
	// StrategyOptimal is Algorithm 1: exact, PTIME, single tree only.
	StrategyOptimal Strategy = "optimal"
	// StrategyGreedy is Algorithm 2: heuristic, any forest.
	StrategyGreedy Strategy = "greedy"
	// StrategyBruteForce is the exhaustive reference solver.
	StrategyBruteForce Strategy = "brute"
	// StrategySummarize is the Ainy et al. (CIKM'15) pairwise-merge
	// competitor.
	StrategySummarize Strategy = "summarize"
	// StrategyOnline is the §6 pipeline: select on a sample, apply to all.
	StrategyOnline Strategy = "online"
)

// ParseStrategy resolves a strategy name, accepting the CLI's historical
// aliases (opt, ainy, prox).
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "auto":
		return StrategyAuto, nil
	case "optimal", "opt":
		return StrategyOptimal, nil
	case "greedy":
		return StrategyGreedy, nil
	case "brute", "bruteforce":
		return StrategyBruteForce, nil
	case "summarize", "ainy", "prox":
		return StrategySummarize, nil
	case "online", "sample":
		return StrategyOnline, nil
	}
	return "", fmt.Errorf("session: unknown strategy %q (want optimal, greedy, brute, summarize or online)", name)
}

// Option configures an Engine at Open time.
type Option func(*Engine)

// WithWorkers sets the worker-pool size used by WhatIfBatch and StreamIn
// (0 or negative = GOMAXPROCS). With fewer scenarios than workers the pool
// shards each scenario's polynomial range instead of idling.
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithDeltaCutoff sets the affected-term density below which scenarios are
// delta-evaluated against the cached baseline instead of re-multiplying
// every monomial. The default 0 selects the adaptive cost model: the
// engine's counters learn the observed ns/term of the delta and full paths
// (EWMA, refreshed by periodic probing) and route each scenario by
// estimated cost, bootstrapped at hypo.DefaultDeltaCutoff until both paths
// have been observed. A positive value pins a static fraction instead;
// negative disables the delta path entirely. The model's current state is
// visible in Stats (delta_ns_per_term, full_ns_per_term, adaptive_cutoff).
func WithDeltaCutoff(f float64) Option {
	return func(e *Engine) { e.deltaCutoff = f }
}

// WithStreamBuffer sets the capacity of StreamIn's output channel, so a slow
// consumer does not serialize evaluation (0 = the micro-batch size,
// negative = unbuffered).
func WithStreamBuffer(n int) Option {
	return func(e *Engine) { e.streamBuf = n }
}

// WithStreamBatch caps how many pending scenarios StreamIn drains into one
// micro-batched evaluation (0 = the default, 64).
func WithStreamBatch(n int) Option {
	return func(e *Engine) { e.streamBatch = n }
}

// compressConfig collects the per-call tuning of Engine.Compress.
type compressConfig struct {
	strategy   Strategy
	fraction   float64       // online: sample fraction
	seed       int64         // online: sample seed
	timeout    time.Duration // summarize: cutoff (0 = unlimited)
	bruteLimit int           // brute: enumeration cap (0 = default)
}

func defaultCompressConfig() compressConfig {
	return compressConfig{strategy: StrategyAuto, fraction: 0.3, seed: 1}
}

// CompressOption tunes a single Engine.Compress call.
type CompressOption func(*compressConfig)

// WithStrategy selects the compression algorithm.
func WithStrategy(s Strategy) CompressOption {
	return func(c *compressConfig) { c.strategy = s }
}

// WithSamplingFraction sets the sample fraction of the online strategy
// (default 0.3).
func WithSamplingFraction(f float64) CompressOption {
	return func(c *compressConfig) { c.fraction = f }
}

// WithSeed sets the sampling seed of the online strategy (default 1).
func WithSeed(seed int64) CompressOption {
	return func(c *compressConfig) { c.seed = seed }
}

// WithTimeout bounds the summarize strategy's runtime (0 = unlimited).
func WithTimeout(d time.Duration) CompressOption {
	return func(c *compressConfig) { c.timeout = d }
}

// WithBruteLimit caps the brute-force strategy's VVS enumeration
// (0 = core.DefaultBruteLimit).
func WithBruteLimit(n int) CompressOption {
	return func(c *compressConfig) { c.bruteLimit = n }
}

// compressor routes the configured strategy to its core.Compressor
// implementation. treeCount resolves StrategyAuto.
func (c compressConfig) compressor(treeCount int) (core.Compressor, error) {
	strategy := c.strategy
	if strategy == StrategyAuto {
		if treeCount == 1 {
			strategy = StrategyOptimal
		} else {
			strategy = StrategyGreedy
		}
	}
	switch strategy {
	case StrategyOptimal:
		return core.OptimalCompressor(), nil
	case StrategyGreedy:
		return core.GreedyCompressor(), nil
	case StrategyBruteForce:
		return core.BruteForceCompressor(c.bruteLimit), nil
	case StrategySummarize:
		return summarizeCompressor(c.timeout), nil
	case StrategyOnline:
		return onlineCompressor(c.fraction, c.seed), nil
	}
	return nil, fmt.Errorf("session: unknown strategy %q", strategy)
}

// summarizeCompressor adapts the Ainy et al. summarization to the strategy
// interface. It is the one strategy with no VVS: its groups are arbitrary
// pairwise merges, not tree cuts, so only the substitution is carried.
func summarizeCompressor(timeout time.Duration) core.Compressor {
	return core.CompressorFunc{Label: string(StrategySummarize), Fn: func(s *provenance.Set, forest *abstree.Forest, B int) (*core.Compression, error) {
		res, err := summarize.Summarize(s, forest, B, summarize.Options{Timeout: timeout})
		if err != nil {
			return nil, err
		}
		return &core.Compression{
			Strategy:   string(StrategySummarize),
			Abstracted: res.Abstracted,
			Subst:      res.Subst,
			ML:         res.ML,
			VL:         res.VL,
			Adequate:   res.Adequate,
			Elapsed:    res.Elapsed,
			Extra:      res,
		}, nil
	}}
}

// onlineCompressor adapts the §6 sample-then-apply pipeline.
func onlineCompressor(fraction float64, seed int64) core.Compressor {
	return core.CompressorFunc{Label: string(StrategyOnline), Fn: func(s *provenance.Set, forest *abstree.Forest, B int) (*core.Compression, error) {
		start := time.Now()
		res, err := sampling.OnlineCompress(s, forest, B, sampling.Options{Fraction: fraction, Seed: seed})
		if err != nil {
			return nil, err
		}
		return &core.Compression{
			Strategy:   string(StrategyOnline),
			Abstracted: res.Abstracted,
			VVS:        res.VVS,
			Subst:      res.VVS.Subst(s.Vocab),
			ML:         s.Size() - res.Abstracted.Size(),
			VL:         s.Granularity() - res.Abstracted.Granularity(),
			Adequate:   res.FullAdequate,
			Elapsed:    time.Since(start),
			Extra:      res,
		}, nil
	}}
}
