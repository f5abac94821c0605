package session

import (
	"context"
	"sync/atomic"

	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/semiring"
)

// defaultStreamBatch caps how many pending scenarios one micro-batched
// evaluation drains off the input channel. Large enough to amortize the
// batch machinery under load, small enough that the first answer of a burst
// is not held back noticeably.
const defaultStreamBatch = 64

// ValueStreamResult is one streamed outcome of StreamIn. Index is the
// scenario's arrival position, so consumers can correlate answers with
// requests even if they fan results out. Row holds the answers in the
// carrier's own slice (Row.Erase boxes them). A scenario that fails to
// resolve (e.g. assigns an unknown variable) yields Err without
// terminating the stream.
type ValueStreamResult struct {
	Index int
	Row   hypo.Row
	Err   error
}

// StreamIn evaluates scenarios as they arrive on in, in the named
// semiring, emitting one ValueStreamResult per scenario in arrival order.
// The returned channel closes when in closes or ctx is cancelled.
//
// Scenarios are not evaluated one at a time: whatever is pending on in when
// the evaluator comes around is drained into one micro-batched evaluation
// (up to WithStreamBatch scenarios), so a backed-up stream gets the batch
// path's parallelism and delta routing automatically while an idle stream
// still answers each scenario as it arrives. Each micro-batch is evaluated
// as a chain, in every carrier: scenarios are greedily ordered by
// assignment overlap and delta-evaluated against their predecessor's
// answers when the consecutive diff is sparser than the scenario itself
// (the carrier's ChainedEvals counts those), falling back to the identity
// baseline otherwise. The chain survives micro-batch boundaries — the
// stream carries a hypo.ChainState, so the first scenario of each
// micro-batch chains off the previous batch's last answers instead of
// paying an identity-baseline delta (an idle stream evaluating one scenario
// at a time chains every one of them). Results are emitted in arrival order
// through a channel with a small buffer (WithStreamBuffer), so a slow
// consumer does not serialize evaluation. Each micro-batch reuses the
// carrier's cached kernel — the stream never recompiles unless the session
// is mutated between scenarios — and per-scenario errors are reported
// in-band so one malformed scenario does not tear down a long-lived
// connection. A carrier the session's provenance cannot compile into (e.g.
// fractional coefficients under counting) reports the error in-band on
// every scenario.
func (e *Engine) StreamIn(ctx context.Context, kind semiring.Kind, in <-chan *hypo.Scenario) <-chan ValueStreamResult {
	maxBatch, buf := e.streamParams()
	out := make(chan ValueStreamResult, buf)
	go func() {
		defer close(out)
		cs := &hypo.ChainState{}
		defer cs.Release()
		idx := 0
		pending := make([]*hypo.Scenario, 0, maxBatch)
		for {
			select {
			case <-ctx.Done():
				return
			case sc, ok := <-in:
				if !ok {
					return
				}
				pending = append(pending[:0], sc)
			}
			// Drain whatever else is already waiting, without blocking.
			closed := false
		drain:
			for len(pending) < maxBatch {
				select {
				case sc, ok := <-in:
					if !ok {
						closed = true
						break drain
					}
					pending = append(pending, sc)
				default:
					break drain
				}
			}
			for _, r := range e.evalStreamIn(kind, idx, pending, cs) {
				select {
				case out <- r:
				case <-ctx.Done():
					return
				}
			}
			idx += len(pending)
			if closed {
				return
			}
		}
	}()
	return out
}

// streamParams resolves the configured micro-batch cap and output-channel
// capacity.
func (e *Engine) streamParams() (maxBatch, buf int) {
	maxBatch = e.streamBatch
	if maxBatch <= 0 {
		maxBatch = defaultStreamBatch
	}
	buf = e.streamBuf
	switch {
	case buf == 0:
		buf = maxBatch
	case buf < 0:
		buf = 0
	}
	return maxBatch, buf
}

// rawBatch is one evaluated micro-batch in its kernel's own value type:
// per scenario, the raw answer vector (set order, untagged) or — on a
// ranked statement's key pass — the ORDER BY key alone, or the in-band
// error that replaced either, plus the tags and the kernel baseline the
// vectors pair with. Tagging is left to whoever emits a row, so a ranked
// sweep tags only the k rows it returns.
type rawBatch[T any] struct {
	rows [][]T
	keys []T
	errs []error
	tags []string
	base *hypo.Baseline
}

// evalTarget is one carrier runtime's kernel with the options and the
// scenario counter its evaluations accrue to. It is valid while the caller
// holds e.mu.
type evalTarget[T any, C provenance.Carrier[T]] struct {
	e         *Engine
	kernel    *provenance.Kernel[T, C]
	base      *baseSlot[T, C]
	opts      hypo.BatchOptions // chained, with the carrier's counters
	scenarios *atomic.Int64
}

// raw answers one micro-batch in full through the error-isolating chained
// batch path; cs carries the chain across micro-batches. Scenarios that
// fail to resolve get in-band errors re-indexed to their arrival position
// (base+i); the rest are evaluated in one call with names resolved
// exactly once.
func (t evalTarget[T, C]) raw(base int, scs []*hypo.Scenario, cs *hypo.ChainState) rawBatch[T] {
	opts := t.opts
	opts.ChainState = cs
	rows, errs := hypo.EvalBatchEach(t.kernel, scs, opts)
	t.account(base, errs)
	return rawBatch[T]{rows: rows, errs: errs, tags: t.kernel.Tags, base: t.base.of(t.kernel)}
}

// key answers only polynomial poly of each scenario of one micro-batch:
// the ranking pass of ORDER BY (see hypo.EvalPolyEach). Errors are
// re-indexed as in raw.
func (t evalTarget[T, C]) key(poly, base int, scs []*hypo.Scenario) rawBatch[T] {
	keys, errs := hypo.EvalPolyEach(t.kernel, poly, scs, t.opts.Counters)
	t.account(base, errs)
	return rawBatch[T]{keys: keys, errs: errs}
}

// account re-indexes a micro-batch's in-band errors from base and counts
// the scenarios it evaluated.
func (t evalTarget[T, C]) account(base int, errs []error) {
	evaluated := int64(len(errs))
	for i, err := range errs {
		switch err := err.(type) {
		case nil:
			continue
		case *hypo.UnknownVarsError:
			err.Scenario = base + i
		case *hypo.BadAssignmentError:
			err.Scenario = base + i
		}
		evaluated--
	}
	t.scenarios.Add(evaluated)
	t.e.observeStreamBatch(len(errs))
}

// failedBatch fails all n scenarios of a micro-batch with err (T is
// immaterial: no row was evaluated).
func failedBatch[T any](err error, n int) rawBatch[T] {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = err
	}
	return rawBatch[T]{errs: errs}
}

// results converts the batch to stream results indexed from base, each
// answer vector paired with the tags as a Row.
func (b rawBatch[T]) results(base int) []ValueStreamResult {
	out := make([]ValueStreamResult, len(b.errs))
	for i, err := range b.errs {
		out[i] = ValueStreamResult{Index: base + i, Err: err}
		if err == nil {
			out[i].Row = hypo.RowOf(b.tags, b.rows[i], b.base)
		}
	}
	return out
}

// evalStreamIn answers one micro-batch on kind's runtime; cs chains the
// batch onto the previous one. A carrier the active set cannot compile
// into fails every scenario of the batch in-band.
func (e *Engine) evalStreamIn(kind semiring.Kind, base int, scs []*hypo.Scenario, cs *hypo.ChainState) []ValueStreamResult {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rt, err := e.runtimeLocked(kind)
	if err != nil {
		return failedBatch[float64](err, len(scs)).results(base)
	}
	return rt.evalStreamBatch(e, base, scs, cs)
}

// observeStreamBatch folds one micro-batch into the stream accounting.
func (e *Engine) observeStreamBatch(n int) {
	e.streamBatches.Add(1)
	size := int64(n)
	for {
		cur := e.streamMaxBatch.Load()
		if size <= cur || e.streamMaxBatch.CompareAndSwap(cur, size) {
			break
		}
	}
}
