package session

import (
	"context"

	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/semiring"
)

// defaultStreamBatch caps how many pending scenarios one micro-batched
// evaluation drains off the input channel. Large enough to amortize the
// batch machinery under load, small enough that the first answer of a burst
// is not held back noticeably.
const defaultStreamBatch = 64

// StreamResult is one streamed what-if outcome. Index is the scenario's
// arrival position, so consumers can correlate answers with requests even
// if they fan results out. A scenario that fails to resolve (e.g. assigns
// an unknown variable) yields Err without terminating the stream.
type StreamResult struct {
	Index   int
	Answers []hypo.Answer
	Err     error
}

// ValueStreamResult is StreamResult with the answers carrier-erased — the
// streamed outcome of StreamIn, whose carrier is chosen per stream.
type ValueStreamResult struct {
	Index   int
	Answers []hypo.ValueAnswer
	Err     error
}

// Stream evaluates scenarios as they arrive on in, emitting one
// StreamResult per scenario in arrival order. The returned channel closes
// when in closes or ctx is cancelled.
//
// Scenarios are not evaluated one at a time: whatever is pending on in when
// the evaluator comes around is drained into one micro-batched EvalBatch
// call (up to WithStreamBatch scenarios), so a backed-up stream gets the
// batch path's parallelism and delta routing automatically while an idle
// stream still answers each scenario as it arrives. Each micro-batch is
// evaluated as a chain: scenarios are greedily ordered by assignment
// overlap and delta-evaluated against their predecessor's answers when the
// consecutive diff is sparser than the scenario itself (Stats' ChainedEvals
// counts those), falling back to the identity baseline otherwise. The chain
// survives micro-batch boundaries — the stream carries a hypo.ChainState,
// so the first scenario of each micro-batch chains off the previous batch's
// last answers instead of paying an identity-baseline delta (an idle stream
// evaluating one scenario at a time chains every one of them). Results are
// emitted in arrival order through a channel with a small buffer
// (WithStreamBuffer), so a slow consumer does not serialize evaluation.
// Each micro-batch reuses the session's cached compiled provenance — the
// stream never recompiles unless the session is mutated between scenarios —
// and per-scenario errors are reported in-band so one malformed scenario
// does not tear down a long-lived connection.
func (e *Engine) Stream(ctx context.Context, in <-chan *hypo.Scenario) <-chan StreamResult {
	cs := &hypo.ChainState{}
	maxBatch, buf := e.streamParams()
	return streamLoop(ctx, in, maxBatch, buf,
		func(base int, scs []*hypo.Scenario) []StreamResult {
			b := e.floatBatch(base, scs, cs)
			out := make([]StreamResult, len(scs))
			for i, err := range b.errs {
				out[i] = StreamResult{Index: base + i, Err: err}
				if err == nil {
					out[i].Answers = hypo.TagAnswers(b.tags, b.rows[i])
				}
			}
			return out
		},
		cs.Release)
}

// StreamIn is Stream in the named semiring: the same micro-batched, chained,
// error-isolating loop, evaluating on the carrier's own kernel (for
// carriers without chain support — boolean, tropical, minmax — micro-batches
// evaluate unchained; see provenance.Carrier.Chainable). KindFloat streams
// on the float path with answers carrier-erased. A carrier the session's
// provenance cannot compile into (e.g. fractional coefficients under
// counting) reports the error in-band on every scenario rather than
// tearing down the stream.
func (e *Engine) StreamIn(ctx context.Context, kind semiring.Kind, in <-chan *hypo.Scenario) <-chan ValueStreamResult {
	cs := &hypo.ChainState{}
	maxBatch, buf := e.streamParams()
	eval := func(base int, scs []*hypo.Scenario) []ValueStreamResult {
		return e.evalStreamIn(kind, base, scs, cs)
	}
	if kind == semiring.KindFloat || kind == "" {
		eval = func(base int, scs []*hypo.Scenario) []ValueStreamResult {
			return e.floatBatch(base, scs, cs).erase(base)
		}
	}
	return streamLoop(ctx, in, maxBatch, buf, eval, cs.Release)
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

// streamLoop is the drain-and-evaluate loop shared by Stream and StreamIn:
// block for one scenario, drain whatever else is already pending (up to
// maxBatch), evaluate the micro-batch with eval, emit in arrival order.
// done runs when the stream ends (releasing the chain state).
func streamLoop[R any](ctx context.Context, in <-chan *hypo.Scenario, maxBatch, buf int, eval func(int, []*hypo.Scenario) []R, done func()) <-chan R {
	out := make(chan R, buf)
	go func() {
		defer close(out)
		defer done()
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
			for _, r := range eval(idx, pending) {
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

// rawBatch is one evaluated micro-batch in its kernel's own value type:
// per scenario, the raw answer vector (set order, untagged) or the in-band
// error that replaced it, plus the tags the vectors pair with. Tagging is
// left to whoever emits a row, so a ranked sweep tags only the k rows it
// returns.
type rawBatch[T any] struct {
	rows [][]T
	errs []error
	tags []string
}

// evalRawBatch answers one micro-batch on kernel k through the
// error-isolating batch path: scenarios that fail to resolve get in-band
// errors re-indexed to their arrival position (base+i), the rest are
// evaluated in one call with names resolved exactly once. It also reports
// how many scenarios were evaluated.
func evalRawBatch[T any, C provenance.Carrier[T]](k *provenance.Kernel[T, C], opts hypo.BatchOptions, base int, scs []*hypo.Scenario) (rawBatch[T], int64) {
	rows, errs := hypo.EvalBatchEach(k, scs, opts)
	evaluated := int64(len(scs))
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
	return rawBatch[T]{rows: rows, errs: errs, tags: k.Tags}, evaluated
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

// erase converts the batch to carrier-erased stream results, indexed from
// base.
func (b rawBatch[T]) erase(base int) []ValueStreamResult {
	out := make([]ValueStreamResult, len(b.errs))
	for i, err := range b.errs {
		out[i] = ValueStreamResult{Index: base + i, Err: err}
		if err == nil {
			out[i].Answers = hypo.EraseValues(b.tags, b.rows[i])
		}
	}
	return out
}

// floatBatch evaluates one micro-batch on the float kernel, raw; cs chains
// the batch onto the previous one.
func (e *Engine) floatBatch(base int, scs []*hypo.Scenario, cs *hypo.ChainState) rawBatch[float64] {
	e.mu.RLock()
	defer e.mu.RUnlock()
	opts := e.streamBatchOptions()
	opts.ChainState = cs
	b, evaluated := evalRawBatch(e.compiledLocked(), opts, base, scs)
	e.scenarios.Add(evaluated)
	e.observeStreamBatch(len(scs))
	return b
}

// evalStreamIn answers one micro-batch on a non-float carrier's kernel. A
// carrier the active set cannot compile into fails every scenario of the
// batch in-band.
func (e *Engine) evalStreamIn(kind semiring.Kind, base int, scs []*hypo.Scenario, cs *hypo.ChainState) []ValueStreamResult {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rt, err := e.runtimeLocked(kind)
	if err != nil {
		return failedBatch[float64](err, len(scs)).erase(base)
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
