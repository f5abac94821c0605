package session

import (
	"sync/atomic"

	"provabs/internal/hypo"
	"provabs/internal/provenance"
)

// baseSlot holds the hypo.Baseline that rows of one kernel carry to the
// answer encoder. It is captured on the first read of the kernel and
// replaced once Adds have doubled the kernel, so an Add-heavy session pays
// an amortized O(1) per add for it, and a session nobody reads pays
// nothing. Answers past a baseline's end are encoded in full.
type baseSlot[T any, C provenance.Carrier[T]] struct {
	p atomic.Pointer[kernelBase[T, C]]
}

// kernelBase is a Baseline with the kernel it was captured from.
type kernelBase[T any, C provenance.Carrier[T]] struct {
	kernel *provenance.Kernel[T, C]
	base   *hypo.Baseline
}

// of returns k's baseline, capturing a new one when the slot holds none
// for k or k has doubled since. Callers hold e.mu (read or write), which
// keeps Kernel.Baseline from racing an Append. Readers capturing at once
// each get a valid baseline of k; the last one stays.
func (s *baseSlot[T, C]) of(k *provenance.Kernel[T, C]) *hypo.Baseline {
	n := k.Len()
	if cur := s.p.Load(); cur != nil && cur.kernel == k {
		if had := cur.base.Row.Len(); n == had || n < 2*had {
			return cur.base
		}
	}
	kb := &kernelBase[T, C]{kernel: k, base: hypo.NewBaseline(k.Tags, k.Baseline())}
	s.p.Store(kb)
	return kb.base
}

// rowsOf pairs each raw answer vector of a batch with the kernel's tags
// and baseline.
func rowsOf[T any](tags []string, base *hypo.Baseline, vals [][]T) []hypo.Row {
	rows := make([]hypo.Row, len(vals))
	for i, v := range vals {
		rows[i] = hypo.RowOf(tags, v, base)
	}
	return rows
}
