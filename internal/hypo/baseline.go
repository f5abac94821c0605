package hypo

import "sync"

// Baseline is one kernel's identity-baseline row — the answers of the
// empty scenario, with their tags — as it stood when it was captured. A
// kernel only ever grows at the end (Add appends polynomials), so the
// Baseline stays a prefix of every later row of the same kernel; answers
// past its end have no baseline. Most scenarios change few answers, so
// rows carry their kernel's Baseline (Row.Base) and the answer encoder
// copies one memoized encoding of every answer whose bits equal the
// baseline's instead of formatting it again. The session keeps one
// Baseline per kernel beside it and drops it with the kernel.
type Baseline struct {
	Row Row

	once sync.Once
	enc  Encoding
}

// Encoding is a Baseline's answers encoded once: answer j's bytes are
// Bytes[Off[j]:Off[j+1]], and its value starts at Bytes[Val[j]].
type Encoding struct {
	Bytes []byte
	Off   []int
	Val   []int
}

// NewBaseline captures a kernel's baseline answers with its tags. Both
// slices are clipped, so later appends to the kernel's own slices never
// show through.
func NewBaseline[T any](tags []string, vals []T) *Baseline {
	n := len(vals)
	tags = tags[:min(len(tags), n):min(len(tags), n)]
	return &Baseline{Row: RowOf(tags, vals[:n:n], nil)}
}

// Encoded returns the baseline's encoding, built by encode on the first
// call; concurrent first calls share one build. One encoder owns a
// Baseline's encoding: the HTTP server's answer appender.
func (b *Baseline) Encoded(encode func(Row) Encoding) *Encoding {
	b.once.Do(func() { b.enc = encode(b.Row) })
	return &b.enc
}

// Covers is how many leading answers of r, a row of the baseline's own
// kernel, the baseline stands for with the same tags: all it holds,
// unless it was captured with fewer tags than answers and r's tags have
// grown since (Add tagging a kernel that had none), when only the tagged
// ones.
func (b *Baseline) Covers(r Row) int {
	n := min(b.Row.Len(), r.Len())
	if t := len(b.Row.Tags); t < n && len(r.Tags) > t {
		n = t
	}
	return n
}
