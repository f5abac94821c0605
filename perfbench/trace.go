package main

import (
	"cmp"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries "<request id> <op>" from the benchmark's client
// through the gateway (which forwards end-to-end headers) to the backend,
// so every span of one request shares its ID.
const spanHeader = "X-Perfbench-Span"

// span is one timed interval at a layer boundary, in nanoseconds since the
// tracer's base time.
type span struct {
	ID     uint64        `json:"id"`
	Op     string        `json:"op"`
	Name   string        `json:"name"`
	Parent string        `json:"parent,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	base  time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) newID() uint64      { return t.next.Add(1) }
func (t *tracer) now() time.Duration { return time.Since(t.base) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap records a span named name around every request to h that carries
// the span header.
func (t *tracer) wrap(name, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		idText, op, ok := strings.Cut(r.Header.Get(spanHeader), " ")
		id, err := strconv.ParseUint(idText, 10, 64)
		if !ok || err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(span{ID: id, Op: op, Name: name, Parent: parent, Start: start, End: t.now()})
	})
}

// take returns the recorded spans and forgets them (nil when untraced).
func (t *tracer) take() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// selfTimes returns, per op, the self time of each layer for every request
// whose client span was recorded: a span's duration minus the part of it
// its child spans cover. Layers are keyed by span name.
func selfTimes(spans []span) map[string]map[string][]time.Duration {
	byID := map[uint64][]span{}
	for _, s := range spans {
		byID[s.ID] = append(byID[s.ID], s)
	}
	out := map[string]map[string][]time.Duration{}
	for _, group := range byID {
		var op string
		for _, s := range group {
			if s.Name == "client" {
				op = s.Op
			}
		}
		if op == "" {
			continue
		}
		if out[op] == nil {
			out[op] = map[string][]time.Duration{}
		}
		for _, s := range group {
			self := s.End - s.Start
			var covered []span
			for _, c := range group {
				if c.Parent == s.Name {
					covered = append(covered, c)
				}
			}
			self -= coverage(s, covered)
			out[op][s.Name] = append(out[op][s.Name], self)
		}
	}
	return out
}

// coverage is how much of parent's interval the union of children covers.
func coverage(parent span, children []span) time.Duration {
	slices.SortFunc(children, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var total time.Duration
	last := parent.Start
	for _, c := range children {
		start, end := max(c.Start, last), min(c.End, parent.End)
		if end > start {
			total += end - start
			last = end
		}
	}
	return total
}
