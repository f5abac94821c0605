// Persistence support: a stable, lock-consistent view of everything a
// session needs to survive a restart (SnapshotState / WithState), and the
// inverse operation (Restore) that reopens an Engine from such a view
// without recompiling anything — the active set's kernel arrives warm
// through provenance.RestoreSet, so Stats().Compiles still counts exactly
// one compilation across the restart.
//
// The durable layer (internal/durable) builds on these primitives; this
// package deliberately knows nothing about files, WALs or checksums.

package session

import (
	"fmt"

	"provabs/internal/abstree"
	"provabs/internal/core"
	"provabs/internal/provenance"
)

// SnapshotState is the persistable image of a session: the source and
// active provenance sets (the same set before Compress), the compression
// outcome needed to keep Add re-abstracting consistently after a restart,
// and the abstraction forest in its compact text form. Evaluation counters
// are deliberately absent — stats are per-process.
type SnapshotState struct {
	Source *provenance.Set
	Active *provenance.Set // == Source when !Compressed

	Compressed bool
	Strategy   string
	ML, VL     int
	Adequate   bool
	Subst      map[provenance.Var]provenance.Var

	// Trees holds the abstraction forest as compact tree strings
	// (abstree.Tree.String / ParseTree round-trip); empty for
	// evaluation-only sessions.
	Trees []string
}

// WithState runs f over a consistent snapshot view of the session, holding
// the engine's read lock for the duration: Add and Compress are excluded,
// evaluations proceed. f must not retain the state's sets past the call
// unless it owns all further mutation (Restore does).
func (e *Engine) WithState(f func(*SnapshotState) error) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := &SnapshotState{Source: e.set, Active: e.active}
	if e.comp != nil {
		st.Compressed = true
		st.Strategy = e.comp.Strategy
		st.ML = e.comp.ML
		st.VL = e.comp.VL
		st.Adequate = e.comp.Adequate
		st.Subst = e.comp.Subst
	}
	if e.forest != nil {
		st.Trees = make([]string, 0, len(e.forest.Trees))
		for _, t := range e.forest.Trees {
			st.Trees = append(st.Trees, t.String())
		}
	}
	return f(st)
}

// Restore reopens an Engine from a snapshot state. Unlike Open it accepts
// an already-compressed session: the active set (with its warm kernel)
// keeps answering scenarios, and the reconstructed
// substitution keeps Add abstracting new polynomials exactly as the live
// session did. No selection or compilation is re-run.
func Restore(st *SnapshotState, opts ...Option) (*Engine, error) {
	if st == nil || st.Source == nil || st.Active == nil {
		return nil, fmt.Errorf("session: Restore needs source and active sets")
	}
	if !st.Compressed && st.Active != st.Source {
		return nil, fmt.Errorf("session: uncompressed snapshot with distinct source and active sets")
	}
	var forest *abstree.Forest
	if len(st.Trees) > 0 {
		trees := make([]*abstree.Tree, 0, len(st.Trees))
		for _, src := range st.Trees {
			t, err := abstree.ParseTree(src)
			if err != nil {
				return nil, fmt.Errorf("session: snapshot forest: %w", err)
			}
			trees = append(trees, t)
		}
		f, err := abstree.NewForest(trees...)
		if err != nil {
			return nil, fmt.Errorf("session: snapshot forest: %w", err)
		}
		if err := f.CompatibleWith(st.Source); err != nil {
			return nil, fmt.Errorf("session: snapshot forest: %w", err)
		}
		forest = f
	}
	e := &Engine{set: st.Source, forest: forest, active: st.Active}
	if st.Compressed {
		e.comp = &core.Compression{
			Strategy:   st.Strategy,
			Abstracted: st.Active,
			Subst:      st.Subst,
			ML:         st.ML,
			VL:         st.VL,
			Adequate:   st.Adequate,
		}
	}
	for _, o := range opts {
		o(e)
	}
	return e, nil
}

// ParsePoly parses a polynomial in the set's text format ("2*x*y + 3"),
// interning any new variable names, under the engine's exclusive lock.
// All vocabulary writes funnel through the exclusive lock this way —
// evaluation and query paths read the vocabulary under the shared lock —
// so the Vocab itself needs no locking. This is the ingestion front door
// for wire formats that carry polynomials as text.
func (e *Engine) ParsePoly(src string) (*provenance.Polynomial, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return provenance.Parse(e.set.Vocab, src)
}

// InternVars interns names in order under the engine's exclusive lock —
// the replay-side mirror of VocabTail. Names already interned keep their
// ids (interning is idempotent), so replaying a vocab record over a
// snapshot that already contains some of its names is harmless.
func (e *Engine) InternVars(names []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, n := range names {
		e.set.Vocab.Var(n)
	}
}

// VocabLen reports the number of interned variable names.
func (e *Engine) VocabLen() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.set.Vocab.Len()
}

// VocabTail returns the variable names interned at positions [from, len),
// in interning order — what a write-ahead log records so replay re-interns
// names to identical Vars. The usual call passes the previously logged
// count and receives the handful (often zero) of new names.
func (e *Engine) VocabTail(from int) []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	vb := e.set.Vocab
	if from < 0 {
		from = 0
	}
	n := vb.Len()
	if from >= n {
		return nil
	}
	out := make([]string, 0, n-from)
	for i := from; i < n; i++ {
		out = append(out, vb.Name(provenance.Var(i+1)))
	}
	return out
}
