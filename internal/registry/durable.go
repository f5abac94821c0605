package registry

// Durable registry: sessions survive process restarts. EnableDurability
// attaches a durable.Store; from then on every Create writes an initial
// snapshot, every Session.AddText is write-ahead logged before it is
// acknowledged, and on-disk sessions from a previous process appear as
// *dormant* names that recover lazily — the first Get that touches one
// replays its snapshot + WAL into a live Engine. A warm restart therefore
// pays recovery cost only for the sessions actually used, and Stats
// reports how much replaying happened (Recoveries, WALRecords).

import (
	"fmt"
	"io"
	"sort"

	"provabs/internal/durable"
	"provabs/internal/session"
)

// EnableDurability attaches a durable store rooted at root. Sessions
// already on disk become dormant: listed in Stats, recovered on first
// touch with recoverOpts as their engine options (engine tuning is
// per-process, not persisted).
func (r *Registry) EnableDurability(root string, dopts durable.Options, recoverOpts ...session.Option) error {
	store, err := durable.NewStore(root, dopts)
	if err != nil {
		return err
	}
	names, err := store.List()
	if err != nil {
		return fmt.Errorf("registry: list durable sessions: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store != nil {
		return fmt.Errorf("registry: durability already enabled")
	}
	r.store = store
	r.recoverOpts = recoverOpts
	r.dormant = make(map[string]bool)
	for _, n := range names {
		if _, live := r.sessions[n]; !live && store.Exists(n) {
			r.dormant[n] = true
		}
	}
	return nil
}

// Durable reports whether the registry persists sessions.
func (r *Registry) Durable() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.store != nil
}

// DormantNames returns the on-disk sessions not yet recovered, sorted.
func (r *Registry) DormantNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.dormant))
	for n := range r.dormant {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// recoverDormant replays a dormant session into a live one. It holds the
// registry write lock for the whole replay: recovery happens once per
// session per process (typically at the first request after a warm
// restart), and serializing it is what makes the lost-the-race recheck
// trivially correct.
func (r *Registry) recoverDormant(name string) (*Session, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sessions[name]; ok {
		return s, nil
	}
	if r.store == nil || !r.dormant[name] {
		return nil, fmt.Errorf("registry: session %q: %w", name, ErrNotFound)
	}
	eng, ss, info, err := r.store.Recover(name, r.recoverOpts...)
	if err != nil {
		return nil, fmt.Errorf("registry: recover session %q: %w", name, err)
	}
	delete(r.dormant, name)
	s := newSession(name, eng)
	s.store = ss
	r.sessions[name] = s
	r.recoveries.Add(1)
	r.walRecords.Add(info.WALRecords)
	return s, nil
}

// Adopt registers an already-open engine under name — the import path for
// sessions restored from an exported snapshot. Under durability the
// adopted session gets its own on-disk state, starting with an initial
// snapshot of the engine as imported.
func (r *Registry) Adopt(name string, eng *session.Engine) (*Session, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	if eng == nil {
		return nil, fmt.Errorf("registry: Adopt needs an engine")
	}
	return r.register(name, eng)
}

// Shutdown checkpoints every durable session (final snapshot + fsync) and
// closes the registry — the graceful half of the crash-recovery story: a
// clean exit leaves every session recoverable from its snapshot alone,
// with an empty WAL.
func (r *Registry) Shutdown() error {
	var firstErr error
	for _, s := range r.List() {
		if err := s.Checkpoint(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	r.CloseAll()
	return firstErr
}

// Durable reports whether this session's adds are persisted.
func (s *Session) Durable() bool { return s.store != nil }

// A ParseError is an AddText error that rejected the polynomial's text:
// nothing was applied or logged, and the session takes later adds. Every
// other AddText error is a persistence failure (see PersistErr).
type ParseError struct{ Err error }

func (e *ParseError) Error() string { return e.Err.Error() }
func (e *ParseError) Unwrap() error { return e.Err }

// PersistErr returns the sticky persistence failure, if any. A non-nil
// error means a WAL write or fsync failed: the session refuses further
// writes because its in-memory state can no longer be guaranteed durable.
// Only a process restart (recovering from the durable state) clears it.
func (s *Session) PersistErr() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.persistErr
}

// failPersistence records a persistence failure, closes the WAL so no
// later append can land past the hole, and returns the sticky error every
// subsequent write will see.
func (s *Session) failPersistence(err error) error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	if s.persistErr == nil {
		s.persistErr = fmt.Errorf("registry: session %q persistence failed, writes disabled until restart: %w", s.name, err)
		s.store.Close()
	}
	return s.persistErr
}

// AddText parses a polynomial in text form ("2·x·y + 3·z"), interning any
// new variables, and appends it to the session — the ingestion entry
// point for the HTTP add stream. A polynomial that does not parse yields
// a *ParseError. Without durability it is one Engine.AddText. Under
// durability the parsed kernel is write-ahead logged, applied, and fsynced
// (subject to the store's group-commit window) before AddText returns nil
// — an acknowledged add survives any subsequent crash. The store performs
// the {log, apply} pair atomically so WAL order equals apply order and a
// concurrent snapshot rotation can never cover a sequence whose add is
// missing; the fsync wait happens outside that critical section so group
// commit can batch concurrent adds.
//
// A persistence error fails the session for writes (see PersistErr): once
// the fsync wait fails, the in-memory engine holds an add that was never
// durable, and accepting more writes would silently widen the gap between
// live and recovered answers. Reads keep working; a restart recovers the
// session from its durable state (without the failed add).
func (s *Session) AddText(tag, src string) error {
	if s.store == nil {
		if err := s.eng.AddText(tag, src); err != nil {
			return &ParseError{err}
		}
		return nil
	}
	k, err := s.eng.ParseKernel(src)
	if err != nil {
		return &ParseError{err}
	}
	if err := s.PersistErr(); err != nil {
		return err
	}
	wait, err := s.store.Add(s.eng, tag, k)
	if err != nil {
		return s.failPersistence(err)
	}
	if err := wait(); err != nil {
		return s.failPersistence(err)
	}
	s.store.RotateIfNeeded(s.eng)
	return nil
}

// Checkpoint writes a fresh snapshot and truncates the WAL. A no-op
// without durability; refused after a persistence failure (the WAL can no
// longer vouch for what is durable).
func (s *Session) Checkpoint() error {
	if s.store == nil {
		return nil
	}
	if err := s.PersistErr(); err != nil {
		return err
	}
	return s.store.WriteSnapshot(s.eng)
}

// Export writes the session's state as a self-contained snapshot — the
// same format the durable store rotates on disk — usable as a backup or
// as the body of a create-from-export import. Works with or without
// durability; the engine's read lock holds the state consistent.
func (s *Session) Export(w io.Writer) error {
	return s.eng.WithState(func(st *session.SnapshotState) error {
		return durable.EncodeSnapshot(w, st, 0)
	})
}

// WALStats reports the session's WAL size in bytes and records (zeros
// without durability).
func (s *Session) WALStats() (size, records int64) {
	if s.store == nil {
		return 0, 0
	}
	return s.store.WALStats()
}
