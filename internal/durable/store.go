package durable

// Store lays sessions out on disk and drives the recovery path:
//
//	<root>/sessions/<name>/snapshot.pvsn   last rotated snapshot
//	<root>/sessions/<name>/snapshot.tmp    in-flight rotation (crash debris)
//	<root>/sessions/<name>/wal.log         adds since the snapshot
//
// Rotation is the classic atomic-replace dance: barrier-sync the WAL,
// write snapshot.tmp, fsync it, rename over snapshot.pvsn, fsync the
// directory, then truncate the WAL. A crash at any step leaves either the
// old snapshot + full WAL or the new snapshot + a WAL whose records the
// snapshot already covers — recovery skips those by sequence number.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"provabs/internal/provenance"
	"provabs/internal/session"
)

const (
	snapshotFile    = "snapshot.pvsn"
	snapshotTmpFile = "snapshot.tmp"
	walFile         = "wal.log"

	// defaultRotateBytes / defaultRotateRecords cap WAL growth before
	// ShouldRotate suggests folding the log into a fresh snapshot.
	defaultRotateBytes   = 4 << 20
	defaultRotateRecords = 4096
)

// Options configures a Store.
type Options struct {
	// FS is the filesystem; nil means the real one (OSFS).
	FS FS
	// GroupWindow is the group-commit window: 0 fsyncs every append, a
	// positive window lets concurrent appends share one fsync.
	GroupWindow time.Duration
	// RotateBytes / RotateRecords override the ShouldRotate thresholds;
	// 0 means the default.
	RotateBytes   int64
	RotateRecords int64
	// Logf receives recovery warnings (torn tails). Nil discards them.
	Logf func(format string, args ...any)
}

// Store is the on-disk root holding every session's durable state.
type Store struct {
	root string
	fsys FS
	opts Options
}

// NewStore opens (creating if needed) a durable root directory.
func NewStore(root string, opts Options) (*Store, error) {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.RotateBytes <= 0 {
		opts.RotateBytes = defaultRotateBytes
	}
	if opts.RotateRecords <= 0 {
		opts.RotateRecords = defaultRotateRecords
	}
	s := &Store{root: root, fsys: opts.FS, opts: opts}
	if err := s.fsys.MkdirAll(s.sessionsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("durable: create store root: %w", err)
	}
	return s, nil
}

func (s *Store) sessionsDir() string    { return filepath.Join(s.root, "sessions") }
func (s *Store) dir(name string) string { return filepath.Join(s.sessionsDir(), name) }
func (s *Store) logf(f string, a ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(f, a...)
	}
}

// List returns the names of sessions with durable state on disk, in
// directory order.
func (s *Store) List() ([]string, error) {
	ents, err := s.fsys.ReadDir(s.sessionsDir())
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// Exists reports whether a session has durable state on disk.
func (s *Store) Exists(name string) bool {
	if _, err := s.fsys.Stat(filepath.Join(s.dir(name), snapshotFile)); err == nil {
		return true
	}
	if fi, err := s.fsys.Stat(filepath.Join(s.dir(name), walFile)); err == nil && fi.Size() > 0 {
		return true
	}
	return false
}

// Drop removes a session's durable state.
func (s *Store) Drop(name string) error {
	return s.fsys.RemoveAll(s.dir(name))
}

// SessionStore is one session's durable side: its open WAL plus the
// bookkeeping (sequence counter, logged vocabulary size) that keeps log
// records self-describing. Add performs the {WAL log, engine apply} pair
// under ss.mu — the same mutex WriteSnapshot captures under — so the
// logged sequence number never runs ahead of applied engine state and a
// concurrent rotation can never snapshot a sequence whose add is missing.
type SessionStore struct {
	store *Store
	name  string

	mu         sync.Mutex
	w          *wal
	seq        uint64 // last sequence number appended or covered by snapshot
	vocabCount int    // interned names already on disk (snapshot or WAL)
	closed     bool

	rotating atomic.Bool // one rotation at a time, others skip
}

// openSession opens the WAL for appending and returns the session store.
func (s *Store) openSession(name string, seq uint64, vocabCount int) (*SessionStore, error) {
	dir := s.dir(name)
	if err := s.fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, walFile)
	var size int64
	if fi, err := s.fsys.Stat(path); err == nil {
		size = fi.Size()
	}
	f, err := openWALForAppend(s.fsys, path)
	if err != nil {
		return nil, fmt.Errorf("durable: open WAL: %w", err)
	}
	if size == 0 {
		// A freshly created log's directory entry must be durable before
		// any record in it is — otherwise an acknowledged add could vanish
		// with the whole file.
		if err := s.fsys.SyncDir(dir); err != nil {
			f.Close()
			return nil, fmt.Errorf("durable: sync session dir: %w", err)
		}
	}
	return &SessionStore{
		store:      s,
		name:       name,
		w:          newWAL(f, size, 0, s.opts.GroupWindow),
		seq:        seq,
		vocabCount: vocabCount,
	}, nil
}

// Create sets up durable state for a brand-new session: directory, empty
// WAL, and an initial snapshot of the engine's current state.
func (s *Store) Create(name string, eng *session.Engine) (*SessionStore, error) {
	ss, err := s.openSession(name, 0, 0)
	if err != nil {
		return nil, err
	}
	if err := ss.WriteSnapshot(eng); err != nil {
		ss.Close()
		return nil, err
	}
	return ss, nil
}

// Add appends one add (with any vocabulary delta) to the WAL and applies
// it to the engine, both under ss.mu, so WAL order equals apply order and
// the logged sequence number never runs ahead of applied engine state —
// the invariant WriteSnapshot relies on when it records ss.seq as covered.
// It returns a wait function that resolves once the record is durable; the
// caller must only acknowledge the add after wait returns nil. On error
// nothing was applied, and the WAL is poisoned against later appends.
//
// k is the add's one-polynomial kernel (session.Engine.ParseKernel's, or
// Polynomial.Compile's): its arrays are the record's terms, in the
// kernel's key order, and Engine.AddKernel applies it.
func (ss *SessionStore) Add(eng *session.Engine, tag string, k *provenance.Compiled) (wait func() error, err error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return nil, fmt.Errorf("durable: session store %q is closed", ss.name)
	}
	seq0, vocab0 := ss.seq, ss.vocabCount
	var frames []byte
	var n int64
	if names := eng.VocabTail(ss.vocabCount); len(names) > 0 {
		ss.seq++
		frames = appendFrame(frames, appendVocabRecord(nil, ss.seq, names))
		ss.vocabCount += len(names)
		n++
	}
	ss.seq++
	frames = appendFrame(frames, appendAddRecord(nil, ss.seq, tag, k))
	n++
	wait, err = ss.w.append(frames, n)
	if err != nil {
		// Nothing applied: rewind the counters so ss.seq stays in step with
		// engine state (the failed append poisoned the WAL, so no later
		// record can land under the rewound sequence).
		ss.seq, ss.vocabCount = seq0, vocab0
		return nil, err
	}
	eng.AddKernel(tag, k)
	return wait, nil
}

// ShouldRotate reports whether the WAL has grown past the rotation
// thresholds and the session would benefit from folding it into a fresh
// snapshot.
func (ss *SessionStore) ShouldRotate() bool {
	size, records := ss.w.stats()
	return size >= ss.store.opts.RotateBytes || records >= ss.store.opts.RotateRecords
}

// WALStats reports the current WAL size in bytes and records.
func (ss *SessionStore) WALStats() (size, records int64) { return ss.w.stats() }

// RotateIfNeeded rotates when the WAL is past its thresholds. Concurrent
// callers collapse into one rotation; a failed rotation is logged and
// retried by whichever add next trips the threshold — the WAL keeps
// accepting records either way.
func (ss *SessionStore) RotateIfNeeded(eng *session.Engine) {
	if !ss.ShouldRotate() {
		return
	}
	if !ss.rotating.CompareAndSwap(false, true) {
		return
	}
	defer ss.rotating.Store(false)
	if err := ss.WriteSnapshot(eng); err != nil {
		ss.store.logf("durable: session %q rotation: %v", ss.name, err)
	}
}

// WriteSnapshot rotates: it captures the engine's state, writes a new
// snapshot atomically, and truncates the WAL. Concurrent Adds are excluded
// (ss.mu, which Add holds across its {log, apply} pair) so the captured
// state and the recorded sequence number agree.
func (ss *SessionStore) WriteSnapshot(eng *session.Engine) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return fmt.Errorf("durable: session store %q is closed", ss.name)
	}
	// Everything logged so far must be durable before the snapshot claims
	// to cover it.
	if err := ss.w.barrier(); err != nil {
		return err
	}
	fsys := ss.store.fsys
	dir := ss.store.dir(ss.name)
	tmp := filepath.Join(dir, snapshotTmpFile)
	final := filepath.Join(dir, snapshotFile)

	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: snapshot write: %w", err)
	}
	var vocabLen int
	werr := eng.WithState(func(st *session.SnapshotState) error {
		vocabLen = st.Active.Vocab.Len()
		return EncodeSnapshot(f, st, ss.seq)
	})
	hitCrashpoint("snapshot.write")
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); cerr != nil && werr == nil {
		werr = cerr
	}
	if werr != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("durable: snapshot write: %w", werr)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("durable: snapshot rename: %w", err)
	}
	hitCrashpoint("snapshot.rename")
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("durable: snapshot dir sync: %w", err)
	}
	if err := ss.w.truncate(); err != nil {
		return err
	}
	ss.vocabCount = vocabLen
	return nil
}

// Close barrier-syncs and closes the WAL. The snapshot, if any, stays.
func (ss *SessionStore) Close() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return nil
	}
	ss.closed = true
	return ss.w.close()
}

// RecoveryInfo describes what recovery did.
type RecoveryInfo struct {
	// WALRecords is the number of log records replayed on top of the
	// snapshot (after sequence-skipping).
	WALRecords int64
	// TornTail is true when the log ended in crash debris that was
	// truncated away.
	TornTail bool
}

// Recover rebuilds a session from its durable state: decode the snapshot,
// restore the engine (its kernel arrives warm, no recompile), then replay
// WAL records past the snapshot's sequence through Engine.AddKernel, each
// record's terms built into a one-polynomial kernel, which extends the
// compiled form via Kernel.Append. A torn WAL tail is
// truncated with a warning; a corrupt middle or snapshot fails recovery.
func (s *Store) Recover(name string, opts ...session.Option) (*session.Engine, *SessionStore, RecoveryInfo, error) {
	var info RecoveryInfo
	dir := s.dir(name)
	snapPath := filepath.Join(dir, snapshotFile)

	var (
		eng     *session.Engine
		snapSeq uint64
	)
	f, err := s.fsys.OpenFile(snapPath, os.O_RDONLY, 0)
	switch {
	case err == nil:
		st, seq, derr := DecodeSnapshot(f)
		f.Close()
		if derr != nil {
			return nil, nil, info, fmt.Errorf("durable: session %q snapshot: %w", name, derr)
		}
		eng, derr = session.Restore(st, opts...)
		if derr != nil {
			return nil, nil, info, fmt.Errorf("durable: session %q snapshot: %w", name, derr)
		}
		snapSeq = seq
	case errors.Is(err, fs.ErrNotExist):
		// No snapshot: the session must be rebuilt purely from the log,
		// starting from an empty set. (Create always writes an initial
		// snapshot, so this only happens if it was lost with its directory
		// entry — still recoverable when the WAL survived.)
		vb := provenance.NewVocab()
		set := provenance.NewSet(vb)
		eng, err = session.Open(set, nil, opts...)
		if err != nil {
			return nil, nil, info, fmt.Errorf("durable: session %q: %w", name, err)
		}
	default:
		return nil, nil, info, fmt.Errorf("durable: session %q snapshot: %w", name, err)
	}

	// Scan and replay the log.
	walPath := filepath.Join(dir, walFile)
	logBytes, err := readAll(s.fsys, walPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, info, fmt.Errorf("durable: session %q WAL: %w", name, err)
	}
	scan, err := scanWAL(logBytes)
	if err != nil {
		return nil, nil, info, fmt.Errorf("durable: session %q WAL: %w", name, err)
	}
	lastSeq := snapSeq
	var pb provenance.PolyBuilder
	vb := eng.Source().Vocab
	for _, rec := range scan.records {
		if rec.seq <= snapSeq {
			// Covered by the snapshot: a crash landed between rename and
			// truncate. Skipping is exactly the idempotence the sequence
			// numbers exist for.
			continue
		}
		if rec.seq != lastSeq+1 {
			return nil, nil, info, fmt.Errorf("%w: session %q WAL resumes at sequence %d after %d", ErrCorrupt, name, rec.seq, lastSeq)
		}
		lastSeq = rec.seq
		switch rec.kind {
		case recVocab:
			eng.InternVars(rec.names)
		case recAdd:
			k, err := buildKernel(&pb, rec.terms, vb)
			if err != nil {
				return nil, nil, info, fmt.Errorf("durable: session %q WAL record %d: %w", name, rec.seq, err)
			}
			eng.AddKernel(rec.tag, k)
			info.WALRecords++
		}
	}
	if scan.torn {
		info.TornTail = true
		s.logf("durable: session %q WAL: torn tail (%s) — truncating %d bytes of crash debris", name, scan.tornWhy, int64(len(logBytes))-scan.validLen)
	}

	ss, err := s.openSession(name, lastSeq, eng.VocabLen())
	if err != nil {
		return nil, nil, info, err
	}
	if scan.torn || scan.validLen < int64(len(logBytes)) {
		if err := ss.w.f.Truncate(scan.validLen); err != nil {
			ss.Close()
			return nil, nil, info, fmt.Errorf("durable: session %q WAL truncate: %w", name, err)
		}
		if err := ss.w.f.Sync(); err != nil {
			ss.Close()
			return nil, nil, info, fmt.Errorf("durable: session %q WAL sync: %w", name, err)
		}
		ss.w.size = scan.validLen
	}
	// Remove stale rotation debris, if any.
	if _, err := s.fsys.Stat(filepath.Join(dir, snapshotTmpFile)); err == nil {
		s.fsys.Remove(filepath.Join(dir, snapshotTmpFile))
	}
	return eng, ss, info, nil
}
