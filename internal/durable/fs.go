// Package durable persists session state: a versioned, CRC32C-checksummed
// snapshot of the compiled form plus a length-prefixed write-ahead log of
// every Add since, so a process restart replays through Kernel.Append —
// O(new terms), never a recompile — and Stats().Compiles stays 1 across
// the restart.
//
// The log/recovery discipline follows the classic WAL split: fsync on
// commit (with an optional group-commit window), recovery that tolerates
// a torn or truncated tail (stop at the first bad record, warn, truncate,
// continue) but refuses silently-corrupt middles, and snapshot rotation
// that replaces the snapshot atomically (write-new → fsync → rename →
// fsync dir → truncate log). Sequence numbers are monotonic across the
// session's whole lifetime and the snapshot records the last one it
// covers, so a crash between rename and truncate merely replays records
// the snapshot already contains — and skips them by sequence.
package durable

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// File is the slice of *os.File the durable layer needs. Writes append
// (files are opened O_APPEND); Sync makes previously written content
// durable; Truncate discards a torn tail or an obsolete log.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// FS abstracts the filesystem so the fault-injection harness
// (durable/faultfs) can substitute an in-memory one that models the page
// cache: written data is volatile until Sync, directory entries are
// volatile until SyncDir, and a simulated crash discards everything
// volatile.
type FS interface {
	// OpenFile opens path with os.OpenFile semantics. The durable layer
	// only uses O_RDONLY, and O_WRONLY|O_CREATE with optional O_APPEND and
	// O_TRUNC.
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	RemoveAll(path string) error
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(path string) ([]fs.DirEntry, error)
	Stat(path string) (fs.FileInfo, error)
	// SyncDir makes the directory's entries (creations, renames, removals)
	// durable — the fsync-the-parent step of atomic replacement.
	SyncDir(path string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}
func (OSFS) Rename(oldPath, newPath string) error         { return os.Rename(oldPath, newPath) }
func (OSFS) Remove(path string) error                     { return os.Remove(path) }
func (OSFS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OSFS) ReadDir(path string) ([]fs.DirEntry, error)   { return os.ReadDir(path) }
func (OSFS) Stat(path string) (fs.FileInfo, error)        { return os.Stat(path) }

// SyncDir fsyncs the directory itself. Filesystems that do not support
// fsync on directories (some network mounts) report EINVAL; that is
// tolerated — it is the platform's durability ceiling, not ours.
func (OSFS) SyncDir(path string) error {
	d, err := os.Open(filepath.Clean(path))
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !isSyncUnsupported(err) {
		return err
	}
	return nil
}

// isSyncUnsupported reports whether a directory fsync failed only
// because the platform does not support it.
func isSyncUnsupported(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)
}

// readAll reads a whole file through the FS.
func readAll(fsys FS, path string) ([]byte, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
