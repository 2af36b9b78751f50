package etl

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// This file is the storage seam for every durable artifact the engine
// writes — checkpoints, delta cursors, and (through internal/serve) the
// per-study generation store. All of them follow the same discipline:
// write to a temp file, fsync, close, rename into place. Routing those
// primitive operations through an interface instead of calling the os
// package directly is what makes the discipline *testable*: faulty.FS
// wraps this seam and injects short writes, torn renames, and dropped
// fsyncs on a deterministic schedule, so crash-consistency claims are
// exercised by tests rather than asserted in comments.

// FSFile is one writable file handle from an FS. It mirrors the subset of
// *os.File the atomic-write discipline needs.
type FSFile interface {
	io.Writer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Truncate changes the file's size — used by the fault injector to
	// model data that never reached the platter.
	Truncate(size int64) error
	Close() error
	// Name returns the path the file was opened under.
	Name() string
}

// FS is the filesystem capability surface for durable writers. OSFS is the
// real implementation; faulty.FS wraps any FS with injected storage faults.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	// CreateTemp creates a new temp file in dir (pattern as os.CreateTemp).
	CreateTemp(dir, pattern string) (FSFile, error)
	Rename(oldpath, newpath string) error
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]os.DirEntry, error)
	Remove(path string) error
	RemoveAll(path string) error
	Truncate(path string, size int64) error
}

// OSFS is the passthrough FS over the real filesystem.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// CreateTemp implements FS.
func (OSFS) CreateTemp(dir, pattern string) (FSFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// ReadFile implements FS.
func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// ReadDir implements FS.
func (OSFS) ReadDir(path string) ([]os.DirEntry, error) { return os.ReadDir(path) }

// Remove implements FS.
func (OSFS) Remove(path string) error { return os.Remove(path) }

// RemoveAll implements FS.
func (OSFS) RemoveAll(path string) error { return os.RemoveAll(path) }

// Truncate implements FS.
func (OSFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

// fsOrOS returns fsys, defaulting to the real filesystem.
func fsOrOS(fsys FS) FS {
	if fsys == nil {
		return OSFS{}
	}
	return fsys
}

// WriteFileAtomic durably writes data to path with the temp+fsync+rename
// discipline: after it returns nil the file is complete and durable under
// its final name; after a crash at any point the old content (or no file)
// is still intact — a half-written file can only exist under a temp name.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	fsys = fsOrOS(fsys)
	dir := filepath.Dir(path)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := fsys.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp.Name(), path)
}

// Frame wraps a payload in the checksummed framing every self-checking
// file shares — checkpoints, and a generation's MANIFEST and patch
// records: a version line, a "sha256 <hex of payload>" line, the payload.
func Frame(version string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	head := version + "\nsha256 " + hex.EncodeToString(sum[:]) + "\n"
	return append([]byte(head), payload...)
}

// Unframe checks what Frame wrote and returns the payload; what names the
// file in errors. A wrong version line, a missing checksum line and a
// payload that does not hash to its checksum — a torn or corrupted write —
// are each an error.
func Unframe(b []byte, version, what string) ([]byte, error) {
	rest, ok := bytes.CutPrefix(b, []byte(version+"\n"))
	if !ok {
		return nil, fmt.Errorf("%s has bad or missing header", what)
	}
	sumLine, payload, ok := bytes.Cut(rest, []byte("\n"))
	wantSum, ok2 := bytes.CutPrefix(sumLine, []byte("sha256 "))
	if !ok || !ok2 {
		return nil, fmt.Errorf("%s missing checksum line", what)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != string(wantSum) {
		return nil, fmt.Errorf("%s checksum mismatch (torn or corrupted write)", what)
	}
	return payload, nil
}
