// Package iofault is the storage seam under every durable artifact in the
// repository: an injectable filesystem interface (FS), the CRC32C
// per-record framing every JSONL log shares, and a deterministic
// fault-injecting FS for storage-chaos testing. The jobs engine, the
// tournament engine, the obs trace writer and the serve daemon all write
// through an FS value, so a test (or the `pathmark inject -class storage`
// harness) can make any write, sync, rename or read fail on a seeded
// schedule and assert the recovery contract — byte-identical resume or
// explicit quarantine, never silent divergence.
package iofault

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// File is the writable-file surface the WAL and atomic writers need.
// *os.File satisfies it.
type File interface {
	io.Writer
	io.Closer
	Name() string
	Sync() error
}

// FS abstracts the filesystem operations durable state flows through.
// The default implementation is OS; FaultFS wraps any FS with a seeded
// fault schedule.
type FS interface {
	// OpenFile mirrors os.OpenFile for append/create paths.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp mirrors os.CreateTemp; atomic publishes stage here.
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile mirrors os.ReadFile; replay and resume read through it so
	// read-side corruption (bit rot) is injectable too.
	ReadFile(name string) ([]byte, error)
	Stat(name string) (os.FileInfo, error)
	Truncate(name string, size int64) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory, making a previous rename in it durable.
	SyncDir(dir string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// WriteFileAtomic publishes data at path so readers see either the old
// content or the new, never a torn mix: temp file in the destination
// directory, write, fsync, close, rename — then fsync the parent
// directory, without which the rename itself can be lost on a crash (the
// directory entry lives in the directory's own blocks). Every atomic
// save path in the repository (job results, stream results, tournament
// matrices, serve request records, keyfiles) funnels through this
// sequence.
func WriteFileAtomic(fs FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fs.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("iofault: atomic write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		_ = tmp.Close()
		fs.Remove(tmpName)
		return fmt.Errorf("iofault: atomic write %s: %w", path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		fs.Remove(tmpName)
		return fmt.Errorf("iofault: atomic write %s: %w", path, err)
	}
	if err := fs.Rename(tmpName, path); err != nil {
		fs.Remove(tmpName)
		return fmt.Errorf("iofault: atomic write %s: %w", path, err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("iofault: atomic write %s: sync dir: %w", path, err)
	}
	return nil
}

// MkdirSynced creates dir and any missing parents, then fsyncs dir's
// parent: a new directory's entry lives in its parent's blocks, and like
// a rename it can vanish in a crash until the parent is synced. Job
// directories are made this way before anything acknowledges them.
func MkdirSynced(fs FS, dir string) error {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := fs.SyncDir(filepath.Dir(dir)); err != nil {
		return fmt.Errorf("iofault: create %s: sync dir: %w", dir, err)
	}
	return nil
}

// IsStorageFault classifies an error as disk pressure or media failure —
// the conditions the serve daemon degrades to read-only mode on, as
// opposed to corruption (see IsCorrupt) or plain logic errors. Injected
// faults count, so chaos runs exercise the same degradation paths a real
// full disk would.
func IsStorageFault(err error) bool {
	if err == nil {
		return false
	}
	var ie *InjectedError
	if errors.As(err, &ie) {
		return true
	}
	return errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, syscall.EIO) ||
		errors.Is(err, syscall.EROFS) ||
		errors.Is(err, syscall.EDQUOT)
}
