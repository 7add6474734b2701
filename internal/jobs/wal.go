package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"pathmark/internal/iofault"
)

// WAL is the reusable append side of a checksum-framed JSONL write-ahead
// log: one CRC32C-framed JSON object per line (see iofault.AppendFrame),
// a header line first, records fsync'd as they are appended. It is the
// storage layer under the grade and stream chunk journals, exported so
// other campaign engines (the tournament's cell journal) inherit the same
// crash-safety contract — header-first creation, torn-tail truncation before
// reopening for append, record-granularity interleaving under concurrent
// writers, and fail-stop sync semantics: after any write or sync
// failure the handle is closed and marked broken, and the next Append
// reopens the file, truncates it back to the last committed byte, and
// verifies the size before writing again. OpenWAL is the one replay
// path: each log brings only its schema, as a header check and a record
// callback.
type WAL struct {
	mu      sync.Mutex
	fs      iofault.FS
	path    string
	f       iofault.File
	sync    bool
	bytes   int64 // committed bytes: advanced only after write+sync succeed
	records int64
	broken  bool
	// failures counts failed Appends. It is bumped before the failing
	// Append releases mu, so a writer that appends after a failure (the
	// WAL reopens itself) already sees it.
	failures atomic.Int64
}

// CreateWAL starts a fresh log at path (which must not exist) whose first
// line is header, synced before the first record can be appended — a log
// on disk always identifies its owner — and then fsyncs the log's
// directory, so a crash cannot lose the new file's entry.
func CreateWAL(fs iofault.FS, path string, header any, syncEach bool) (*WAL, error) {
	if fs == nil {
		fs = iofault.OS
	}
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: create journal: %w", err)
	}
	w := &WAL{fs: fs, path: path, f: f, sync: syncEach}
	if err := w.appendLocked(header, true); err != nil {
		_ = f.Close()
		_ = fs.Remove(path)
		return nil, err
	}
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		_ = f.Close()
		_ = fs.Remove(path)
		return nil, fmt.Errorf("jobs: create journal: sync dir: %w", err)
	}
	w.records = 0 // the header is not a record
	return w, nil
}

// OpenWAL is the one open-or-replay path of every framed log. An absent
// file is created with header as its first line (see CreateWAL). An
// existing file is read and walked by replayLog — checkHeader sees the
// first line, record every verified line after it — and only when the
// walk succeeds is the file reopened for append, its torn tail (or the
// foreign record that ended the walk, and everything after it) truncated
// away first. Header and identity checks therefore run before any byte
// of an existing log is truncated or written: a refused open leaves the
// file untouched.
func OpenWAL(fs iofault.FS, path string, header any, syncEach bool,
	checkHeader func(line []byte) error, record func(line []byte) (keep bool, err error)) (*WAL, error) {
	if fs == nil {
		fs = iofault.OS
	}
	if _, err := fs.Stat(path); err != nil {
		return CreateWAL(fs, path, header, syncEach)
	}
	name := filepath.Base(path)
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("jobs: read %s: %w", name, err)
	}
	good, records, err := replayLog(data, name, checkHeader, record)
	if err != nil {
		return nil, err
	}
	return openWAL(fs, path, good, records, syncEach)
}

// replayLog walks a framed log's bytes: the first verified line goes to
// checkHeader, each later one to record, until record declines a line
// (framed but foreign: it and everything after it are discarded), a torn
// tail ends the walk, or the checksum walk proves mid-log corruption.
// good is the byte length of the accepted prefix and records the number
// of records in it. The error is non-nil when no usable header exists
// (partial records are recoverable state, a missing header is not), when
// either callback refuses, or on proven corruption — then it wraps
// *iofault.CorruptError and the caller must not resume over the file.
func replayLog(data []byte, name string,
	checkHeader func(line []byte) error, record func(line []byte) (keep bool, err error)) (good, records int64, err error) {
	s := iofault.NewLogScanner(data, name)
	line, ok := s.Next()
	if !ok {
		if cerr := s.Err(); cerr != nil {
			return 0, 0, fmt.Errorf("jobs: %s header: %w", name, cerr)
		}
		return 0, 0, fmt.Errorf("jobs: %s has no complete header line", name)
	}
	if err := checkHeader(line); err != nil {
		return 0, 0, err
	}
	good = s.Good()
	for {
		line, ok := s.Next()
		if !ok {
			if cerr := s.Err(); cerr != nil {
				return good, records, fmt.Errorf("jobs: %s records: %w", name, cerr)
			}
			return good, records, nil // torn or absent tail — done
		}
		keep, err := record(line)
		if err != nil || !keep {
			return good, records, err
		}
		good = s.Good()
		records++
	}
}

// openWAL reopens an existing log for append once its contents are
// replayed: good is the byte length of the valid prefix and records the
// number of records in it. Any bytes beyond good are truncated away
// first, so new records never concatenate onto a partial line.
func openWAL(fs iofault.FS, path string, good, records int64, syncEach bool) (*WAL, error) {
	w := &WAL{fs: fs, path: path, sync: syncEach, bytes: good, records: records, broken: true}
	if err := w.reopenLocked(); err != nil {
		return nil, err
	}
	return w, nil
}

// reopenLocked (re)establishes a verified append handle: truncate any
// bytes past the committed prefix, open for append, and confirm the file
// is exactly the committed length. Used both for the initial open and
// for recovery after a fail-stop.
func (w *WAL) reopenLocked() error {
	info, err := w.fs.Stat(w.path)
	if err != nil {
		return fmt.Errorf("jobs: reopen journal: %w", err)
	}
	if w.bytes < info.Size() {
		if err := w.fs.Truncate(w.path, w.bytes); err != nil {
			return fmt.Errorf("jobs: truncate torn journal tail: %w", err)
		}
	} else if w.bytes > info.Size() {
		return fmt.Errorf("jobs: journal %s shorter than committed prefix (%d < %d)", w.path, info.Size(), w.bytes)
	}
	f, err := w.fs.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: reopen journal: %w", err)
	}
	if info, err := w.fs.Stat(w.path); err != nil || info.Size() != w.bytes {
		_ = f.Close()
		if err != nil {
			return fmt.Errorf("jobs: verify reopened journal: %w", err)
		}
		return fmt.Errorf("jobs: reopened journal %s is %d bytes, want %d", w.path, info.Size(), w.bytes)
	}
	w.f = f
	w.broken = false
	return nil
}

// failLocked is the fail-stop transition: close and drop the handle so no
// further append can report success against a poisoned file descriptor.
// The committed counters are not advanced; the next Append reopens and
// verifies before writing.
func (w *WAL) failLocked() {
	if w.f != nil {
		_ = w.f.Close()
		w.f = nil
	}
	w.broken = true
}

// Append journals one record, fsync'ing before returning (unless the log
// was opened with sync off). Once Append returns nil, the record survives
// kill -9. On error the WAL fail-stops: the handle is closed, nothing is
// counted as committed, and the next Append transparently reopens the
// file truncated back to the committed prefix.
func (w *WAL) Append(v any) (err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer func() {
		if err != nil {
			w.failures.Add(1)
		}
	}()
	if w.broken || w.f == nil {
		if w.f == nil && !w.broken {
			return fmt.Errorf("jobs: append to closed journal %s", w.path)
		}
		if err := w.reopenLocked(); err != nil {
			return fmt.Errorf("jobs: journal %s broken: %w", w.path, err)
		}
	}
	return w.appendLocked(v, w.sync)
}

// Failures reports how many Appends have returned an error. It takes no
// lock, so a caller may poll it while another goroutine is mid-fsync.
func (w *WAL) Failures() int64 { return w.failures.Load() }

func (w *WAL) appendLocked(v any, syncNow bool) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("jobs: encode journal record: %w", err)
	}
	line := iofault.Frame(b)
	if _, err := w.f.Write(line); err != nil {
		w.failLocked()
		return fmt.Errorf("jobs: append journal record: %w", err)
	}
	if syncNow {
		if err := w.f.Sync(); err != nil {
			w.failLocked()
			return fmt.Errorf("jobs: sync journal: %w", err)
		}
	}
	w.bytes += int64(len(line))
	w.records++
	return nil
}

// Bytes and Records report the log's committed size, for the *.journal.*
// observability counters.
func (w *WAL) Bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}

func (w *WAL) Records() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
