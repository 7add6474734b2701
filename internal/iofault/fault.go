package iofault

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"strings"
	"sync"
	"syscall"
)

// Op names a filesystem operation a fault can target.
type Op uint8

const (
	OpOpen Op = iota
	OpWrite
	OpSync
	OpRename
	OpRead
	OpTruncate
	OpSyncDir
)

func (o Op) String() string {
	switch o {
	case OpOpen:
		return "open"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpRead:
		return "read"
	case OpTruncate:
		return "truncate"
	case OpSyncDir:
		return "syncdir"
	default:
		return "op?"
	}
}

// Kind is the failure mode a fault injects.
type Kind uint8

const (
	// KindENOSPC fails a write with syscall.ENOSPC after consuming none of
	// the buffer.
	KindENOSPC Kind = iota
	// KindShortWrite writes half the buffer, then fails with ENOSPC — the
	// torn-record case fail-stop recovery must truncate away.
	KindShortWrite
	// KindSyncFail fails Sync (or SyncDir) with EIO: the bytes may or may
	// not be durable, so the writer must treat the handle as poisoned.
	KindSyncFail
	// KindTornRename fails a rename with EIO without renaming — the
	// destination keeps its old content, the temp file stays.
	KindTornRename
	// KindReadFlip corrupts a ReadFile result by flipping one bit,
	// deterministically in the path and length — silent media rot, the
	// case per-record checksums exist for.
	KindReadFlip
	// KindOpenFail fails OpenFile/CreateTemp with ENOSPC.
	KindOpenFail
)

func (k Kind) String() string {
	switch k {
	case KindENOSPC:
		return "enospc"
	case KindShortWrite:
		return "short-write"
	case KindSyncFail:
		return "sync-fail"
	case KindTornRename:
		return "torn-rename"
	case KindReadFlip:
		return "read-flip"
	case KindOpenFail:
		return "open-fail"
	default:
		return "kind?"
	}
}

// Fault is one scheduled injection: the After+1-th matching call to Op
// (optionally filtered to paths containing Path) fails with Kind. Each
// fault fires at most once.
type Fault struct {
	Op    Op
	Kind  Kind
	After int
	Path  string // substring filter; "" matches every path
}

func (f Fault) String() string {
	s := fmt.Sprintf("%s#%d:%s", f.Op, f.After, f.Kind)
	if f.Path != "" {
		s += "@" + f.Path
	}
	return s
}

// InjectedError marks an error as fault-injected. It wraps the errno a
// real failure of the same kind would carry (ENOSPC, EIO), so callers
// classifying with errors.Is see exactly what production would show
// them; IsStorageFault additionally recognizes the injection itself.
type InjectedError struct {
	Op   string
	Path string
	Err  error
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("iofault: injected %s failure on %s: %v", e.Op, e.Path, e.Err)
}

func (e *InjectedError) Unwrap() error { return e.Err }

// FaultFS wraps an inner FS with a deterministic fault schedule. It is
// safe for concurrent use; each scheduled fault fires exactly once, on
// the first matching call past its After count.
type FaultFS struct {
	inner FS

	mu     sync.Mutex
	faults []faultState
	fired  []Fault
	armed  bool
}

type faultState struct {
	Fault
	seen  int
	spent bool
}

// NewFaultFS builds a fault-injecting view of inner, armed immediately.
func NewFaultFS(inner FS, faults []Fault) *FaultFS {
	ffs := &FaultFS{inner: inner, armed: true}
	for _, f := range faults {
		ffs.faults = append(ffs.faults, faultState{Fault: f})
	}
	return ffs
}

// Disarm stops all further injection (recovery phases run on the real
// semantics); already-fired faults stay recorded.
func (f *FaultFS) Disarm() {
	f.mu.Lock()
	f.armed = false
	f.mu.Unlock()
}

// Fired returns the faults that actually triggered, in firing order.
func (f *FaultFS) Fired() []Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Fault(nil), f.fired...)
}

// check advances the schedule for one (op, path) call and returns the
// fault to inject, if any.
func (f *FaultFS) check(op Op, path string) *Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.armed {
		return nil
	}
	for i := range f.faults {
		st := &f.faults[i]
		if st.spent || st.Op != op {
			continue
		}
		if st.Path != "" && !strings.Contains(path, st.Path) {
			continue
		}
		st.seen++
		if st.seen > st.After {
			st.spent = true
			f.fired = append(f.fired, st.Fault)
			fault := st.Fault
			return &fault
		}
	}
	return nil
}

func injected(op Op, path string, errno error) error {
	return &InjectedError{Op: op.String(), Path: path, Err: errno}
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if ft := f.check(OpOpen, name); ft != nil {
		return nil, injected(OpOpen, name, syscall.ENOSPC)
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if ft := f.check(OpOpen, dir); ft != nil {
		return nil, injected(OpOpen, dir, syscall.ENOSPC)
	}
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	data, err := f.inner.ReadFile(name)
	if err != nil {
		return data, err
	}
	if ft := f.check(OpRead, name); ft != nil && len(data) > 0 {
		// Deterministic rot: the flipped position depends only on the path
		// and content length, so the same schedule corrupts the same byte.
		flipped := append([]byte(nil), data...)
		i := int(crc32.Checksum([]byte(name), castagnoli)+uint32(len(data))) % len(flipped)
		flipped[i] ^= 0x40
		return flipped, nil
	}
	return data, err
}

func (f *FaultFS) Stat(name string) (os.FileInfo, error) { return f.inner.Stat(name) }

func (f *FaultFS) Truncate(name string, size int64) error {
	if ft := f.check(OpTruncate, name); ft != nil {
		return injected(OpTruncate, name, syscall.EIO)
	}
	return f.inner.Truncate(name, size)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if ft := f.check(OpRename, newpath); ft != nil {
		// Torn rename: nothing moved; the destination's previous content
		// (or absence) stands and the temp file is left for cleanup.
		return injected(OpRename, newpath, syscall.EIO)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error                     { return f.inner.Remove(name) }
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error { return f.inner.MkdirAll(path, perm) }

func (f *FaultFS) SyncDir(dir string) error {
	if ft := f.check(OpSyncDir, dir); ft != nil {
		return injected(OpSyncDir, dir, syscall.EIO)
	}
	return f.inner.SyncDir(dir)
}

// faultFile threads Write and Sync back through the schedule.
type faultFile struct {
	File
	fs *FaultFS
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if ft := ff.fs.check(OpWrite, ff.Name()); ft != nil {
		switch ft.Kind {
		case KindShortWrite:
			n, _ := ff.File.Write(p[:len(p)/2])
			return n, injected(OpWrite, ff.Name(), syscall.ENOSPC)
		default:
			return 0, injected(OpWrite, ff.Name(), syscall.ENOSPC)
		}
	}
	return ff.File.Write(p)
}

func (ff *faultFile) Sync() error {
	if ft := ff.fs.check(OpSync, ff.Name()); ft != nil {
		return injected(OpSync, ff.Name(), syscall.EIO)
	}
	return ff.File.Sync()
}

// Schedule derives n faults deterministically from seed, spread over the
// write, sync, rename and read operations with small After counts — the
// randomized leg of the storage chaos harness. The same seed always
// yields the same schedule.
func Schedule(seed int64, n int) []Fault {
	rng := rand.New(rand.NewSource(seed))
	faults := make([]Fault, 0, n)
	for i := 0; i < n; i++ {
		var f Fault
		switch rng.Intn(5) {
		case 0:
			f = Fault{Op: OpWrite, Kind: KindENOSPC}
		case 1:
			f = Fault{Op: OpWrite, Kind: KindShortWrite}
		case 2:
			f = Fault{Op: OpSync, Kind: KindSyncFail}
		case 3:
			f = Fault{Op: OpRename, Kind: KindTornRename}
		case 4:
			f = Fault{Op: OpRead, Kind: KindReadFlip}
		}
		f.After = rng.Intn(8)
		faults = append(faults, f)
	}
	return faults
}
