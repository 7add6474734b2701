package jobs

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"testing"

	"pathmark/internal/iofault"
)

// dirOpsFS logs the operations that make or persist directory entries:
// directory creation, file creation, renames and directory fsyncs. A SyncDir of
// failSync fails once with an injected EIO.
type dirOpsFS struct {
	iofault.FS
	mu       sync.Mutex
	ops      []string
	failSync string
}

func (r *dirOpsFS) log(op string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, op)
}

func (r *dirOpsFS) MkdirAll(path string, perm os.FileMode) error {
	r.log("mkdir:" + path)
	return r.FS.MkdirAll(path, perm)
}

func (r *dirOpsFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	if flag&os.O_CREATE != 0 {
		r.log("create:" + name)
	}
	return r.FS.OpenFile(name, flag, perm)
}

func (r *dirOpsFS) Rename(oldpath, newpath string) error {
	r.log("rename:" + newpath)
	return r.FS.Rename(oldpath, newpath)
}

func (r *dirOpsFS) SyncDir(dir string) error {
	r.log("syncdir:" + dir)
	r.mu.Lock()
	fail := dir == r.failSync
	if fail {
		r.failSync = ""
	}
	r.mu.Unlock()
	if fail {
		return &iofault.InjectedError{Op: "syncdir", Path: dir, Err: syscall.EIO}
	}
	return r.FS.SyncDir(dir)
}

// follows reports whether op b is logged after op a.
func (r *dirOpsFS) follows(a, b string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := slices.Index(r.ops, a)
	return i >= 0 && slices.Contains(r.ops[i+1:], b)
}

// openers opens a grade job and a stream job over the fixture in dir
// through fs.
func openers(t *testing.T) map[string]func(dir string, fs iofault.FS) (journal string, close func() error, err error) {
	_, keys := streamFixture(t)
	return map[string]func(string, iofault.FS) (string, func() error, error){
		"grade": func(dir string, fs iofault.FS) (string, func() error, error) {
			spec := baseSpec(t)
			spec.Opts.FS = fs
			j, err := Open(dir, spec)
			if err != nil {
				return "", nil, err
			}
			return JournalPath(dir), j.Close, nil
		},
		"stream": func(dir string, fs iofault.FS) (string, func() error, error) {
			sj, err := OpenStream(dir, StreamSpec{Keys: keys, Opts: StreamOptions{NoSync: true, FS: fs}})
			if err != nil {
				return "", nil, err
			}
			return StreamPath(dir), sj.Close, nil
		},
	}
}

// TestOpenSyncsNewEntries: opening a job makes its directory and journal
// durable before it returns. The job root is fsynced after the job
// directory is made, and the job directory after the journal is made.
func TestOpenSyncsNewEntries(t *testing.T) {
	for name, open := range openers(t) {
		root := t.TempDir()
		dir := filepath.Join(root, "job")
		rec := &dirOpsFS{FS: iofault.OS}
		journal, closeJob, err := open(dir, rec)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if err := closeJob(); err != nil {
			t.Fatal(err)
		}
		if !rec.follows("mkdir:"+dir, "syncdir:"+root) {
			t.Errorf("%s: no fsync of the job root after making the job directory: %v", name, rec.ops)
		}
		if !rec.follows("create:"+journal, "syncdir:"+dir) {
			t.Errorf("%s: no fsync of the job directory after creating the journal: %v", name, rec.ops)
		}
	}
}

// TestOpenSyncDirFaultSurfaces: a failed fsync of the job root or of the
// job directory fails the open with a storage fault, and leaves no
// journal behind.
func TestOpenSyncDirFaultSurfaces(t *testing.T) {
	for name, open := range openers(t) {
		for _, site := range []string{"root", "job"} {
			root := t.TempDir()
			dir := filepath.Join(root, "job")
			rec := &dirOpsFS{FS: iofault.OS, failSync: root}
			if site == "job" {
				rec.failSync = dir
			}
			_, closeJob, err := open(dir, rec)
			if err == nil {
				_ = closeJob()
				t.Fatalf("%s: open survived a failed fsync of the %s directory", name, site)
			}
			if !iofault.IsStorageFault(err) {
				t.Errorf("%s: failed fsync of the %s directory: %v is not a storage fault", name, site, err)
			}
			for _, p := range []string{JournalPath(dir), StreamPath(dir)} {
				if _, err := os.Stat(p); !os.IsNotExist(err) {
					t.Errorf("%s: %s left behind after a failed fsync of the %s directory", name, filepath.Base(p), site)
				}
			}
		}
	}
}

// TestQuarantineSyncsBothEnds: quarantining makes the quarantine area
// durable before moving a job into it, and after the move fsyncs both the
// job's old parent and the quarantine area. A failed fsync of either
// surfaces as a storage fault.
func TestQuarantineSyncsBothEnds(t *testing.T) {
	for _, site := range []string{"", "root", "quarantine"} {
		root := t.TempDir()
		dir := filepath.Join(root, "job")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		qdir := QuarantineDir(root)
		rec := &dirOpsFS{FS: iofault.OS}
		switch site {
		case "root":
			rec.failSync = root
		case "quarantine":
			rec.failSync = qdir
		}
		dst, err := Quarantine(rec, root, dir, errors.New("corrupt journal"))
		if site != "" {
			if !iofault.IsStorageFault(err) {
				t.Errorf("failed fsync of the %s directory: %v is not a storage fault", site, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !rec.follows("mkdir:"+qdir, "syncdir:"+root) || !rec.follows("syncdir:"+root, "rename:"+dst) {
			t.Errorf("quarantine area not made durable before the move: %v", rec.ops)
		}
		for _, d := range []string{root, qdir} {
			if !rec.follows("rename:"+dst, "syncdir:"+d) {
				t.Errorf("no fsync of %s after the move: %v", d, rec.ops)
			}
		}
	}
}
