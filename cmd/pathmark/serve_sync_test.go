package main

import (
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"pathmark/internal/iofault"
)

// dirOpsFS logs directory creations and directory fsyncs. The SyncDir
// of failSync after skip earlier ones fails once with an injected EIO.
type dirOpsFS struct {
	iofault.FS
	mu       sync.Mutex
	ops      []string
	failSync string
	skip     int
}

func (r *dirOpsFS) MkdirAll(path string, perm os.FileMode) error {
	r.mu.Lock()
	r.ops = append(r.ops, "mkdir:"+path)
	r.mu.Unlock()
	return r.FS.MkdirAll(path, perm)
}

func (r *dirOpsFS) SyncDir(dir string) error {
	r.mu.Lock()
	r.ops = append(r.ops, "syncdir:"+dir)
	fail := dir == r.failSync && r.skip == 0
	if dir == r.failSync {
		r.skip--
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

// TestServeSubmitSyncsJobRoot: a grade submit and a stream submit each
// fsync the job root after making the job directory, before they answer
// 202. The grade job's runner is held off (every run slot taken), so
// only the submit handler can have made the fsync.
func TestServeSubmitSyncsJobRoot(t *testing.T) {
	grade, _ := serveFixture(t)
	stream, _, _ := streamServeFixture(t)
	for name, body := range map[string][]byte{"grade": grade, "stream": stream} {
		root := t.TempDir()
		rec := &dirOpsFS{FS: iofault.OS}
		srv, ts := startServer(t, serveConfig{root: root, maxActive: 1, maxJobs: 4,
			reqTimeout: time.Minute, noSync: true, fsys: rec})
		srv.sem <- struct{}{}
		st, code := submitJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit: status %d, want 202", name, code)
		}
		if dir := filepath.Join(root, st.ID); !rec.follows("mkdir:"+dir, "syncdir:"+root) {
			t.Errorf("%s: answered 202 without an fsync of the job root after making %s: %v", name, dir, rec.ops)
		}
		<-srv.sem
		ts.Close()
		srv.drain()
	}
}

// TestServeSyncDirFaultGoesReadOnly: a failed fsync at any of the
// directory-creation sites is a storage fault: the daemon turns
// read-only, and the next submit answers 503 with a retry hint. The
// sites are the job root after a submit makes the job directory (grade
// and stream), and the job directory after the journal is made (the
// stream submit's open, or the grade runner's, whose first job-directory
// fsync is request.json's).
func TestServeSyncDirFaultGoesReadOnly(t *testing.T) {
	grade, _ := serveFixture(t)
	stream, _, _ := streamServeFixture(t)
	for _, c := range []struct {
		name string
		body []byte
		site string // "root" or "job"
		skip int
		code int // the faulting submit's answer
	}{
		{"grade/root", grade, "root", 0, http.StatusInternalServerError},
		{"grade/journal", grade, "job", 1, http.StatusAccepted},
		{"stream/root", stream, "root", 0, http.StatusInternalServerError},
		{"stream/journal", stream, "job", 0, http.StatusInternalServerError},
	} {
		root := t.TempDir()
		rec := &dirOpsFS{FS: iofault.OS, failSync: root, skip: c.skip}
		srv, ts := startServer(t, serveConfig{root: root, maxActive: 1, maxJobs: 4,
			reqTimeout: time.Minute, noSync: true, fsys: rec, probeInterval: time.Hour})
		if c.site == "job" {
			// The job ID is the spec's digest; learn it from a daemon
			// under a throwaway root.
			probe, pts := startServer(t, serveConfig{root: t.TempDir(), maxActive: 1, maxJobs: 4,
				reqTimeout: time.Minute, noSync: true})
			st, _ := submitJob(t, pts, c.body)
			pts.Close()
			probe.drain()
			rec.failSync = filepath.Join(root, st.ID)
		}
		st, code := submitJob(t, ts, c.body)
		if code != c.code {
			t.Fatalf("%s: faulting submit: status %d, want %d", c.name, code, c.code)
		}
		if code == http.StatusAccepted {
			if fin := pollJob(t, ts, st.ID); fin.Status != "interrupted" {
				t.Errorf("%s: job after a failed journal directory fsync: %+v, want interrupted", c.name, fin)
			}
		}
		if !srv.readOnly.Load() {
			t.Errorf("%s: daemon stayed writable after a failed directory fsync", c.name)
		}
		resp, err := http.Post(ts.URL+"/jobs", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: submit while read-only: status %d, Retry-After %q; want 503 with a hint",
				c.name, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		ts.Close()
		srv.drain()
	}
}
