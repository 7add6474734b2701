package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathmark/internal/jobs"
	"pathmark/internal/obs"
)

// writeSyntheticTrace builds a small but complete trace stream — open,
// two grade ladders (one clean, one retried-then-failed), cache stats —
// for exercising the aggregator without running a real job.
func writeSyntheticTrace(t *testing.T, dir string, done bool) {
	t.Helper()
	tr, err := obs.OpenTraceFile(jobs.TracePath(dir), "feedc0de", false)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Event("job.open", map[string]int64{"suspects": 2, "keys": 1, "resumed": 0}, nil)
	tr.Event("grade.trace", map[string]int64{"s": 0, "k": 0, "trace_bits": 512}, nil)
	tr.Event("grade.scan", map[string]int64{
		"s": 0, "k": 0, "windows": 1000, "decrypted": 40, "valid": 20,
		"reject_popcount": 600, "reject_transitions": 200, "reject_phase": 100, "reject_framing": 60,
	}, nil)
	tr.Event("grade.vote", map[string]int64{"s": 0, "k": 0, "unique": 16, "voted_out": 2, "survivors": 14, "confidence_bp": 9990}, nil)
	tr.Event("grade.done", map[string]int64{"s": 0, "k": 0, "attempts": 1}, nil)
	tr.Event("grade.retry", map[string]int64{"s": 1, "k": 0, "attempt": 1}, map[string]string{"err": "transient"})
	tr.Event("grade.done", map[string]int64{"s": 1, "k": 0, "attempts": 2, "failed": 1}, map[string]string{"err": "hard"})
	if done {
		tr.Event("job.caches", map[string]int64{"trace_hits": 1, "trace_misses": 2}, nil)
		tr.Event("job.done", map[string]int64{"ran": 2, "reused": 0, "skipped": 0, "failed": 1, "breaker_trips": 0}, nil)
	}
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
}

func TestAggregateTrace(t *testing.T) {
	dir := t.TempDir()
	writeSyntheticTrace(t, dir, true)
	data, err := os.ReadFile(jobs.TracePath(dir))
	if err != nil {
		t.Fatal(err)
	}
	st := aggregateTrace(obs.DecodeTraceEvents(data))
	if st.traceID != "feedc0de" {
		t.Errorf("traceID = %q", st.traceID)
	}
	if st.total != 2 || st.grades != 2 || st.failed != 1 || st.retries != 1 || st.dones != 1 {
		t.Errorf("progress = %+v", st)
	}
	if st.windows != 1000 || st.decrypted != 40 || st.valid != 20 {
		t.Errorf("scan totals = %+v", st)
	}
	if st.rej != [4]int64{600, 200, 100, 60} {
		t.Errorf("rejects = %v", st.rej)
	}
	if st.traceHits != 1 || st.traceMisses != 2 {
		t.Errorf("caches = %+v", st)
	}
}

// TestAggregateTraceResumed: journaled grades inherited by a resumed
// lifetime re-emit nothing, so progress counts the job.open resumed attr.
func TestAggregateTraceResumed(t *testing.T) {
	st := aggregateTrace([]obs.TraceEvent{
		{Trace: "x", Event: "job.open", Attrs: map[string]int64{"suspects": 3, "keys": 2, "resumed": 4}},
		{Trace: "x", Event: "grade.done", Attrs: map[string]int64{"s": 2, "k": 1, "attempts": 1}},
	})
	if st.total != 6 || st.grades != 5 || st.resumed != 4 {
		t.Errorf("resumed progress = %+v", st)
	}
}

// TestTopRender: one render pass over a finished synthetic job — cmdTop
// must exit on its own (job.done) and print the rolled-up frame.
func TestTopRender(t *testing.T) {
	dir := t.TempDir()
	writeSyntheticTrace(t, dir, true)
	var code int
	out := captureStdout(t, func() {
		code = cmdTop([]string{"-job", dir, "-n", "1", "-interval", "10ms"})
	})
	if code != exitOK {
		t.Fatalf("cmdTop = %d, want %d", code, exitOK)
	}
	for _, want := range []string{
		"job feedc0de", "done", "grades 2/2", "1 failed", "1 retries",
		"windows 1000", "decrypted 40", "valid 20",
		"popcount 60.0%", "transitions 20.0%", "phase 10.0%", "framing 6.0%",
		"trace 33% hit (1/3)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("top output missing %q:\n%s", want, out)
		}
	}
}

// TestTopPolls: a running job (no job.done) is re-rendered until -n is
// reached, and rates appear from the second frame on.
func TestTopPolls(t *testing.T) {
	dir := t.TempDir()
	writeSyntheticTrace(t, dir, false)
	var code int
	out := captureStdout(t, func() {
		code = cmdTop([]string{"-job", dir, "-n", "2", "-interval", "10ms"})
	})
	if code != exitOK {
		t.Fatalf("cmdTop = %d, want %d", code, exitOK)
	}
	if got := strings.Count(out, "job feedc0de"); got != 2 {
		t.Errorf("rendered %d frames, want 2:\n%s", got, out)
	}
	if !strings.Contains(out, "running") {
		t.Errorf("unfinished job not reported as running:\n%s", out)
	}
	// The second frame has a real elapsed window, so the grade rate is a
	// number (0.0/s — nothing changed between polls), not the "-" blank.
	if !strings.Contains(out, "0.0/s") {
		t.Errorf("second frame carries no delta rate:\n%s", out)
	}
}

// TestTopHTTP: the -url mode reads the same stream a serve daemon
// publishes at /jobs/{id}/trace.
func TestTopHTTP(t *testing.T) {
	dir := t.TempDir()
	jobDir := filepath.Join(dir, "job")
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeSyntheticTrace(t, jobDir, true)
	ts := newTraceFileServer(t, jobDir)
	var code int
	out := captureStdout(t, func() {
		code = cmdTop([]string{"-url", ts.URL + "/trace", "-n", "1", "-interval", "10ms"})
	})
	if code != exitOK {
		t.Fatalf("cmdTop = %d, want %d", code, exitOK)
	}
	if !strings.Contains(out, "grades 2/2") {
		t.Errorf("HTTP top output wrong:\n%s", out)
	}
}

// newTraceFileServer serves a job directory's trace.jsonl at /trace,
// standing in for a serve daemon's /jobs/{id}/trace endpoint.
func newTraceFileServer(t *testing.T, jobDir string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.ServeFile(w, r, jobs.TracePath(jobDir))
	}))
	t.Cleanup(ts.Close)
	return ts
}
