package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"pathmark/internal/iofault"
	"pathmark/internal/jobs"
	"pathmark/internal/obs"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
	"pathmark/internal/workloads"
)

// embedTestFleet builds a 3-copy fleet of MiniCalc in dir and returns
// the manifest and keyfile paths.
func embedTestFleet(t *testing.T, dir string) (manifest, keyfile string) {
	t.Helper()
	host, input := writeMiniCalc(t, dir)
	outdir := filepath.Join(dir, "fleet")
	keyfile = filepath.Join(outdir, "fleet.key")
	code := cmdFleetEmbed([]string{"-in", host, "-outdir", outdir, "-n", "3",
		"-wbits", "64", "-input", input, "-savekey", keyfile})
	if code != exitOK {
		t.Fatalf("fleet embed: exit %d", code)
	}
	return filepath.Join(outdir, "fleet.json"), keyfile
}

// TestFleetEmbedDigestsMatchCopies: each copy file fleet embed writes is
// the canonical text of its program, and its manifest digest is
// wm.ProgramDigest of that program.
func TestFleetEmbedDigestsMatchCopies(t *testing.T) {
	dir := t.TempDir()
	manifest, _ := embedTestFleet(t, dir)
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var man fleetManifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	for i, name := range man.Copies {
		text, err := os.ReadFile(filepath.Join(filepath.Dir(manifest), name))
		if err != nil {
			t.Fatal(err)
		}
		p, err := vm.Assemble(string(text))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if vm.Dump(p) != string(text) {
			t.Errorf("%s is not the canonical text of its program", name)
		}
		if d := wm.ProgramDigest(p); hex.EncodeToString(d[:]) != man.Digests[i] {
			t.Errorf("%s: manifest digest %s, ProgramDigest %x", name, man.Digests[i], d)
		}
	}
}

// TestManifestValidation pins the typed-error contract of loadManifest:
// content problems come back as *manifestError (the CLI maps those to
// exit code 2), well-formed v1 and v2 manifests load.
func TestManifestValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	goodDigest := strings.Repeat("ab", 32)
	cases := []struct {
		name    string
		json    string
		wantErr string // substring of the manifestError; "" = must load
	}{
		{"valid v1", `{"version":1,"copies":["a"],"watermarks":["7"]}`, ""},
		{"valid v2", `{"version":2,"copies":["a","b"],"watermarks":["7","8"],
			"customers":["acme","bcorp"],"digests":["` + goodDigest + `","` + goodDigest + `"]}`, ""},
		{"duplicate customers", `{"version":2,"copies":["a","b"],"watermarks":["7","8"],
			"customers":["acme","acme"]}`, `duplicate customer ID "acme"`},
		{"empty customer", `{"version":2,"copies":["a"],"watermarks":["7"],"customers":[""]}`, "empty ID"},
		{"customers torn", `{"version":2,"copies":["a","b"],"watermarks":["7","8"],
			"customers":["acme"]}`, "1 customers vs 2 copies"},
		{"malformed digest", `{"version":2,"copies":["a"],"watermarks":["7"],"digests":["zz"]}`, "malformed program digest"},
		{"digests torn", `{"version":2,"copies":["a"],"watermarks":["7"],
			"digests":["` + goodDigest + `","` + goodDigest + `"]}`, "2 digests vs 1 copies"},
		{"bad watermark", `{"version":1,"copies":["a"],"watermarks":["xyz"]}`, `bad watermark "xyz"`},
		{"copies torn", `{"version":1,"copies":["a","b"],"watermarks":["7"]}`, "2 copies vs 1 watermarks"},
		{"future version", `{"version":99,"copies":["a"],"watermarks":["7"]}`, "unsupported version 99"},
		{"not json", `{"version":`, "not valid JSON"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := loadManifest(write(tc.name+".json", tc.json))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want clean load, got %v", err)
				}
				return
			}
			var me *manifestError
			if !errors.As(err, &me) {
				t.Fatalf("want *manifestError, got %T: %v", err, err)
			}
			if !strings.Contains(me.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", me, tc.wantErr)
			}
		})
	}

	// Missing file: an I/O error, NOT a manifestError — it must stay a
	// hard error (exit 1), not a usage error.
	_, _, err := loadManifest(filepath.Join(dir, "nope.json"))
	var me *manifestError
	if err == nil || errors.As(err, &me) {
		t.Errorf("missing file: want plain I/O error, got %v", err)
	}
}

// TestFleetGradeManifestErrorsExitUsage drives the two content checks
// through the real command: a duplicate-customer manifest and a
// tampered copy (digest mismatch) both exit with the usage code.
func TestFleetGradeManifestErrorsExitUsage(t *testing.T) {
	dir := t.TempDir()
	manifest, keyfile := embedTestFleet(t, dir)

	// Corrupt the manifest: duplicate customer IDs.
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var man fleetManifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	man.Customers[1] = man.Customers[0]
	bad, _ := json.Marshal(man)
	dup := filepath.Join(dir, "dup.json")
	if err := os.WriteFile(dup, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	code := cmdFleetGrade([]string{"-manifest", dup, "-keyfile", keyfile,
		"-job", filepath.Join(dir, "job-dup"), "-no-sync"})
	if code != exitUsage {
		t.Errorf("duplicate customers: exit %d, want %d", code, exitUsage)
	}

	// Swap two copies on disk: each file's digest now mismatches its
	// manifest entry, so grading must refuse before attributing results.
	fleetDir := filepath.Dir(manifest)
	a := filepath.Join(fleetDir, man.Copies[0])
	b := filepath.Join(fleetDir, man.Copies[1])
	dataA, _ := os.ReadFile(a)
	dataB, _ := os.ReadFile(b)
	if err := os.WriteFile(a, dataB, 0o644); err != nil {
		t.Fatal(err)
	}
	code = cmdFleetGrade([]string{"-manifest", manifest, "-keyfile", keyfile,
		"-job", filepath.Join(dir, "job-swap"), "-no-sync"})
	if code != exitUsage {
		t.Errorf("digest mismatch: exit %d, want %d", code, exitUsage)
	}
	// Restore and confirm -no-verify would have let it through to
	// grading (it completes, possibly misattributing — caller's choice).
	if err := os.WriteFile(a, dataA, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGradeCrashHelper is not a test: it is the subprocess body for
// TestFleetGradeCrashResume, re-invoking the test binary so that the
// -crash-after os.Exit kills a real process mid-job.
func TestGradeCrashHelper(t *testing.T) {
	env := os.Getenv("PATHMARK_GRADE_ARGS")
	if env == "" {
		t.Skip("helper process for TestFleetGradeCrashResume")
	}
	os.Exit(cmdFleetGrade(strings.Split(env, "\n")))
}

// TestFleetGradeCrashResume is the CLI half of the crash-resume
// acceptance criterion: kill a grade run after 2 of 3 grades are
// journaled (a real process exit, via the subprocess helper), resume
// with the identical invocation, and require (a) the resumed run
// re-grades only the missing cell and (b) its result.json is
// byte-identical to an uninterrupted run in a fresh job directory.
func TestFleetGradeCrashResume(t *testing.T) {
	dir := t.TempDir()
	manifest, keyfile := embedTestFleet(t, dir)
	jobDir := filepath.Join(dir, "job")
	args := []string{"-manifest", manifest, "-keyfile", keyfile,
		"-job", jobDir, "-workers", "1", "-no-sync"}

	crash := exec.Command(os.Args[0], "-test.run", "^TestGradeCrashHelper$")
	crash.Env = append(os.Environ(),
		"PATHMARK_GRADE_ARGS="+strings.Join(append(args, "-crash-after", "2"), "\n"))
	out, err := crash.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("crash run: want abrupt exit, got err=%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "simulating crash") {
		t.Fatalf("crash run died for the wrong reason:\n%s", out)
	}
	if _, err := os.Stat(jobs.JournalPath(jobDir)); err != nil {
		t.Fatalf("crashed run left no journal: %v", err)
	}

	var code int
	resumed := captureStdout(t, func() { code = cmdFleetGrade(args) })
	if code != exitOK {
		t.Fatalf("resume: exit %d\n%s", code, resumed)
	}
	if !strings.Contains(resumed, "graded 1/3 (2 resumed from journal") {
		t.Errorf("resume did not reuse the journaled grades:\n%s", resumed)
	}
	for i := 0; i < 3; i++ {
		want := "customer-00" + string(rune('0'+i))
		if !strings.Contains(resumed, want) {
			t.Errorf("resume output does not identify %s:\n%s", want, resumed)
		}
	}

	freshDir := filepath.Join(dir, "job-fresh")
	freshArgs := []string{"-manifest", manifest, "-keyfile", keyfile,
		"-job", freshDir, "-workers", "1", "-no-sync"}
	fresh := captureStdout(t, func() { code = cmdFleetGrade(freshArgs) })
	if code != exitOK {
		t.Fatalf("fresh run: exit %d\n%s", code, fresh)
	}
	got, err := os.ReadFile(jobs.ResultPath(jobDir))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(jobs.ResultPath(freshDir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("crash-resumed result.json differs from an uninterrupted run")
	}
}

// serveFixture builds a tiny corpus for the daemon tests: two suspects
// (a fingerprinted MiniCalc and the clean host) against the fleet key,
// all as the wire format (pasm text + keyfile JSON).
func serveFixture(t *testing.T) (body []byte, w0 *big.Int) {
	return serveFixtureSeed(t, 4242)
}

// serveFixtureSeed varies the embedded watermark, so different seeds
// digest to different job IDs — the load test needs distinct jobs.
func serveFixtureSeed(t *testing.T, seed uint64) (body []byte, w0 *big.Int) {
	t.Helper()
	host := workloads.MiniCalc()
	input := workloads.CalcSum(10, 20)
	key, err := wm.NewKey(input, demoCipher(), 64)
	if err != nil {
		t.Fatal(err)
	}
	w0 = wm.RandomWatermark(64, seed)
	copies, err := wm.EmbedBatch(host, []*big.Int{w0}, key, wm.BatchOptions{
		EmbedOptions: wm.EmbedOptions{Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	var keyDoc bytes.Buffer
	if err := wm.SaveKey(&keyDoc, key); err != nil {
		t.Fatal(err)
	}
	req := serveRequest{
		Suspects: []string{vm.Dump(copies[0].Program), vm.Dump(host)},
		Keys:     []string{keyDoc.String()},
		Options:  serveRequestOptions{Workers: 1},
	}
	return mustJSON(t, req), w0
}

// startServer builds a daemon over cfg and serves it on a test listener.
func startServer(t *testing.T, cfg serveConfig) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, httptest.NewServer(srv.handler())
}

// submitJob POSTs a job request and decodes the status it answers with.
func submitJob(t *testing.T, ts *httptest.Server, body []byte) (jobStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	return st, resp.StatusCode
}

// getBody GETs url and returns the response body and status code.
func getBody(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	body, _ := getBody(t, ts.URL+"/jobs/"+id)
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func pollJob(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, ts, id)
		switch st.Status {
		case "done", "failed", "interrupted":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, st.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeLifecycle drives the daemon's whole HTTP surface in-process:
// health probes, submit, idempotent resubmit, status polling, result
// fetch, bad input handling, and readiness flipping off on drain.
func TestServeLifecycle(t *testing.T) {
	root := t.TempDir()
	srv, ts := startServer(t, serveConfig{root: root, maxActive: 2, maxJobs: 4,
		reqTimeout: time.Minute, noSync: true})
	defer ts.Close()

	for _, probe := range []string{"/healthz", "/readyz"} {
		if _, code := getBody(t, ts.URL+probe); code != http.StatusOK {
			t.Errorf("%s: %d, want 200", probe, code)
		}
	}

	body, w0 := serveFixture(t)
	st, code := submitJob(t, ts, body)
	if code != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: status %d, body %+v", code, st)
	}
	if st.Total != 2 {
		t.Errorf("submit: total %d, want 2", st.Total)
	}

	// Idempotent resubmit: same corpus digests to the same job.
	if st2, code := submitJob(t, ts, body); code != http.StatusOK || st2.ID != st.ID {
		t.Errorf("resubmit: status %d id %s, want 200 and id %s", code, st2.ID, st.ID)
	}

	final := pollJob(t, ts, st.ID)
	if final.Status != "done" || final.Completed != 2 {
		t.Fatalf("job finished as %+v, want done with 2/2", final)
	}

	got, code := getBody(t, ts.URL+"/jobs/"+st.ID+"/result")
	resultBytes, _ := os.ReadFile(jobs.ResultPath(filepath.Join(root, st.ID)))
	if code != http.StatusOK || !bytes.Equal(got, resultBytes) {
		t.Fatalf("result fetch: status %d, %d bytes (disk has %d)", code, len(got), len(resultBytes))
	}
	var manifest struct {
		Grades []struct {
			S   int `json:"s"`
			Rec *struct {
				Watermark string `json:"watermark"`
			} `json:"rec"`
		} `json:"grades"`
	}
	if err := json.Unmarshal(got, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Grades) != 2 || manifest.Grades[0].Rec == nil ||
		manifest.Grades[0].Rec.Watermark != w0.String() {
		t.Errorf("result manifest did not recover the fingerprint: %+v", manifest)
	}
	if manifest.Grades[1].Rec != nil && manifest.Grades[1].Rec.Watermark == w0.String() {
		t.Error("clean host matched the fingerprint")
	}

	// Error surface: garbage body, unknown job, result of unknown job.
	if _, code := submitJob(t, ts, []byte("{not json")); code != http.StatusBadRequest {
		t.Errorf("garbage submit: %d, want 400", code)
	}
	if _, code := getBody(t, ts.URL+"/jobs/deadbeef"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", code)
	}

	// Drain: readiness flips, submissions are refused, existing results
	// stay fetchable until shutdown completes.
	srv.drain()
	if _, code := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", code)
	}
	if _, code := submitJob(t, ts, body); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d, want 503", code)
	}
}

// TestServeRestartResume restarts the daemon over an existing job root:
// finished jobs stay fetchable, and a job whose result was lost (here:
// deleted, the same state as a crash between journal and manifest)
// is picked up from its persisted request.json and journal and runs to
// the identical result.
func TestServeRestartResume(t *testing.T) {
	root := t.TempDir()
	srv, ts := startServer(t, serveConfig{root: root, maxActive: 1, maxJobs: 4,
		reqTimeout: time.Minute, noSync: true})
	body, _ := serveFixture(t)
	st, _ := submitJob(t, ts, body)
	if pollJob(t, ts, st.ID).Status != "done" {
		t.Fatal("seed job did not finish")
	}
	firstResult, err := os.ReadFile(jobs.ResultPath(filepath.Join(root, st.ID)))
	if err != nil {
		t.Fatal(err)
	}
	srv.drain()
	ts.Close()

	// Restart 1: the finished job is registered from disk.
	srv2, ts2 := startServer(t, serveConfig{root: root, maxActive: 1, maxJobs: 4,
		reqTimeout: time.Minute, noSync: true})
	if kept, code := getBody(t, ts2.URL+"/jobs/"+st.ID+"/result"); code != http.StatusOK || !bytes.Equal(kept, firstResult) {
		t.Fatalf("restarted daemon lost the finished result: status %d", code)
	}
	srv2.drain()
	ts2.Close()

	// Restart 2: drop the result manifest — the journal still holds every
	// grade, so startup resume must rebuild an identical result without
	// re-grading (the journal is complete).
	if err := os.Remove(jobs.ResultPath(filepath.Join(root, st.ID))); err != nil {
		t.Fatal(err)
	}
	srv3, ts3 := startServer(t, serveConfig{root: root, maxActive: 1, maxJobs: 4,
		reqTimeout: time.Minute, noSync: true})
	defer ts3.Close()
	defer srv3.drain()
	if st3 := pollJob(t, ts3, st.ID); st3.Status != "done" {
		t.Fatalf("resumed job finished as %+v", st3)
	}
	rebuilt, err := os.ReadFile(jobs.ResultPath(filepath.Join(root, st.ID)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt, firstResult) {
		t.Error("result rebuilt after restart differs from the original")
	}
}

// TestServeMetricsAndTrace is the end-to-end telemetry test: a job
// submitted over HTTP leaves a trace stream retrievable at
// /jobs/{id}/trace under the job's own trace ID (stitched to the HTTP
// request that submitted it), the enriched status carries the scan
// aggregates, and /metrics exposes a parseable Prometheus page with the
// scan-layer reject counters on it.
func TestServeMetricsAndTrace(t *testing.T) {
	root := t.TempDir()
	srv, ts := startServer(t, serveConfig{root: root, maxActive: 2, maxJobs: 4,
		reqTimeout: time.Minute, noSync: true})
	defer ts.Close()
	defer srv.drain()

	body, _ := serveFixture(t)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Error("submit response has no X-Trace-Id header")
	}
	var st jobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if st.TraceID != st.ID {
		t.Errorf("trace_id %q != job id %q", st.TraceID, st.ID)
	}

	final := pollJob(t, ts, st.ID)
	if final.Status != "done" {
		t.Fatalf("job finished as %+v", final)
	}
	// The enriched status: scan volume and the per-layer reject breakdown
	// observed by this daemon process.
	if final.Windows == 0 || final.Decrypted == 0 {
		t.Errorf("status has no scan aggregates: %+v", final)
	}
	if final.RejectedByLayer["popcount"] == 0 {
		t.Errorf("status has no reject breakdown: %+v", final)
	}

	// The trace stream: one ID (the job's), the full stage ladder, and
	// the job.submitted event linking back to an HTTP request trace.
	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("trace Content-Type = %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	evs := obs.DecodeTraceEvents(raw)
	byEvent := map[string]int{}
	for _, ev := range evs {
		if ev.Trace != st.ID {
			t.Fatalf("trace event %q under ID %q, want %q", ev.Event, ev.Trace, st.ID)
		}
		byEvent[ev.Event]++
	}
	for _, stage := range []string{"job.open", "grade.trace", "grade.scan", "grade.vote", "grade.done", "job.done"} {
		if byEvent[stage] == 0 {
			t.Errorf("trace stream missing %s (have %v)", stage, byEvent)
		}
	}
	linked := false
	for _, ev := range evs {
		if ev.Event == "job.submitted" && ev.Labels["http_trace"] != "" {
			linked = true
		}
	}
	if !linked {
		t.Error("no job.submitted event links the job to its HTTP request trace")
	}

	// /metrics: machine-parseable, and the scan-layer reject counters are
	// on the page (the acceptance criterion for the exposition format).
	page, _ := getBody(t, ts.URL+"/metrics")
	samples, err := obs.ParsePrometheus(page)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, page)
	}
	for _, name := range []string{
		"pathmark_scan_reject_popcount", "pathmark_scan_reject_transitions",
		"pathmark_scan_reject_phase", "pathmark_scan_reject_framing",
		"pathmark_serve_jobs_submitted", "pathmark_http_requests",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if samples["pathmark_scan_reject_popcount"] == 0 {
		t.Error("scan reject counter never incremented")
	}
	if samples["pathmark_http_requests"] == 0 {
		t.Error("http request counter never incremented")
	}
}

// TestServeTraceAcrossRestart is the acceptance criterion for trace
// continuity: a job graded across two daemon process lifetimes keeps ONE
// trace ID, with both lifetimes' job.open events appended to the same
// stream and every grade stage present.
func TestServeTraceAcrossRestart(t *testing.T) {
	root := t.TempDir()
	srv, ts := startServer(t, serveConfig{root: root, maxActive: 1, maxJobs: 4,
		reqTimeout: time.Minute, noSync: true})
	body, _ := serveFixture(t)
	st, _ := submitJob(t, ts, body)
	if pollJob(t, ts, st.ID).Status != "done" {
		t.Fatal("seed job did not finish")
	}
	srv.drain()
	ts.Close()

	// Kill the result manifest — the same on-disk state as a daemon crash
	// between the last journal append and the manifest write — and
	// restart. Resume re-opens the job, which must append to the existing
	// trace stream under the existing ID.
	if err := os.Remove(jobs.ResultPath(filepath.Join(root, st.ID))); err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := startServer(t, serveConfig{root: root, maxActive: 1, maxJobs: 4,
		reqTimeout: time.Minute, noSync: true})
	defer ts2.Close()
	defer srv2.drain()
	if st2 := pollJob(t, ts2, st.ID); st2.Status != "done" {
		t.Fatalf("resumed job finished as %+v", st2)
	}

	raw, _ := getBody(t, ts2.URL+"/jobs/"+st.ID+"/trace")
	evs := obs.DecodeTraceEvents(raw)
	ids := map[string]bool{}
	byEvent := map[string]int{}
	var resumedOpen int64 = -1
	for _, ev := range evs {
		ids[ev.Trace] = true
		byEvent[ev.Event]++
		if ev.Event == "job.open" && ev.Attrs["resumed"] > 0 {
			resumedOpen = ev.Attrs["resumed"]
		}
	}
	if len(ids) != 1 || !ids[st.ID] {
		t.Errorf("trace IDs across lifetimes = %v, want exactly {%s}", ids, st.ID)
	}
	if byEvent["job.open"] < 2 {
		t.Errorf("job.open events = %d, want one per process lifetime (>= 2)", byEvent["job.open"])
	}
	for _, stage := range []string{"grade.trace", "grade.scan", "grade.vote", "grade.done", "job.done"} {
		if byEvent[stage] == 0 {
			t.Errorf("stream missing stage %s across lifetimes (have %v)", stage, byEvent)
		}
	}
	if resumedOpen != int64(st.Total) {
		t.Errorf("resumed lifetime's job.open inherited %d grades, want %d", resumedOpen, st.Total)
	}
}

// TestServeConcurrentLoad races parallel submissions against a graceful
// drain: every job the daemon accepted must settle as done (durable
// journal + result) or interrupted (persisted request, resumable), never
// lost or stuck — and /readyz flips to 503 while the listener is still
// serving. CI runs this under -race.
func TestServeConcurrentLoad(t *testing.T) {
	root := t.TempDir()
	srv, ts := startServer(t, serveConfig{root: root, maxActive: 1, maxJobs: 16,
		reqTimeout: time.Minute, noSync: true})
	defer ts.Close()

	const n = 6
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i], _ = serveFixtureSeed(t, uint64(1000+i))
	}
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(bodies[i]))
			if err != nil {
				t.Error(err)
				return
			}
			var st jobStatus
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("submit %d: status %d", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()

	// Drain while the single-slot semaphore still has most jobs queued:
	// some finish, the rest must checkpoint as interrupted.
	srv.drain()

	// Readiness is off but the listener is still alive and answering.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("listener died before drain finished: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain: %d, want 503", resp.StatusCode)
	}

	done, interrupted := 0, 0
	for i, id := range ids {
		if id == "" {
			t.Fatalf("job %d was never accepted", i)
		}
		st := getStatus(t, ts, id)
		dir := filepath.Join(root, id)
		if _, err := os.Stat(filepath.Join(dir, "request.json")); err != nil {
			t.Errorf("job %s: request.json not durable: %v", id, err)
		}
		switch st.Status {
		case "done":
			done++
			if st.Completed != int64(st.Total) {
				t.Errorf("job %s done with %d/%d", id, st.Completed, st.Total)
			}
			for _, f := range []string{jobs.JournalPath(dir), jobs.ResultPath(dir)} {
				if _, err := os.Stat(f); err != nil {
					t.Errorf("done job %s missing %s: %v", id, filepath.Base(f), err)
				}
			}
		case "interrupted":
			interrupted++
		default:
			t.Errorf("job %s settled as %q, want done or interrupted", id, st.Status)
		}
	}
	t.Logf("load: %d done, %d interrupted of %d", done, interrupted, n)
	if done+interrupted != n {
		t.Errorf("jobs lost: done=%d interrupted=%d of %d", done, interrupted, n)
	}
}

// streamServeFixture builds a stream-job submission: the decoded trace
// bit-string of one fingerprinted MiniCalc plus the request body naming
// only the key — the trace travels later, in chunks.
func streamServeFixture(t *testing.T) (body []byte, bits string, w0 *big.Int) {
	t.Helper()
	host := workloads.MiniCalc()
	input := workloads.CalcSum(10, 20)
	key, err := wm.NewKey(input, demoCipher(), 64)
	if err != nil {
		t.Fatal(err)
	}
	w0 = wm.RandomWatermark(64, 777)
	copies, err := wm.EmbedBatch(host, []*big.Int{w0}, key, wm.BatchOptions{
		EmbedOptions: wm.EmbedOptions{Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := vm.CollectWith(copies[0].Program, vm.RunOptions{
		Input: input, SnapshotLimit: 1, StepLimit: 100_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var keyDoc bytes.Buffer
	if err := wm.SaveKey(&keyDoc, key); err != nil {
		t.Fatal(err)
	}
	req := serveRequest{
		Keys:   []string{keyDoc.String()},
		Stream: true,
		// A tight probe cadence so the recognizer settles mid-upload — the
		// lifecycle test asserts the early verdict latched before the final
		// chunk arrived.
		Options: serveRequestOptions{Workers: 1, CheckEvery: 1024},
	}
	return mustJSON(t, req), tr.DecodeBits().String(), w0
}

// uploadBits posts bits[from+lo, from+hi) to stream job id for each cut
// [lo, hi), requiring each chunk to commit through its end.
func uploadBits(t *testing.T, ts *httptest.Server, id, bits string, from int, cuts [][2]int) {
	t.Helper()
	for _, c := range cuts {
		lo, hi := from+c[0], from+c[1]
		if cs, code := postChunk(t, ts, id, streamChunkRequest{Offset: int64(lo), Bits: bits[lo:hi]}); code != http.StatusOK || cs.Committed != int64(hi) {
			t.Fatalf("chunk [%d, %d): status %d, committed %d", lo, hi, code, cs.Committed)
		}
	}
}

// evenChunks cuts [0, n) into chunks of size (the last one shorter).
func evenChunks(n, size int) [][2]int {
	var cuts [][2]int
	for lo := 0; lo < n; lo += size {
		cuts = append(cuts, [2]int{lo, min(lo+size, n)})
	}
	return cuts
}

// postChunk uploads one chunk and decodes the response.
func postChunk(t *testing.T, ts *httptest.Server, id string, chunk streamChunkRequest) (jobStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs/"+id+"/stream", "application/json", bytes.NewReader(mustJSON(t, chunk)))
	if err != nil {
		t.Fatal(err)
	}
	var st jobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	return st, resp.StatusCode
}

// TestServeStreamLifecycle drives a stream job end to end over HTTP:
// submit, chunked upload with committed offsets, a refused gap chunk,
// the finishing chunk, and a result manifest carrying the fingerprint.
func TestServeStreamLifecycle(t *testing.T) {
	root := t.TempDir()
	srv, ts := startServer(t, serveConfig{root: root, maxActive: 2, maxJobs: 4,
		reqTimeout: time.Minute, noSync: true})
	defer ts.Close()
	defer srv.drain()

	body, bits, w0 := streamServeFixture(t)
	st, code := submitJob(t, ts, body)
	if code != http.StatusAccepted || st.ID == "" || !st.Stream || st.Status != "streaming" {
		t.Fatalf("stream submit: status %d, body %+v", code, st)
	}

	// Idempotent resubmit: the key set digests to the same job.
	if st2, code := submitJob(t, ts, body); code != http.StatusOK || st2.ID != st.ID {
		t.Errorf("stream resubmit: status %d id %s, want 200 and id %s", code, st2.ID, st.ID)
	}

	uploadBits(t, ts, st.ID, bits, 0, evenChunks(len(bits), 512))

	// A chunk past the committed offset is refused with the resume point.
	var gap struct {
		Error     string `json:"error"`
		Committed int64  `json:"committed"`
	}
	gb, _ := json.Marshal(streamChunkRequest{Offset: int64(len(bits) + 100), Bits: "0101"})
	gresp, err := http.Post(ts.URL+"/jobs/"+st.ID+"/stream", "application/json", bytes.NewReader(gb))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(gresp.Body).Decode(&gap)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusConflict || gap.Committed != int64(len(bits)) {
		t.Fatalf("gap chunk: status %d, body %+v", gresp.StatusCode, gap)
	}

	// The early verdict latched during the upload, before the stream was
	// sealed: a live uploader learns the answer without waiting for EOF.
	if mid := getStatus(t, ts, st.ID); mid.Status != "streaming" || mid.SettledKeys != 1 {
		t.Fatalf("pre-final status %+v, want streaming with 1 settled key", mid)
	}

	fin, code := postChunk(t, ts, st.ID, streamChunkRequest{Offset: int64(len(bits)), Final: true})
	if code != http.StatusOK || fin.Status != "done" || fin.SettledKeys != 1 {
		t.Fatalf("final chunk: status %d, body %+v", code, fin)
	}

	var manifest struct {
		Stream bool  `json:"stream"`
		Bits   int64 `json:"bits"`
		Grades []struct {
			Rec *struct {
				Watermark    string `json:"watermark"`
				FullCoverage bool   `json:"full_coverage"`
			} `json:"rec"`
		} `json:"grades"`
	}
	res, code := getBody(t, ts.URL+"/jobs/"+st.ID+"/result")
	if err := json.Unmarshal(res, &manifest); err != nil || code != http.StatusOK {
		t.Fatalf("result fetch: status %d, err %v", code, err)
	}
	if !manifest.Stream || manifest.Bits != int64(len(bits)) ||
		len(manifest.Grades) != 1 || manifest.Grades[0].Rec == nil ||
		manifest.Grades[0].Rec.Watermark != w0.String() || !manifest.Grades[0].Rec.FullCoverage {
		t.Fatalf("stream manifest did not recover the fingerprint: %+v", manifest)
	}

	// Feeding a sealed stream is refused.
	if _, code := postChunk(t, ts, st.ID, streamChunkRequest{Offset: int64(len(bits)), Bits: "01"}); code != http.StatusConflict {
		t.Errorf("feed after finish: status %d, want 409", code)
	}
}

// TestServeStreamCrashResume is the stream job's resume protocol over
// HTTP: kill the daemon mid-upload, restart it over the same root, and
// the status reports the committed offset; an overlapping re-send is
// trimmed and the rest of the upload finishes the job. That the verdict
// equals batch recognition is TestDifferentialRecognition's serve leg.
// TestServeBodyReadErrors checks how a submit and a stream chunk answer a
// body they cannot read: 413 only for a body over the limit, 400 for one
// that ends before its Content-Length or breaks off mid-read.
func TestServeBodyReadErrors(t *testing.T) {
	srv, ts := startServer(t, serveConfig{root: t.TempDir(), maxActive: 2, maxJobs: 4,
		reqTimeout: time.Minute, noSync: true})
	defer ts.Close()
	defer srv.drain()
	body, _, _ := streamServeFixture(t)
	st, code := submitJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("stream submit: status %d", code)
	}
	// broken yields the start of a JSON body, then the error a connection
	// that closes early gives.
	broken := func(prefix string) io.Reader {
		return io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(io.ErrUnexpectedEOF))
	}
	for _, path := range []string{"/jobs", "/jobs/" + st.ID + "/stream"} {
		for _, c := range []struct {
			name   string
			body   io.Reader
			length int64
			want   int
		}{
			{"short of its length", broken(`{"bits":"01`), 100, http.StatusBadRequest},
			{"broken, length unknown", broken(`{"bits":"01`), -1, http.StatusBadRequest},
			{"stated length over the limit", strings.NewReader("{}"), maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
		} {
			req := httptest.NewRequest(http.MethodPost, path, c.body)
			req.ContentLength = c.length
			rec := httptest.NewRecorder()
			srv.handler().ServeHTTP(rec, req)
			if rec.Code != c.want {
				t.Errorf("POST %s, body %s: status %d (%s), want %d", path, c.name, rec.Code,
					strings.TrimSpace(rec.Body.String()), c.want)
			}
		}
	}
	// A body that reads whole is still accepted: the stream job is where
	// the first submit left it, so a resubmit answers 200.
	if _, code := submitJob(t, ts, body); code != http.StatusOK {
		t.Errorf("stream resubmit after the broken bodies: status %d, want 200", code)
	}
}

func TestServeStreamCrashResume(t *testing.T) {
	body, bits, _ := streamServeFixture(t)

	// Upload half, kill the daemon (drain + close releases the
	// journal like a crash whose last chunk was fsynced), restart over the
	// same root, resume from the committed offset, finish.
	root := t.TempDir()
	srv1, ts1 := startServer(t, serveConfig{root: root, maxActive: 1, maxJobs: 4,
		reqTimeout: time.Minute, noSync: true})
	st1, _ := submitJob(t, ts1, body)
	uploadBits(t, ts1, st1.ID, bits, 0, evenChunks(len(bits)/2, 777))
	srv1.drain()
	ts1.Close()

	srv2, ts2 := startServer(t, serveConfig{root: root, maxActive: 1, maxJobs: 4,
		reqTimeout: time.Minute, noSync: true})
	defer ts2.Close()
	defer srv2.drain()

	// The restarted daemon replayed the chunk journal: status reports the
	// committed offset so the uploader knows where to resume. Re-send an
	// overlapping chunk (uploaders resume from their own last ack) and the
	// rest, then finish.
	rst := getStatus(t, ts2, st1.ID)
	if !rst.Stream || rst.Status != "streaming" || rst.Committed == 0 || rst.Committed > int64(len(bits)/2) {
		t.Fatalf("resumed stream status %+v", rst)
	}
	resume := int(rst.Committed) - 100 // overlap: trimmed server-side
	if resume < 0 {
		resume = 0
	}
	if cs, code := postChunk(t, ts2, st1.ID, streamChunkRequest{
		Offset: int64(resume), Bits: bits[resume:rst.Committed]}); code != http.StatusOK || cs.Committed != rst.Committed {
		t.Fatalf("overlap re-send: status %d, committed %d", code, cs.Committed)
	}
	uploadBits(t, ts2, st1.ID, bits, int(rst.Committed), evenChunks(len(bits)-int(rst.Committed), 777))
	if fin, _ := postChunk(t, ts2, st1.ID, streamChunkRequest{Offset: int64(len(bits)), Final: true}); fin.Status != "done" {
		t.Fatalf("resumed upload finished as %+v", fin)
	}
}

// TestServeStreamTraceReadDuringWrite races GET /jobs/{id}/trace against
// a live chunk upload: every response must be a complete, well-formed
// event-line prefix — a poller never sees a torn last line, even though
// the job's writer is appending concurrently. CI runs this under -race.
func TestServeStreamTraceReadDuringWrite(t *testing.T) {
	root := t.TempDir()
	srv, ts := startServer(t, serveConfig{root: root, maxActive: 2, maxJobs: 4,
		reqTimeout: time.Minute, noSync: true})
	defer ts.Close()
	defer srv.drain()

	body, bits, _ := streamServeFixture(t)
	st, _ := submitJob(t, ts, body)

	stop := make(chan struct{})
	var readerWg sync.WaitGroup
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/trace")
			if err != nil {
				t.Error(err)
				return
			}
			raw := new(bytes.Buffer)
			raw.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				continue // stream not open yet
			}
			// The whole body must parse: no torn tail, no garbage.
			if good := obs.CompleteTraceLines(raw.Bytes()); len(good) != raw.Len() {
				t.Errorf("trace response has %d bytes past the last complete line", raw.Len()-len(good))
				return
			}
		}
	}()

	// Many small chunks: many concurrent trace appends.
	uploadBits(t, ts, st.ID, bits, 0, evenChunks(len(bits), 64))
	close(stop)
	readerWg.Wait()
	if fin, code := postChunk(t, ts, st.ID, streamChunkRequest{Offset: int64(len(bits)), Final: true}); code != http.StatusOK || fin.Status != "done" {
		t.Fatalf("final chunk: status %d, %+v", code, fin)
	}

	// A torn tail on disk — the writer killed mid-append — is filtered
	// out of the HTTP response entirely.
	appendTorn(t, jobs.TracePath(filepath.Join(root, st.ID)), `{"trace":"torn`)
	raw, _ := getBody(t, ts.URL+"/jobs/"+st.ID+"/trace")
	if bytes.Contains(raw, []byte(`"torn`)) {
		t.Error("trace response leaked the torn tail")
	}
	if good := obs.CompleteTraceLines(raw); len(good) != len(raw) {
		t.Error("trace response is not a complete-line prefix")
	}
	evs := obs.DecodeTraceEvents(raw)
	byEvent := map[string]int{}
	for _, ev := range evs {
		byEvent[ev.Event]++
	}
	for _, stage := range []string{"stream.open", "stream.chunk", "grade.done", "stream.done"} {
		if byEvent[stage] == 0 {
			t.Errorf("stream trace missing %s (have %v)", stage, byEvent)
		}
	}
	// `pathmark top` reads the same stream as one finished grade per key.
	if st := aggregateTrace(evs); st.total != 1 || st.grades != 1 || st.dones != 1 {
		t.Errorf("top reads the stream job as %+v, want 1/1 grades and done", st)
	}
}

// TestServeReadOnlyDegradation: a storage fault while persisting a
// submission flips the daemon read-only — new writes get 503 with a
// Retry-After header and /readyz reports it, while health, metrics and
// status reads keep answering — and the background probe re-enables
// writes once the disk recovers (here: the injected fault is spent).
// Result reads go through the same filesystem: bit rot injected into
// result.json reaches the served body.
func TestServeReadOnlyDegradation(t *testing.T) {
	root := t.TempDir()
	ffs := iofault.NewFaultFS(iofault.OS, []iofault.Fault{
		{Op: iofault.OpWrite, Kind: iofault.KindENOSPC, Path: "request.json"},
		{Op: iofault.OpRead, Kind: iofault.KindReadFlip, Path: "result.json"},
	})
	srv, ts := startServer(t, serveConfig{root: root, maxActive: 1, maxJobs: 4,
		reqTimeout: time.Minute, noSync: true,
		fsys: ffs, probeInterval: 20 * time.Millisecond})
	defer ts.Close()
	defer srv.drain()

	body, _ := serveFixture(t)
	if _, code := submitJob(t, ts, body); code != http.StatusInternalServerError {
		t.Fatalf("submit over ENOSPC: status %d, want 500", code)
	}

	// The fault tripped read-only mode: writes are refused with a retry
	// hint, reads and probes stay live.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while read-only: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("read-only 503 missing Retry-After header")
	}
	if rb, code := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(string(rb), "read-only") {
		t.Fatalf("readyz while read-only: status %d body %q, want 503 read-only", code, rb)
	}
	for _, path := range []string{"/healthz", "/metrics"} {
		if _, code := getBody(t, ts.URL+path); code != http.StatusOK {
			t.Errorf("%s while read-only: status %d, want 200", path, code)
		}
	}

	// The injected fault fires once; the recovery probe's next durable
	// write succeeds and the daemon leaves read-only mode.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, code := getBody(t, ts.URL+"/readyz"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never recovered from read-only mode")
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, code := submitJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit after recovery: status %d, want 202", code)
	}
	if fin := pollJob(t, ts, st.ID); fin.Status != "done" {
		t.Fatalf("post-recovery job finished as %+v", fin)
	}
	got, _ := getBody(t, ts.URL+"/jobs/"+st.ID+"/result")
	onDisk, err := os.ReadFile(jobs.ResultPath(filepath.Join(root, st.ID)))
	if err != nil || bytes.Equal(got, onDisk) || len(ffs.Fired()) != 2 {
		t.Fatalf("result read bypassed the daemon's filesystem: fired %v, err %v", ffs.Fired(), err)
	}
}

// TestServeQuarantineOnCorruptResume: a restart over a root holding one
// job with a corrupt (bit-flipped mid-log) journal and one healthy
// finished job must quarantine the former — directory moved under
// quarantine/ with a reason record — and keep serving the latter.
func TestServeQuarantineOnCorruptResume(t *testing.T) {
	root := t.TempDir()
	srv, ts := startServer(t, serveConfig{root: root, maxActive: 2, maxJobs: 4,
		reqTimeout: time.Minute, noSync: true})

	// Job 1: a finished corpus job (stays healthy).
	body, _ := serveFixture(t)
	healthy, _ := submitJob(t, ts, body)
	pollJob(t, ts, healthy.ID)

	// Job 2: a stream job left mid-upload.
	sbody, bits, _ := streamServeFixture(t)
	victim, _ := submitJob(t, ts, sbody)
	uploadBits(t, ts, victim.ID, bits, 0, evenChunks(3072, 1024))
	srv.drain()
	ts.Close()

	// Rot a mid-log chunk record in the victim's stream journal.
	victimDir := filepath.Join(root, victim.ID)
	spath := jobs.StreamPath(victimDir)
	data, err := os.ReadFile(spath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 5 {
		t.Fatalf("stream journal too short to corrupt: %d lines", len(lines))
	}
	mid := []byte(lines[2])
	mid[len(mid)/2] ^= 0x01
	lines[2] = string(mid)
	if err := os.WriteFile(spath, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart. The corrupt job is quarantined, the healthy one still serves.
	srv2, ts2 := startServer(t, serveConfig{root: root, maxActive: 2, maxJobs: 4,
		reqTimeout: time.Minute, noSync: true})
	defer ts2.Close()
	defer srv2.drain()

	if _, err := os.Stat(victimDir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("corrupt job directory still in the root: %v", err)
	}
	qdir := filepath.Join(jobs.QuarantineDir(root), victim.ID)
	if _, err := os.Stat(jobs.StreamPath(qdir)); err != nil {
		t.Errorf("quarantined journal missing: %v", err)
	}
	reason, err := os.ReadFile(filepath.Join(qdir, "reason.json"))
	if err != nil {
		t.Fatalf("quarantine reason record: %v", err)
	}
	if !strings.Contains(string(reason), "corrupt") {
		t.Errorf("reason.json does not name the corruption: %s", reason)
	}

	if _, code := getBody(t, ts2.URL+"/jobs/"+healthy.ID+"/result"); code != http.StatusOK {
		t.Errorf("healthy job's result after quarantine restart: status %d, want 200", code)
	}
	if _, code := getBody(t, ts2.URL+"/jobs/"+victim.ID); code != http.StatusNotFound {
		t.Errorf("quarantined job still tracked: status %d, want 404", code)
	}
}
