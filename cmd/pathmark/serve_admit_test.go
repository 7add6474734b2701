package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pathmark/internal/jobs"
)

// TestServeJobTableCap: at -max-jobs a new submission answers 429 and
// opens no job directory, while re-posting a job the table already
// tracks still answers 200 with that job.
func TestServeJobTableCap(t *testing.T) {
	root := t.TempDir()
	srv, ts := startServer(t, serveConfig{root: root, maxActive: 1, maxJobs: 1,
		reqTimeout: time.Minute, noSync: true})
	defer ts.Close()
	defer srv.drain()

	body, _ := serveFixture(t)
	st, code := submitJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", code)
	}
	other, _ := serveFixtureSeed(t, 4243)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(other))
	if err != nil {
		t.Fatal(err)
	}
	var refusal struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&refusal)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || refusal.Error == "" {
		t.Fatalf("submit over the cap: status %d, body %+v; want 429 with an error", resp.StatusCode, refusal)
	}
	if entries, err := os.ReadDir(root); err != nil || len(entries) != 1 {
		t.Errorf("job root after a refused submit: %v entries (err %v), want only the tracked job", len(entries), err)
	}
	if again, code := submitJob(t, ts, body); code != http.StatusOK || again.ID != st.ID {
		t.Errorf("re-post of the tracked job at the cap: status %d id %s, want 200 and id %s", code, again.ID, st.ID)
	}
}

// streamBodyEvery is the stream fixture's request with its probe cadence
// set to every: the cadence is digested, so each value names its own job.
func streamBodyEvery(t *testing.T, body []byte, every int) []byte {
	t.Helper()
	var req serveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	req.Options.CheckEvery = every
	return mustJSON(t, req)
}

// TestServeResumeExemptFromCap: jobs the daemon accepted before a
// restart are resumed even when there are more of them than the new
// -max-jobs allows. Only new submissions meet the cap.
func TestServeResumeExemptFromCap(t *testing.T) {
	base, bits, _ := streamServeFixture(t)
	root := t.TempDir()
	srv1, ts1 := startServer(t, serveConfig{root: root, maxActive: 1, maxJobs: 4,
		reqTimeout: time.Minute, noSync: true})
	var ids []string
	for _, every := range []int{512, 1024, 2048} {
		st, code := submitJob(t, ts1, streamBodyEvery(t, base, every))
		if code != http.StatusAccepted {
			t.Fatalf("stream submit (check_every %d): status %d", every, code)
		}
		uploadBits(t, ts1, st.ID, bits, 0, evenChunks(len(bits)/2, 1000))
		ids = append(ids, st.ID)
	}
	srv1.drain()
	ts1.Close()

	srv2, ts2 := startServer(t, serveConfig{root: root, maxActive: 1, maxJobs: 1,
		reqTimeout: time.Minute, noSync: true})
	defer ts2.Close()
	defer srv2.drain()
	for _, id := range ids {
		if st := getStatus(t, ts2, id); st.Status != "streaming" || st.Committed != int64(len(bits)/2) {
			t.Errorf("job %s after a restart with -max-jobs 1: %+v, want streaming at %d", id, st, len(bits)/2)
		}
	}
	grade, _ := serveFixture(t)
	if _, code := submitJob(t, ts2, grade); code != http.StatusTooManyRequests {
		t.Errorf("new submission over the resumed jobs: status %d, want 429", code)
	}
	if st, code := submitJob(t, ts2, streamBodyEvery(t, base, 1024)); code != http.StatusOK || st.ID != ids[1] {
		t.Errorf("re-post of a resumed job: status %d id %s, want 200 and id %s", code, st.ID, ids[1])
	}
}

// TestServeResumeSkipsMisnamedJob: a job directory whose request.json
// digests to another name is not resumed. It stays in the root as it
// was, answers 404, and the job it was copied from still serves.
func TestServeResumeSkipsMisnamedJob(t *testing.T) {
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
	result, err := os.ReadFile(jobs.ResultPath(filepath.Join(root, st.ID)))
	if err != nil {
		t.Fatal(err)
	}
	request, err := os.ReadFile(filepath.Join(root, st.ID, "request.json"))
	if err != nil {
		t.Fatal(err)
	}
	const misnamed = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	mdir := filepath.Join(root, misnamed)
	if err := os.Mkdir(mdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mdir, "request.json"), request, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := startServer(t, serveConfig{root: root, maxActive: 1, maxJobs: 4,
		reqTimeout: time.Minute, noSync: true})
	defer ts2.Close()
	defer srv2.drain()
	if _, code := getBody(t, ts2.URL+"/jobs/"+misnamed); code != http.StatusNotFound {
		t.Errorf("misnamed job directory: status %d, want 404", code)
	}
	if entries, err := os.ReadDir(mdir); err != nil || len(entries) != 1 || entries[0].Name() != "request.json" {
		t.Errorf("misnamed job directory after the restart: %v (err %v), want request.json alone", entries, err)
	}
	if got, code := getBody(t, ts2.URL+"/jobs/"+st.ID+"/result"); code != http.StatusOK || !bytes.Equal(got, result) {
		t.Errorf("original job's result after the restart: status %d, %d bytes (disk has %d)", code, len(got), len(result))
	}
}
