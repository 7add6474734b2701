package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"pathmark/internal/bitstring"
	"pathmark/internal/iofault"
	"pathmark/internal/jobs"
	"pathmark/internal/obs"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
)

// daemon is a `pathmark serve` child process on a fresh job root, with
// fsync on and default flags except -addr, -dir and -max-jobs.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process is reaped
	base   string        // http://host:port
	root   string
	log    string // the daemon's stderr (startup line, access log)
	client *http.Client
}

// startDaemon launches the daemon and waits until /readyz answers 200.
// maxJobs must exceed the ops a run can submit: the daemon never evicts
// finished jobs, so a full job table would refuse the rest of the run.
func startDaemon(bin, root string, maxJobs int) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("served workloads need -pathmark (run through perfbench/run.sh)")
	}
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	// The access log goes to a file, not a pipe: a pipe the harness did
	// not drain promptly would stall the daemon's request handlers.
	logPath := root + ".log"
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-dir", root, "-max-jobs", fmt.Sprint(maxJobs))
	cmd.Stderr = logf
	// The daemon must not outlive the harness, even if the harness dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, root: root, log: logPath, client: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	}}
	exited := make(chan struct{})
	go func() {
		_ = cmd.Wait() // reaped here; stop waits on exited
		close(exited)
	}()
	d.exited = exited
	deadline := time.Now().Add(30 * time.Second)
	for d.base == "" {
		data, err := os.ReadFile(logPath)
		if err != nil {
			d.stop()
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "pathmark: serve: listening on "); ok {
				d.base = "http://" + strings.TrimSuffix(strings.Fields(rest)[0], ",")
			}
		}
		select {
		case <-exited:
			d.stop()
			return nil, fmt.Errorf("daemon exited before listening: %s", data)
		default:
		}
		if d.base == "" {
			if time.Now().After(deadline) {
				d.stop()
				return nil, errors.New("daemon did not report its address within 30s")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("daemon not ready within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the daemon, waits until it is reaped, and removes its job
// root and log.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.exited
	d.client.CloseIdleConnections()
	_ = os.RemoveAll(d.root) // scratch; a leftover is removed by the next run
	_ = os.Remove(d.log)
}

// call sends one request and decodes a JSON answer into out (when
// non-nil), returning the status code and the raw body.
func (d *daemon) call(method, path string, body []byte, out any) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, raw, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return resp.StatusCode, raw, nil
}

// metrics scrapes /metrics and parses it with the repository's own
// exposition parser.
func (d *daemon) metrics() (map[string]float64, error) {
	code, raw, err := d.call("GET", "/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	return obs.ParsePrometheus(raw)
}

// jobStatus and jobResult are the parts of the daemon's answers the
// harness reads.
type jobStatus struct {
	ID          string `json:"id"`
	Status      string `json:"status"`
	Error       string `json:"error"`
	SettledKeys int    `json:"settled_keys"`
}

type jobResult struct {
	Grades []struct {
		S   int    `json:"s"`
		K   int    `json:"k"`
		Err string `json:"err"`
		Rec *struct {
			Watermark    string `json:"watermark"`
			FullCoverage bool   `json:"full_coverage"`
		} `json:"rec"`
	} `json:"grades"`
}

// verdict returns grade (s, k)'s recovered watermark and coverage.
func (r *jobResult) verdict(s, k int) (*big.Int, bool, error) {
	for _, g := range r.Grades {
		if g.S != s || g.K != k {
			continue
		}
		if g.Rec == nil {
			return nil, false, fmt.Errorf("grade (%d,%d) has no recognition: %s", s, k, g.Err)
		}
		if g.Rec.Watermark == "" {
			return nil, g.Rec.FullCoverage, nil
		}
		w, ok := new(big.Int).SetString(g.Rec.Watermark, 10)
		if !ok {
			return nil, false, fmt.Errorf("grade (%d,%d): bad watermark %q", s, k, g.Rec.Watermark)
		}
		return w, g.Rec.FullCoverage, nil
	}
	return nil, false, fmt.Errorf("result has no grade (%d,%d)", s, k)
}

// clientCounts are what the clients did to one daemon, for the /metrics
// cross-check.
type clientCounts struct {
	mu        sync.Mutex
	grades    int // (suspect, key) grades in accepted jobs
	chunks    int // stream chunks accepted
	completed int // jobs the client saw reach "done"
}

func (c *clientCounts) add(grades, chunks, completed int) {
	c.mu.Lock()
	c.grades += grades
	c.chunks += chunks
	c.completed += completed
	c.mu.Unlock()
}

// crossCheck fails the run when the daemon's counters disagree with
// what the clients did.
func crossCheck(o *outcome, d *daemon, c *clientCounts) {
	m, err := d.metrics()
	if err != nil {
		o.problem("scrape /metrics: %v", err)
		return
	}
	for _, chk := range []struct {
		sample string
		want   int
		what   string
	}{
		{"pathmark_jobs_journal_records", c.grades, "journal records vs grades submitted"},
		{"pathmark_serve_stream_chunks", c.chunks, "stream chunks vs chunks posted"},
		{"pathmark_serve_jobs_completed", c.completed, "completed jobs vs completed ops"},
	} {
		if got := m[chk.sample]; got != float64(chk.want) {
			o.problem("/metrics cross-check: %s: daemon %s=%v, client %d", chk.what, chk.sample, got, chk.want)
		}
	}
}

type served struct {
	d      *daemon
	counts clientCounts
}

// rssAt reads the daemon's peak RSS once the run has completed its
// first minOps ops. The daemon never evicts finished jobs, so its RSS
// grows with every op; reading it at a fixed op count keeps the job
// table the same size in every run, whatever the throughput.
func (s *served) rssAt(o *outcome, minOps int) func(n int) {
	return func(n int) {
		if n != minOps {
			return
		}
		mb, err := peakRSSMB(fmt.Sprint(s.d.cmd.Process.Pid))
		if err != nil {
			o.problem("read the daemon's peak RSS: %v", err)
		}
		o.rssMB = mb
	}
}

func jobRoot(cfg config, what string, i int) string {
	return filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d-%d", what, os.Getpid(), i))
}

// ---- serve-grade ----

// gradeFleetSize is the number of customer copies per fingerprinted
// pool. A job is a key, one copy from each pool and their order, so a
// run can submit gradeMaxOps distinct jobs before a spec would repeat.
const (
	gradeFleetSize = 16
	gradeMaxOps    = 4 * gradeFleetSize * gradeFleetSize
)

// gradePollEvery is the client's status-poll interval.
const gradePollEvery = 5 * time.Millisecond

type gradeInputs struct {
	fleets [2]*fleet   // Jess-like, CaffeineMark-like
	texts  [2][]string // .pasm text of every copy
	docs   [2][]byte   // each fleet's keyfile
	perms  [2][]int    // per key: order of (jess copy, caffeine copy) pairs
}

func makeGradeInputs(seed int64) (*gradeInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	g := &gradeInputs{}
	for i, kind := range []string{hostJess, hostCaffeine} {
		f, err := makeFleet(kind, rng, gradeFleetSize)
		if err != nil {
			return nil, err
		}
		g.fleets[i] = f
		g.docs[i] = keyDoc(f.key)
		for _, c := range f.copies {
			g.texts[i] = append(g.texts[i], vm.Dump(c.Program))
		}
	}
	for k := range g.perms {
		g.perms[k] = rng.Perm(gradeFleetSize * gradeFleetSize)
	}
	return g, nil
}

func (g *gradeInputs) fingerprint() string {
	var f fingerprint
	for i := range g.fleets {
		f.add(g.docs[i])
		for j, t := range g.texts[i] {
			f.add([]byte(t), g.fleets[i].copies[j].Watermark.Bytes())
		}
	}
	for _, p := range g.perms {
		f.add([]byte(fmt.Sprint(p)))
	}
	return f.String()
}

type gradeJob struct {
	texts []string
	want  []*big.Int // per suspect; nil = expect no match
	doc   []byte
	body  []byte
}

// job is op i: one copy from each pool graded against one pool's key,
// alternating keys. The copy from the key's own pool must recover its
// customer's watermark; the other must not match. The suspect order
// flips with the pair and with each pass over the pairs.
func (g *gradeInputs) job(i int) gradeJob {
	k, idx, order := g.plan(i)
	j := gradeJob{doc: g.docs[k]}
	for _, pool := range order {
		j.texts = append(j.texts, g.texts[pool][idx[pool]])
		var want *big.Int
		if pool == k {
			want = g.fleets[pool].copies[idx[pool]].Watermark
		}
		j.want = append(j.want, want)
	}
	body, err := json.Marshal(map[string]any{"suspects": j.texts, "keys": []string{string(j.doc)}})
	if err != nil {
		panic(err) // strings always marshal
	}
	j.body = body
	return j
}

// plan picks op i's key (pool index), the copy taken from each pool and
// the suspect order.
func (g *gradeInputs) plan(i int) (k int, idx [2]int, order []int) {
	k, n := i%2, i/2
	pairs := gradeFleetSize * gradeFleetSize
	pair := g.perms[k][n%pairs]
	idx = [2]int{pair / gradeFleetSize, pair % gradeFleetSize}
	order = []int{0, 1}
	if (pair+n/pairs)%2 == 1 {
		order = []int{1, 0}
	}
	return k, idx, order
}

func (g *gradeInputs) items() []item {
	var out []item
	for _, f := range g.fleets {
		for _, c := range f.copies {
			out = append(out, item{kind: f.kind, host: f.host, prog: c.Program, key: f.key, want: c.Watermark})
		}
	}
	return out
}

// runServeGrade: an op submits one job of two fleet copies x one key (the
// `pathmark fleet grade` shape), polls until done, fetches the result
// and checks each suspect's verdict.
func runServeGrade(cfg config) (*outcome, error) {
	o := &outcome{}
	type state struct {
		in *gradeInputs
		s  *served
	}
	setups := 0
	st, err := repeatSetup(cfg, o, func() (state, error) {
		in, err := makeGradeInputs(cfg.seed)
		if err != nil {
			return state{}, err
		}
		d, err := startDaemon(cfg.pathmark, jobRoot(cfg, "grade", setups), gradeMaxOps+16)
		setups++
		if err != nil {
			return state{}, err
		}
		return state{in: in, s: &served{d: d}}, nil
	}, func(s state) string { return s.in.fingerprint() }, func(s state) { s.s.d.stop() })
	if err != nil {
		return nil, err
	}
	defer st.s.d.stop()
	replayRoot := jobRoot(cfg, "replay", 0)
	defer os.RemoveAll(replayRoot)

	// Warm-up: two jobs (one per key) from the end of the plan, untimed.
	for i := gradeMaxOps - 2; i < gradeMaxOps; i++ {
		if r := gradeOp(st.s, st.in.job(i), nil, i, ""); r.status != opOK {
			return nil, fmt.Errorf("warm-up job: %v", r.err)
		}
	}
	var resMu sync.Mutex
	phases(cfg, o, 2, gradeMaxOps-2, st.s.rssAt(o, cfg.minOps), func(i int, tr *tracer) opResult {
		r := gradeOp(st.s, st.in.job(i), tr, i, filepath.Join(replayRoot, fmt.Sprint(i)))
		if tr != nil && r.status == opOK {
			resMu.Lock()
			o.residual += r.residual
			resMu.Unlock()
		}
		return r.opResult
	})
	crossCheck(o, st.s.d, &st.s.counts)
	st.s.d.stop()
	if err := inputProperties(o, st.in.items()); err != nil {
		return nil, err
	}
	return o, nil
}

type servedResult struct {
	opResult
	residual time.Duration
}

func gradeOp(s *served, job gradeJob, tr *tracer, op int, replayDir string) servedResult {
	fail := func(lat time.Duration, err error) servedResult {
		return servedResult{opResult: opResult{lat: lat, status: opFailed, err: err}}
	}
	root := tr.begin("op", -1, op)
	t0 := time.Now()
	var st jobStatus
	var code int
	var err error
	tr.timed("serve.submit", root, op, func() { code, _, err = s.d.call("POST", "/jobs", job.body, &st) })
	if err != nil {
		return fail(time.Since(t0), err)
	}
	if code != http.StatusAccepted {
		// 200 is content-addressed dedupe of a known job: no work done.
		return fail(time.Since(t0), fmt.Errorf("submit: HTTP %d, want 202", code))
	}
	s.counts.add(len(job.texts), 0, 0)
	polls := 0
	for st.Status != "done" {
		switch st.Status {
		case "failed", "quarantined", "interrupted":
			return fail(time.Since(t0), fmt.Errorf("job %s: %s: %s", st.ID, st.Status, st.Error))
		}
		tr.timed("serve.poll", root, op, func() {
			time.Sleep(gradePollEvery)
			code, _, err = s.d.call("GET", "/jobs/"+st.ID, nil, &st)
		})
		polls++
		if err != nil || code != http.StatusOK {
			return fail(time.Since(t0), fmt.Errorf("poll: HTTP %d: %v", code, err))
		}
	}
	s.counts.add(0, 0, 1)
	var res jobResult
	var raw []byte
	tr.timed("serve.result", root, op, func() { code, raw, err = s.d.call("GET", "/jobs/"+st.ID+"/result", nil, &res) })
	lat := time.Since(t0)
	tr.end(root)
	if err != nil || code != http.StatusOK {
		return fail(lat, fmt.Errorf("result: HTTP %d: %v", code, err))
	}
	for i, want := range job.want {
		w, full, err := res.verdict(i, 0)
		if err != nil {
			return fail(lat, err)
		}
		if !verdictOK(want, w, full) {
			return servedResult{opResult: opResult{lat: lat, status: opWrong, err: fmt.Errorf("job %s suspect %d: wrong verdict", st.ID, i)}}
		}
	}
	r := servedResult{opResult: opResult{lat: lat, status: opOK}}
	if tr != nil {
		tr.count("serve.poll_count", float64(polls))
		replayed, err := replayGrade(tr, op, replayDir, job, st.ID, raw)
		if err != nil {
			return fail(lat, fmt.Errorf("replay: %w", err))
		}
		r.residual = lat - replayed
		tr.opDone()
	}
	return r
}

// replayGrade re-runs one served job's server-side work in the harness,
// on the same inputs, through the public functions the daemon calls, in
// the daemon's order, into a scratch directory with fsync on. Work those
// functions do internally is timed by separate calls on the same inputs
// and attributed to them. It returns the replay's duration and checks
// that the replay reproduces the daemon's job ID and result manifest.
func replayGrade(tr *tracer, op int, dir string, job gradeJob, daemonID string, daemonResult []byte) (time.Duration, error) {
	defer os.RemoveAll(dir)
	rp := tr.begin("replay", -1, op)
	t0 := time.Now()
	progs := make([]*vm.Program, len(job.texts))
	var err error
	tr.timed("vm.asm", rp, op, func() {
		for i, t := range job.texts {
			if progs[i], err = vm.Assemble(t); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, err
	}
	var key *wm.Key
	tr.timed("wm.load_key", rp, op, func() { key, err = wm.LoadKey(bytes.NewReader(job.doc)) })
	if err != nil {
		return 0, err
	}
	reg := obs.NewRegistry()
	fc := wm.NewFleetCaches(0, 0)
	// Workers=1 runs the job's grades one after another, so each layer's
	// time below is its busy time.
	spec := jobs.Spec{Suspects: progs, Keys: []*wm.Key{key}, Opts: jobs.Options{Workers: 1, Obs: reg, Caches: fc}}
	var id string
	specSpan := tr.begin("jobs.spec", rp, op)
	id, err = jobs.SpecID(spec)
	tr.end(specSpan)
	if err != nil {
		return 0, err
	}
	tr.timed("serve.request_write", rp, op, func() {
		if err = os.MkdirAll(dir, 0o755); err == nil {
			err = iofault.WriteFileAtomic(iofault.OS, filepath.Join(dir, "request.json"), job.body)
		}
	})
	if err != nil {
		return 0, err
	}
	var j *jobs.Job
	openSpan := tr.begin("jobs.open", rp, op)
	j, err = jobs.Open(dir, spec)
	tr.end(openSpan)
	if err != nil {
		return 0, err
	}
	var res *jobs.Result
	runSpan := tr.begin("jobs.run", rp, op)
	res, err = j.Run(context.Background())
	tr.end(runSpan)
	if err != nil {
		j.Close()
		return 0, err
	}
	tr.timed("jobs.result_write", rp, op, func() { err = jobs.WriteResultFile(jobs.ResultPath(dir), res) })
	if err != nil {
		j.Close()
		return 0, err
	}
	tr.timed("jobs.close", rp, op, func() { err = j.Close() })
	replayed := time.Since(t0)
	tr.end(rp)
	if err != nil {
		return 0, err
	}
	if id != daemonID {
		return 0, fmt.Errorf("replayed job ID %s, daemon's %s", id, daemonID)
	}
	mine, err := os.ReadFile(jobs.ResultPath(dir))
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(mine, daemonResult) {
		return 0, errors.New("replayed result manifest differs from the daemon's")
	}

	// The digest pass SpecID makes, and Open makes again.
	t := time.Now()
	for _, p := range progs {
		wm.ProgramDigest(p)
	}
	d := time.Since(t)
	tr.attribute("wm.digest", specSpan, d)
	tr.attribute("wm.digest", openSpan, d)
	tr.count("wm.digest_calls", float64(2*len(progs)))
	tr.count("vm.asm_bytes", float64(len(strings.Join(job.texts, ""))))

	// The grades Run makes: trace, decode, scan + vote, journal append.
	if err := attributeGrades(tr, runSpan, progs, key, res, dir); err != nil {
		return 0, err
	}
	tr.count("jobs.wal_records", float64(reg.Counter("jobs.journal.records").Value()))
	tr.count("jobs.wal_bytes", float64(reg.Counter("jobs.journal.bytes").Value()))
	ds := fc.DecryptStats()
	tr.count("cache.decrypt_hits", float64(ds.Hits))
	tr.count("cache.decrypt_lookups", float64(ds.Lookups()))
	return replayed, nil
}

func attributeGrades(tr *tracer, runSpan int, progs []*vm.Program, key *wm.Key, res *jobs.Result, dir string) error {
	scanCaches, voteCaches := wm.NewFleetCaches(0, 0), wm.NewFleetCaches(0, 0)
	wal, err := jobs.CreateWAL(iofault.OS, filepath.Join(dir, "probe.wal"), map[string]string{"type": "header"}, true)
	if err != nil {
		return err
	}
	defer wal.Close()
	for s, p := range progs {
		t := time.Now()
		trace, runRes, err := vm.CollectWith(p, vm.RunOptions{Input: key.Input, SnapshotLimit: 1})
		if err != nil {
			return err
		}
		tr.attribute("vm.collect", runSpan, time.Since(t))
		tr.count("vm.steps", float64(runRes.Steps))
		t = time.Now()
		bits := trace.DecodeBits()
		tr.attribute("vm.decode", runSpan, time.Since(t))
		tr.count("vm.trace_bits", float64(bits.Len()))
		t = time.Now()
		st, err := wm.ScanOnly(bits, key, wm.RecognizeOpts{Workers: 1, DecryptCache: scanCaches.DecryptCacheFor(key.Cipher)})
		if err != nil {
			return err
		}
		scan := time.Since(t)
		tr.attribute("wm.scan", runSpan, scan)
		countScan(tr, st)
		t = time.Now()
		rec, err := wm.RecognizeBits(bits, key, wm.RecognizeOpts{Workers: 1, DecryptCache: voteCaches.DecryptCacheFor(key.Cipher)})
		if err != nil {
			return err
		}
		tr.attribute("wm.vote", runSpan, max(time.Since(t)-scan, 0))
		tr.count("wm.vote_unique", float64(rec.UniqueStatements))
		t = time.Now()
		if err := wal.Append(map[string]any{"type": "grade", "s": s, "k": 0, "rec": res.Corpus.Recognitions[s][0]}); err != nil {
			return err
		}
		tr.attribute("jobs.wal_append", runSpan, time.Since(t))
	}
	return nil
}

// ---- serve-stream ----
//
// serve-stream is not a BENCHMARK.json workload. A session costs a few
// milliseconds, most of it durable job set-up (directory, journal,
// request and result files, each fsynced) rather than scanning, so its
// figures follow the host's filesystem latency: on the 2-vCPU reference
// host their spread between runs was 0.3-0.5 of the median, beyond any
// bound the benchmark may set. It stays runnable by name for the
// per-layer split of the stream path.

// streamPool is the serve-stream session pool: marked copies whose
// decoded trace bits are uploaded, CaffeineMark-like in the majority so
// the median settle point stays inside one host's cluster.
var streamPool = []struct {
	kind string
	n    int
}{{hostCaffeine, 12}, {hostJess, 4}}

type streamItem struct {
	item
	chunks []string
	bits   int
}

type streamInputs struct {
	pool   []streamItem
	order  []int
	decoys []string // keyfiles of other products, sent with every session
}

func makeStreamInputs(seed int64) (*streamInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &streamInputs{}
	for _, p := range streamPool {
		f, err := makeFleet(p.kind, rng, p.n)
		if err != nil {
			return nil, err
		}
		for _, c := range f.copies {
			bits, _, err := traceBits(c.Program, f.key)
			if err != nil {
				return nil, err
			}
			text := bits.String()
			in.pool = append(in.pool, streamItem{
				item:   item{kind: f.kind, host: f.host, prog: c.Program, key: f.key, want: c.Watermark},
				chunks: chunks(text), bits: len(text),
			})
		}
	}
	in.order = rng.Perm(len(in.pool))
	for i := 0; i < streamDecoys; i++ {
		in.decoys = append(in.decoys, string(keyDoc(randomKey(rng))))
	}
	return in, nil
}

func (in *streamInputs) fingerprint() string {
	var f fingerprint
	for _, it := range in.pool {
		f.addItem(it.item)
		f.add([]byte(strings.Join(it.chunks, "")))
	}
	f.add([]byte(fmt.Sprint(in.order)))
	f.add([]byte(strings.Join(in.decoys, "")))
	return f.String()
}

// streamDecoys is the number of other products' keys each session is
// checked against besides its own. Every key's recognizer scans every
// chunk, so the decoys put scan and vote work, not only the per-session
// journal set-up, into each session; each must end with no match.
const streamDecoys = 7

// session returns op i's pool item and its session-unique key: the pool
// copy's key with secret input [i+1]. The hosts never read their input,
// so the trace, and the uploaded bits, are the same under every session
// key, while each session gets its own content-addressed stream ID.
func (in *streamInputs) session(i int) (streamItem, *wm.Key) {
	it := in.pool[in.order[i%len(in.order)]]
	k := *it.key
	k.Input = []int64{int64(i) + 1}
	return it, &k
}

const streamMaxOps = 20000

// runServeStream: an op is one stream session: open a stream job under a
// session-unique key, upload the copy's decoded bits chunk by chunk
// until the verdict settles, send final and check the verdict.
func runServeStream(cfg config) (*outcome, error) {
	o := &outcome{}
	type state struct {
		in *streamInputs
		s  *served
	}
	setups := 0
	st, err := repeatSetup(cfg, o, func() (state, error) {
		in, err := makeStreamInputs(cfg.seed)
		if err != nil {
			return state{}, err
		}
		d, err := startDaemon(cfg.pathmark, jobRoot(cfg, "stream", setups), streamMaxOps+16)
		setups++
		if err != nil {
			return state{}, err
		}
		return state{in: in, s: &served{d: d}}, nil
	}, func(s state) string { return s.in.fingerprint() }, func(s state) { s.s.d.stop() })
	if err != nil {
		return nil, err
	}
	defer st.s.d.stop()
	replayRoot := jobRoot(cfg, "replay", 0)
	defer os.RemoveAll(replayRoot)

	for i := streamMaxOps - 2; i < streamMaxOps; i++ {
		it, key := st.in.session(i)
		if r := streamOp(st.s, it, key, st.in.decoys, nil, i, ""); r.status != opOK {
			return nil, fmt.Errorf("warm-up session: %v", r.err)
		}
	}
	var resMu sync.Mutex
	phases(cfg, o, 1, streamMaxOps-2, st.s.rssAt(o, cfg.minOps), func(i int, tr *tracer) opResult {
		it, key := st.in.session(i)
		r := streamOp(st.s, it, key, st.in.decoys, tr, i, filepath.Join(replayRoot, fmt.Sprint(i)))
		if r.status == opOK {
			resMu.Lock()
			o.settle = append(o.settle, r.settle)
			o.residual += r.residual
			resMu.Unlock()
		}
		return r.opResult
	})
	crossCheck(o, st.s.d, &st.s.counts)
	st.s.d.stop()
	items := make([]item, len(st.in.pool))
	for i, it := range st.in.pool {
		items[i] = it.item
	}
	settle := o.settle
	if err := inputProperties(o, items); err != nil {
		return nil, err
	}
	o.settle = settle // measured through the daemon, not recomputed
	return o, nil
}

type streamResult struct {
	servedResult
	settle float64
}

func streamOp(s *served, it streamItem, key *wm.Key, decoys []string, tr *tracer, op int, replayDir string) streamResult {
	fail := func(lat time.Duration, err error) streamResult {
		return streamResult{servedResult: servedResult{opResult: opResult{lat: lat, status: opFailed, err: err}}}
	}
	docs := append([]string{string(keyDoc(key))}, decoys...)
	body, err := json.Marshal(map[string]any{"stream": true, "keys": docs})
	if err != nil {
		return fail(0, err)
	}
	root := tr.begin("op", -1, op)
	t0 := time.Now()
	var st jobStatus
	var code int
	tr.timed("serve.submit", root, op, func() { code, _, err = s.d.call("POST", "/jobs", body, &st) })
	if err != nil {
		return fail(time.Since(t0), err)
	}
	if code != http.StatusAccepted {
		return fail(time.Since(t0), fmt.Errorf("stream submit: HTTP %d, want 202", code))
	}
	off, sent := 0, 0
	for _, c := range it.chunks {
		chunk, _ := json.Marshal(map[string]any{"offset": off, "bits": c})
		tr.timed("serve.chunk", root, op, func() { code, _, err = s.d.call("POST", "/jobs/"+st.ID+"/stream", chunk, &st) })
		if err != nil || code != http.StatusOK {
			return fail(time.Since(t0), fmt.Errorf("chunk at %d: HTTP %d: %v", off, code, err))
		}
		s.counts.add(0, 1, 0)
		off += len(c)
		sent++
		if st.SettledKeys >= 1 {
			break
		}
	}
	final, _ := json.Marshal(map[string]any{"offset": off, "final": true})
	tr.timed("serve.final", root, op, func() { code, _, err = s.d.call("POST", "/jobs/"+st.ID+"/stream", final, &st) })
	if err != nil || code != http.StatusOK || st.Status != "done" {
		return fail(time.Since(t0), fmt.Errorf("final: HTTP %d, status %q: %v", code, st.Status, err))
	}
	s.counts.add(0, 0, 1)
	var res jobResult
	var raw []byte
	tr.timed("serve.result", root, op, func() { code, raw, err = s.d.call("GET", "/jobs/"+st.ID+"/result", nil, &res) })
	lat := time.Since(t0)
	tr.end(root)
	if err != nil || code != http.StatusOK {
		return fail(lat, fmt.Errorf("result: HTTP %d: %v", code, err))
	}
	r := streamResult{settle: float64(off) / float64(it.bits)}
	r.lat = lat
	for k := range docs {
		w, full, err := res.verdict(0, k)
		if err != nil {
			return fail(lat, err)
		}
		want := it.want
		if k > 0 {
			want = nil // a decoy key must not match
		}
		if !verdictOK(want, w, full) {
			r.status, r.err = opWrong, fmt.Errorf("session %d (%s copy), key %d: wrong verdict", op, it.kind, k)
			return r
		}
	}
	if tr != nil {
		replayed, err := replayStream(tr, op, replayDir, docs, body, it.chunks[:sent], st.ID, raw)
		if err != nil {
			return fail(lat, fmt.Errorf("replay: %w", err))
		}
		r.residual = lat - replayed
		tr.opDone()
	}
	return r
}

// replayStream re-runs one session's server-side work in the harness, as
// replayGrade does for a grade job.
func replayStream(tr *tracer, op int, dir string, docs []string, body []byte, sent []string, daemonID string, daemonResult []byte) (time.Duration, error) {
	defer os.RemoveAll(dir)
	rp := tr.begin("replay", -1, op)
	t0 := time.Now()
	keys := make([]*wm.Key, len(docs))
	var err error
	tr.timed("wm.load_key", rp, op, func() {
		for i, doc := range docs {
			if keys[i], err = wm.LoadKey(strings.NewReader(doc)); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, err
	}
	spec := jobs.StreamSpec{Keys: keys, Opts: jobs.StreamOptions{Obs: obs.NewRegistry()}}
	var id string
	tr.timed("jobs.spec", rp, op, func() { id, err = jobs.StreamSpecID(spec) })
	if err != nil {
		return 0, err
	}
	var sj *jobs.StreamJob
	tr.timed("jobs.stream_open", rp, op, func() { sj, err = jobs.OpenStream(dir, spec) })
	if err != nil {
		return 0, err
	}
	feeds := make([]int, len(sent))
	err = func() error {
		var err error
		tr.timed("serve.request_write", rp, op, func() {
			err = iofault.WriteFileAtomic(iofault.OS, filepath.Join(dir, "request.json"), body)
		})
		if err != nil {
			return err
		}
		off := int64(0)
		for i, c := range sent {
			feeds[i] = tr.begin("jobs.stream_feed", rp, op)
			_, err := sj.Feed(off, c)
			tr.end(feeds[i])
			if err != nil {
				return err
			}
			off += int64(len(c))
		}
		tr.timed("jobs.stream_finish", rp, op, func() { _, err = sj.Finish() })
		return err
	}()
	if err != nil {
		sj.Close()
		return 0, err
	}
	tr.timed("jobs.close", rp, op, func() { err = sj.Close() })
	replayed := time.Since(t0)
	tr.end(rp)
	if err != nil {
		return 0, err
	}
	if id != daemonID {
		return 0, fmt.Errorf("replayed stream ID %s, daemon's %s", id, daemonID)
	}
	mine, err := os.ReadFile(jobs.ResultPath(dir))
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(mine, daemonResult) {
		return 0, errors.New("replayed stream result differs from the daemon's")
	}
	if fi, err := os.Stat(jobs.StreamPath(dir)); err == nil {
		tr.count("jobs.wal_bytes", float64(fi.Size()))
	}
	tr.count("jobs.wal_records", float64(len(sent)+1)) // chunks + final marker
	return replayed, attributeFeeds(tr, feeds, sent, keys, dir)
}

// attributeFeeds splits each Feed into the recognizers' AppendBits (their
// scan share and the vote probes they ran) and the chunk's journal
// append, by feeding the same chunks to fresh recognizers and a fresh
// journal.
func attributeFeeds(tr *tracer, feeds []int, sent []string, keys []*wm.Key, dir string) error {
	prefix, err := bitstring.FromString(strings.Join(sent, ""))
	if err != nil {
		return err
	}
	tr.count("vm.trace_bits", float64(prefix.Len()))
	recs := make([]*wm.StreamRecognizer, len(keys))
	scan := time.Duration(0)
	perProbe := make([]time.Duration, len(keys))
	for k, key := range keys {
		t := time.Now()
		st, err := wm.ScanOnly(prefix, key, wm.RecognizeOpts{})
		if err != nil {
			return err
		}
		d := time.Since(t)
		scan += d
		countScan(tr, st)
		t = time.Now()
		rec, err := wm.RecognizeBits(prefix, key, wm.RecognizeOpts{})
		if err != nil {
			return err
		}
		perProbe[k] = max(time.Since(t)-d, 0)
		tr.count("wm.vote_unique", float64(rec.UniqueStatements))
		recs[k] = wm.NewStreamRecognizer(key, wm.StreamOpts{})
	}
	wal, err := jobs.CreateWAL(iofault.OS, filepath.Join(dir, "probe.wal"), map[string]string{"type": "header"}, true)
	if err != nil {
		return err
	}
	defer wal.Close()
	off := 0
	for i, c := range sent {
		b, err := bitstring.FromString(c)
		if err != nil {
			return err
		}
		var app, vote time.Duration
		for k, r := range recs {
			probes := r.Probes()
			t := time.Now()
			if err := r.AppendBits(b); err != nil {
				return err
			}
			app += time.Since(t)
			vote += time.Duration(r.Probes()-probes) * perProbe[k]
		}
		id := tr.attribute("wm.stream_append", feeds[i], app)
		tr.attribute("wm.scan", id, time.Duration(float64(scan)*float64(len(c))/float64(prefix.Len())))
		tr.attribute("wm.vote", id, vote)
		t := time.Now()
		if err := wal.Append(map[string]any{"type": "chunk", "off": off, "bits": c}); err != nil {
			return err
		}
		tr.attribute("jobs.wal_append", feeds[i], time.Since(t))
		off += len(c)
	}
	for _, r := range recs {
		tr.count("wm.stream_probes", float64(r.Probes()))
		tr.count("wm.stream_peak_buffered_bits", float64(r.PeakBufferedBits()))
	}
	return nil
}
