package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pathmark/internal/iofault"
	"pathmark/internal/jobs"
	"pathmark/internal/obs"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
)

// The recognition service: `pathmark serve` turns the journaled jobs
// engine into a long-lived daemon. Clients POST a corpus job (suspect
// programs plus candidate keyfiles), poll its status, and fetch the
// canonical result manifest when it finishes. Every accepted job lives
// in its own directory under the job root — request.json (the submitted
// spec), journal.jsonl (the fsynced write-ahead grade log), result.json
// (the finished manifest) — so the daemon can be killed at any moment
// and the next start resumes every unfinished job from its journal,
// re-running only the grades that were in flight.
//
// Robustness posture:
//   - admission control: a semaphore bounds concurrently *running* jobs
//     (each job in turn bounds its own trace workers), and a cap on
//     tracked jobs refuses new submissions with 429 instead of queueing
//     without bound;
//   - per-request deadlines: the whole handler chain runs under
//     http.TimeoutHandler, so a stuck client or handler cannot pin a
//     connection forever — job execution is asynchronous and never tied
//     to a request's lifetime;
//   - graceful drain: SIGINT/SIGTERM flips /readyz to 503, stops
//     accepting connections, cancels the shared job context (running
//     jobs checkpoint — their journals are already durable through the
//     last finished grade) and waits for the runners to exit;
//   - disk-pressure degradation: a storage fault (ENOSPC, failed fsync)
//     flips the daemon read-only — new submissions and chunk uploads get
//     503 with Retry-After while /metrics, the health probes, and every
//     GET stay live — and a background probe re-enables writes once the
//     disk accepts a durable write again;
//   - corruption quarantine: a job whose log is proven corrupt mid-stream
//     (per-record checksums, see iofault.CorruptError) is moved into
//     quarantine/ under the root with a reason record; every other job
//     keeps running and the evidence is preserved for the operator.

// serveRequest is the POST /jobs body: programs and keys travel as
// text (the .pasm dump and the keyfile JSON document respectively), so
// a job can be submitted with curl and reproduced byte-for-byte later.
// With stream set, the request opens a stream job instead: no suspects
// travel with it — the client uploads the suspect's decoded trace
// bit-string in chunks via POST /jobs/{id}/stream as the suspect runs.
type serveRequest struct {
	Suspects []string            `json:"suspects,omitempty"` // .pasm program texts
	Keys     []string            `json:"keys"`               // keyfile JSON documents
	Stream   bool                `json:"stream,omitempty"`   // live-trace upload job
	Options  serveRequestOptions `json:"options"`
}

// serveRequestOptions is what a client may set: the grade fan-out and,
// for a stream job, the early-exit probe cadence. Everything else is
// server policy, at the jobs.Options and wm.StreamOpts defaults. A
// submission that names any other option is refused.
type serveRequestOptions struct {
	Workers    int `json:"workers,omitempty"`
	CheckEvery int `json:"check_every,omitempty"`

	unread error // a strict decode's error naming an unknown option
}

// UnmarshalJSON decodes the options leniently, as a restart reads
// request.json, and keeps what a strict decode says in unread. Only the
// options object is decoded twice: a strict decoder over the whole body
// would copy the program texts it carries.
func (o *serveRequestOptions) UnmarshalJSON(b []byte) error {
	type options serveRequestOptions
	if err := json.Unmarshal(b, (*options)(o)); err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	o.unread = dec.Decode(new(options))
	return nil
}

// streamChunkRequest is the POST /jobs/{id}/stream body: one chunk of
// the decoded trace bit-string as '0'/'1' characters, its starting bit
// offset, and the end-of-stream marker. Chunks at or below the
// committed offset are idempotent re-sends; a chunk past it is refused
// with 409 and the committed offset to resume from.
type streamChunkRequest struct {
	Offset int64  `json:"offset"`
	Bits   string `json:"bits"`
	Final  bool   `json:"final,omitempty"`
}

// jobStatus is the GET /jobs/{id} response. Beyond the lifecycle fields
// it carries the grade-stage aggregates this daemon process observed:
// scan volume, per-layer reject breakdown, retry/skip/failure counts.
// The aggregates cover grades settled in this process lifetime — grades
// finished before a restart live in the journal and the trace stream
// (GET /jobs/{id}/trace), which span lifetimes.
type jobStatus struct {
	ID        string `json:"id"`
	TraceID   string `json:"trace_id"` // == ID; the trace.jsonl stream ID
	Status    string `json:"status"`   // queued | running | done | failed | interrupted
	Completed int64  `json:"completed"`
	Total     int    `json:"total"`
	Error     string `json:"error,omitempty"`

	Retries         int64            `json:"retries,omitempty"`
	Skipped         int64            `json:"skipped,omitempty"` // breaker skips
	Failed          int64            `json:"failed,omitempty"`  // cells with no recognition
	Windows         int64            `json:"windows,omitempty"`
	Decrypted       int64            `json:"decrypted,omitempty"`
	Valid           int64            `json:"valid,omitempty"`
	RejectedByLayer map[string]int64 `json:"rejected_by_layer,omitempty"`

	// Stream-job fields: the durable bit offset an interrupted uploader
	// resumes from, and how many keys' recognizers have latched an early
	// verdict.
	Stream      bool  `json:"stream,omitempty"`
	Committed   int64 `json:"committed,omitempty"`
	SettledKeys int   `json:"settled_keys,omitempty"`
}

// serveJob is one tracked job: its directory on disk plus live status
// and the telemetry aggregates fed by the job engine's OnEvent hook.
type serveJob struct {
	id        string
	dir       string
	total     int
	completed atomic.Int64
	done      chan struct{}

	// stream is non-nil for live-trace upload jobs. streamMu serializes
	// feeds, the finishing flush, and the drain-time close; finishOnce
	// guards the done-channel close (Finish can be reached from an upload
	// request and from drain-time replay alike).
	stream     *jobs.StreamJob
	streamMu   sync.Mutex
	finishOnce sync.Once

	retries   atomic.Int64
	skipped   atomic.Int64
	failed    atomic.Int64
	windows   atomic.Int64
	decrypted atomic.Int64
	valid     atomic.Int64

	mu     sync.Mutex
	status string
	errMsg string
	rej    wm.LayerRejects
}

func (j *serveJob) setStatus(status, errMsg string) {
	j.mu.Lock()
	j.status, j.errMsg = status, errMsg
	j.mu.Unlock()
}

// observe folds one settled grade into the live aggregates, publishing
// the journaled-grade count last. Called from job worker goroutines.
func (j *serveJob) observe(ev jobs.GradeEvent) {
	defer j.completed.Store(int64(ev.Completed))
	if ev.Attempts > 1 {
		j.retries.Add(int64(ev.Attempts - 1))
	}
	if ev.Skipped {
		j.skipped.Add(1)
	}
	if ev.Rec == nil {
		j.failed.Add(1)
		return
	}
	j.windows.Add(int64(ev.Rec.Windows))
	j.decrypted.Add(int64(ev.Rec.Decrypted))
	j.valid.Add(int64(ev.Rec.ValidStatements))
	r := ev.Rec.RejectedByLayer
	j.mu.Lock()
	j.rej.Popcount += r.Popcount
	j.rej.Transitions += r.Transitions
	j.rej.Phase += r.Phase
	j.rej.Framing += r.Framing
	j.mu.Unlock()
}

func (j *serveJob) snapshot() jobStatus {
	j.mu.Lock()
	status, errMsg, rej := j.status, j.errMsg, j.rej
	j.mu.Unlock()
	st := jobStatus{
		ID: j.id, TraceID: j.id, Status: status,
		Completed: j.completed.Load(), Total: j.total,
		Error:     errMsg,
		Retries:   j.retries.Load(),
		Skipped:   j.skipped.Load(),
		Failed:    j.failed.Load(),
		Windows:   j.windows.Load(),
		Decrypted: j.decrypted.Load(),
		Valid:     j.valid.Load(),
	}
	if rej != (wm.LayerRejects{}) {
		st.RejectedByLayer = map[string]int64{
			"popcount":    int64(rej.Popcount),
			"transitions": int64(rej.Transitions),
			"phase":       int64(rej.Phase),
			"framing":     int64(rej.Framing),
		}
	}
	if j.stream != nil {
		st.Stream = true
		st.Committed = j.stream.Committed()
		st.SettledKeys = j.stream.SettledKeys()
		st.Completed = int64(st.SettledKeys)
	}
	return st
}

type serveConfig struct {
	root          string
	maxActive     int // concurrently running jobs (0 = GOMAXPROCS)
	maxJobs       int // tracked jobs before submissions get 429
	reqTimeout    time.Duration
	noSync        bool
	reg           *obs.Registry // nil = newServer builds one (the daemon is never blind)
	debug         bool          // mount /debug/pprof/*
	accessLog     io.Writer     // structured request log destination; nil = off
	fsys          iofault.FS    // nil = the real filesystem; chaos tests inject faults
	probeInterval time.Duration // read-only recovery probe cadence (0 = 5s)
}

func (c *serveConfig) fs() iofault.FS {
	if c.fsys != nil {
		return c.fsys
	}
	return iofault.OS
}

type server struct {
	cfg     serveConfig
	sem     chan struct{}
	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	draining atomic.Bool
	readOnly atomic.Bool // storage degraded: refuse writes, probe for recovery

	logMu sync.Mutex // serializes access-log lines

	mu   sync.Mutex
	jobs map[string]*serveJob
}

// newServer builds the service state and resumes every job directory
// found under the root: finished jobs are registered so their results
// stay fetchable, unfinished ones are re-submitted from their persisted
// request.json and pick up at their journal's high-water mark.
func newServer(cfg serveConfig) (*server, error) {
	if cfg.maxActive <= 0 {
		cfg.maxActive = runtime.GOMAXPROCS(0)
	}
	if cfg.maxJobs <= 0 {
		cfg.maxJobs = 64
	}
	if cfg.reg == nil {
		// The daemon always runs with a live registry: /metrics must
		// answer whether or not the operator passed -stats.
		cfg.reg = obs.NewRegistry()
	}
	if err := cfg.fs().MkdirAll(cfg.root, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.maxActive),
		baseCtx: ctx,
		cancel:  cancel,
		jobs:    map[string]*serveJob{},
	}
	if err := s.resumePending(); err != nil {
		cancel()
		return nil, err
	}
	return s, nil
}

// enterReadOnly flips the daemon into read-only mode after a storage
// fault. Submissions and chunk uploads get 503 + Retry-After; status,
// results, traces, metrics and health probes keep answering. A single
// background probe watches for the disk to accept durable writes again
// and clears the flag. Idempotent: concurrent faults start one probe.
func (s *server) enterReadOnly(cause error) {
	if !s.readOnly.CompareAndSwap(false, true) {
		return
	}
	s.cfg.reg.Counter("serve.readonly.entered").Add(1)
	fmt.Fprintf(os.Stderr, "pathmark: serve: storage fault: %v: entering read-only mode (new submissions get 503)\n", cause)
	s.wg.Add(1)
	go s.probeRecovery()
}

func (s *server) probeInterval() time.Duration {
	if s.cfg.probeInterval > 0 {
		return s.cfg.probeInterval
	}
	return 5 * time.Second
}

// probeRecovery periodically attempts a full durable write cycle (write,
// fsync, rename, dir fsync, remove) under the job root; the first success
// ends read-only mode.
func (s *server) probeRecovery() {
	defer s.wg.Done()
	t := time.NewTicker(s.probeInterval())
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			if err := s.probeStorage(); err != nil {
				continue
			}
			s.readOnly.Store(false)
			s.cfg.reg.Counter("serve.readonly.recovered").Add(1)
			fmt.Fprintln(os.Stderr, "pathmark: serve: storage recovered; leaving read-only mode")
			return
		}
	}
}

func (s *server) probeStorage() error {
	fs := s.cfg.fs()
	path := filepath.Join(s.cfg.root, ".storage-probe")
	if err := iofault.WriteFileAtomic(fs, path, []byte("probe\n")); err != nil {
		return err
	}
	return fs.Remove(path)
}

// unavailable refuses a mutating request while the daemon cannot accept
// writes — draining or read-only — and reports whether it did.
func (s *server) unavailable(w http.ResponseWriter) bool {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return true
	}
	if s.readOnly.Load() {
		secs := int(s.probeInterval() / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusServiceUnavailable,
			errors.New("read-only: storage degraded; reads stay available, retry writes later"))
		return true
	}
	return false
}

// quarantineDir moves a condemned job directory into quarantine/ with a
// reason record, keeping the daemon serving everything else.
func (s *server) quarantineDir(id, dir string, reason error) {
	dst, err := jobs.Quarantine(s.cfg.fs(), s.cfg.root, dir, reason)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pathmark: serve: job %s: quarantine failed: %v (condemned for: %v)\n", id, err, reason)
		if iofault.IsStorageFault(err) {
			s.enterReadOnly(err)
		}
		return
	}
	s.cfg.reg.Counter("serve.jobs.quarantined").Add(1)
	fmt.Fprintf(os.Stderr, "pathmark: serve: job %s: quarantined to %s: %v\n", id, dst, reason)
}

// observeSince records the time since start, in µs, in the named timing
// histogram.
func (s *server) observeSince(name string, start time.Time) {
	s.cfg.reg.TimingHistogram(name).Observe(time.Since(start).Microseconds())
}

// writeRequestFile persists the submitted request.json durably (atomic
// temp + fsync + rename + parent-dir fsync) before the submission is
// acknowledged; an existing file (an idempotent re-submit) is left alone.
func (s *server) writeRequestFile(dir string, rawRequest []byte) error {
	fs := s.cfg.fs()
	reqPath := filepath.Join(dir, "request.json")
	if _, err := fs.Stat(reqPath); err == nil {
		return nil
	}
	if err := iofault.WriteFileAtomic(fs, reqPath, rawRequest); err != nil {
		if iofault.IsStorageFault(err) {
			s.enterReadOnly(err)
		}
		return err
	}
	return nil
}

// admit admits one job, by one path whether it is new or resumed. With
// resume == "" it is a POST /jobs submission; at startup resume is the
// name of an unfinished job's directory. It builds the spec from the
// request (a client error is 400), takes its ID (the spec's content
// digest, so re-posting a tracked job answers 200 with it), opens the
// job directory, persists request.json and registers the job, then
// starts its runner or, for a stream whose final marker is already
// journaled, seals it. Only submissions meet the -max-jobs cap: a job
// that is resumed was accepted before the restart.
func (s *server) admit(raw []byte, req *serveRequest, resume string) (*serveJob, int, error) {
	switch {
	case req.Stream && len(req.Suspects) != 0:
		return nil, http.StatusBadRequest, errors.New("a stream job takes no suspects: the trace is uploaded in chunks")
	case req.Stream && len(req.Keys) == 0:
		return nil, http.StatusBadRequest, errors.New("need at least one key")
	case !req.Stream && (len(req.Suspects) == 0 || len(req.Keys) == 0):
		return nil, http.StatusBadRequest, errors.New("need at least one suspect and one key")
	}
	var progs []*vm.Program
	start := time.Now()
	for i, src := range req.Suspects {
		p, err := vm.Assemble(src)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("suspect %d: %w", i, err)
		}
		progs = append(progs, p)
	}
	if !req.Stream {
		s.observeSince("serve.ingest.assemble_us", start)
	}
	keys := make([]*wm.Key, len(req.Keys))
	for i, doc := range req.Keys {
		k, err := wm.LoadKey(strings.NewReader(doc))
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("key %d: %w", i, err)
		}
		keys[i] = k
	}
	// Nothing below reads req, so its decoded program texts are garbage
	// while the job directory is synced and request.json written.
	o, stream := req.Options, req.Stream
	var spec jobs.Spec
	var sspec jobs.StreamSpec
	var id string
	var err error
	if stream {
		sspec = jobs.StreamSpec{Keys: keys, Opts: jobs.StreamOptions{
			Workers:    o.Workers,
			CheckEvery: o.CheckEvery,
			NoSync:     s.cfg.noSync,
			Obs:        s.cfg.reg,
			FS:         s.cfg.fsys,
		}}
		id, err = jobs.StreamSpecID(sspec)
	} else {
		spec = jobs.Spec{Suspects: progs, Keys: keys, Opts: jobs.Options{
			Workers: o.Workers,
			Obs:     s.cfg.reg,
			NoSync:  s.cfg.noSync,
			FS:      s.cfg.fsys,
		}}
		start = time.Now()
		id, err = spec.ID() // keeps the suspect digests for the runner's Open
		s.observeSince("serve.ingest.digest_us", start)
	}
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if resume != "" && id != resume {
		return nil, http.StatusBadRequest, errors.New("request does not digest to its directory name")
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j, http.StatusOK, nil
	}
	if resume == "" && len(s.jobs) >= s.cfg.maxJobs {
		return nil, http.StatusTooManyRequests,
			fmt.Errorf("job table full (%d jobs); retry after some finish or restart with a fresh root", s.cfg.maxJobs)
	}
	dir := filepath.Join(s.cfg.root, id)
	j := &serveJob{id: id, dir: dir, done: make(chan struct{})}
	if stream {
		// Opening replays the chunk journal, so the committed offset in
		// the answer is already durable.
		j.stream, err = jobs.OpenStream(dir, sspec)
		if iofault.IsCorrupt(err) {
			// The old journal is proven corrupt mid-log: move it aside as
			// evidence. A submission is accepted into a fresh one; a resume
			// has no client to hand it to and is skipped.
			s.quarantineDir(id, dir, err)
			if resume == "" {
				j.stream, err = jobs.OpenStream(dir, sspec)
			}
		}
		j.total, j.status = len(keys), "streaming"
	} else {
		err = iofault.MkdirSynced(s.cfg.fs(), dir)
		j.total, j.status = len(progs)*len(keys), "queued"
	}
	if err != nil {
		if iofault.IsStorageFault(err) {
			s.enterReadOnly(err)
		}
		return nil, http.StatusInternalServerError, err
	}
	// Persist the request before acknowledging it: a daemon restart
	// rebuilds the spec from this file and resumes the journal.
	if err := s.writeRequestFile(dir, raw); err != nil {
		if j.stream != nil {
			j.stream.Close()
		}
		return nil, http.StatusInternalServerError, err
	}
	s.jobs[id] = j
	if resume == "" {
		s.cfg.reg.Counter("serve.jobs.submitted").Add(1)
	} else {
		s.cfg.reg.Counter("serve.jobs.resumed").Add(1)
	}
	switch {
	case j.stream == nil:
		spec.Opts.OnEvent = j.observe
		s.wg.Add(1)
		go s.runJob(j, spec)
	case j.stream.Finished():
		// The final marker outlived the result file (a crash between
		// Finish's journal append and the manifest write, or the result
		// was deleted): seal the stream now.
		if err := s.finishStream(j); err != nil {
			return nil, http.StatusInternalServerError, err
		}
	}
	return j, http.StatusAccepted, nil
}

// finishStream seals a stream job and flips its status; the caller must
// hold j.streamMu or otherwise have exclusive use of the job.
func (s *server) finishStream(j *serveJob) error {
	_, err := j.stream.Finish()
	if err != nil {
		j.setStatus("failed", err.Error())
		s.cfg.reg.Counter("serve.jobs.failed").Add(1)
	} else {
		j.setStatus("done", "")
		s.cfg.reg.Counter("serve.jobs.completed").Add(1)
	}
	j.finishOnce.Do(func() { close(j.done) })
	return err
}

func (s *server) runJob(j *serveJob, spec jobs.Spec) {
	defer s.wg.Done()
	defer close(j.done)
	select {
	case s.sem <- struct{}{}:
	case <-s.baseCtx.Done():
		// Never started; the journal (if any) is untouched and the job
		// resumes on the next daemon start.
		j.setStatus("interrupted", "daemon draining before the job started")
		return
	}
	defer func() { <-s.sem }()
	j.setStatus("running", "")
	_, err := jobs.Execute(s.baseCtx, j.dir, spec)
	switch {
	case err != nil && s.baseCtx.Err() != nil:
		// Drain checkpoint: every finished grade is journaled, the next
		// start re-runs only what was in flight.
		j.setStatus("interrupted", err.Error())
		s.cfg.reg.Counter("serve.jobs.interrupted").Add(1)
	case iofault.IsCorrupt(err):
		// The job's own log is proven rotten mid-stream: move the directory
		// aside with the evidence; every other job keeps running.
		s.quarantineDir(j.id, j.dir, err)
		j.setStatus("quarantined", err.Error())
	case err != nil && iofault.IsStorageFault(err):
		// The disk, not the job, is sick. The journal is durable through
		// the last committed grade; park the job and stop taking writes.
		j.setStatus("interrupted", err.Error())
		s.cfg.reg.Counter("serve.jobs.interrupted").Add(1)
		s.enterReadOnly(err)
	case err != nil:
		j.setStatus("failed", err.Error())
		s.cfg.reg.Counter("serve.jobs.failed").Add(1)
	default:
		j.completed.Store(int64(j.total))
		j.setStatus("done", "")
		s.cfg.reg.Counter("serve.jobs.completed").Add(1)
	}
}

// resumePending walks the job root at startup: directories with a
// result.json register as finished (results stay fetchable across
// restarts), directories with only a request.json go through admit, the
// path a submission takes, and resume from their journal.
func (s *server) resumePending() error {
	entries, err := os.ReadDir(s.cfg.root)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "quarantine" {
			continue
		}
		id := e.Name()
		dir := filepath.Join(s.cfg.root, id)
		raw, err := s.cfg.fs().ReadFile(filepath.Join(dir, "request.json"))
		if err != nil {
			continue // not a job directory
		}
		if data, err := s.cfg.fs().ReadFile(jobs.ResultPath(dir)); err == nil {
			// Finished before the restart: recover the dimensions from the
			// result manifest and register it as done. A stream manifest
			// carries one grade per key and no suspects.
			var dims struct {
				Suspects int  `json:"suspects"`
				Keys     int  `json:"keys"`
				Stream   bool `json:"stream"`
			}
			if json.Unmarshal(data, &dims) != nil {
				s.quarantineDir(id, dir, errors.New("unparseable result.json"))
				continue
			}
			total := dims.Suspects * dims.Keys
			if dims.Stream {
				total = dims.Keys
			}
			j := &serveJob{id: id, dir: dir, total: total,
				done: make(chan struct{}), status: "done"}
			j.completed.Store(int64(j.total))
			close(j.done)
			s.jobs[id] = j
			continue
		}
		var req serveRequest
		if err := decodeServeRequest(raw, &req); err != nil {
			s.quarantineDir(id, dir, fmt.Errorf("unreadable request.json: %w", err))
			continue
		}
		if _, _, err := s.admit(raw, &req, id); err != nil {
			fmt.Fprintf(os.Stderr, "pathmark: serve: job %s: resume: %v\n", id, err)
		}
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxBodyBytes bounds a request body.
const maxBodyBytes = 64 << 20

// readBody reads the request body, or answers the error and returns false:
// 413 for a body over maxBodyBytes, 400 for one that could not be read
// whole (shorter than its Content-Length, or a broken connection). A body
// that states its length within the limit is read into one buffer of that
// size; any other grows by doubling, and no buffer exceeds the limit.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := readLimited(w, r)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
		}
		return nil, false
	}
	return raw, true
}

func readLimited(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxBodyBytes {
		return nil, &http.MaxBytesError{Limit: maxBodyBytes}
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	size := int64(512)
	if r.ContentLength >= 0 {
		size = r.ContentLength + 1 // room for the read that meets EOF
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), len(buf)+min(len(buf), maxBodyBytes+1-len(buf)))
			copy(grown, buf)
			buf = grown
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.unavailable(w) {
		return
	}
	raw, ok := readBody(w, r)
	if !ok {
		return
	}
	start := time.Now()
	var req serveRequest
	err := decodeServeRequest(raw, &req)
	s.observeSince("serve.ingest.decode_us", start)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	// An option the daemon does not read is refused, naming it, rather
	// than the job run without it.
	if err := req.Options.unread; err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request options: %w", err))
		return
	}
	j, code, err := s.admit(raw, &req, "")
	if err != nil {
		writeError(w, code, err)
		return
	}
	if code == http.StatusAccepted {
		// Stitch the HTTP request into the job's trace stream: the
		// job-side events carry the job ID, this one links it to the
		// request trace ID from the access log.
		if tr, terr := obs.OpenTraceFileFS(s.cfg.fs(), jobs.TracePath(j.dir), j.id, false); terr == nil {
			tr.Event("job.submitted", nil, map[string]string{"http_trace": requestTraceID(r)})
			tr.Close()
		}
	}
	writeJSON(w, code, j.snapshot())
}

func (s *server) lookup(r *http.Request) (*serveJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	if st := j.snapshot(); st.Status != "done" {
		writeError(w, http.StatusConflict, fmt.Errorf("job is %s, not done", st.Status))
		return
	}
	data, err := s.cfg.fs().ReadFile(jobs.ResultPath(j.dir))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleStreamChunk accepts one uploaded trace chunk for a stream job.
// The chunk is journaled write-ahead before the response, so a 200's
// committed offset survives kill -9 on either side. A gap between the
// chunk and the committed offset is a 409 carrying that offset — the
// uploader's resume point.
func (s *server) handleStreamChunk(w http.ResponseWriter, r *http.Request) {
	if s.unavailable(w) {
		return
	}
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	if j.stream == nil {
		writeError(w, http.StatusConflict, errors.New("not a stream job"))
		return
	}
	raw, ok := readBody(w, r)
	if !ok {
		return
	}
	var chunk streamChunkRequest
	if err := json.Unmarshal(raw, &chunk); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad chunk body: %w", err))
		return
	}
	j.streamMu.Lock()
	defer j.streamMu.Unlock()
	if len(chunk.Bits) > 0 {
		if _, err := j.stream.Feed(chunk.Offset, chunk.Bits); err != nil {
			switch {
			case errors.Is(err, jobs.ErrStreamGap), errors.Is(err, jobs.ErrStreamFinished):
				writeJSON(w, http.StatusConflict, map[string]any{
					"error": err.Error(), "committed": j.stream.Committed(),
				})
			case iofault.IsStorageFault(err):
				// The chunk's journal append didn't commit: the uploader can
				// re-send it from the committed offset once the disk recovers.
				s.enterReadOnly(err)
				s.unavailable(w)
			default:
				writeError(w, http.StatusBadRequest, err)
			}
			return
		}
		s.cfg.reg.Counter("serve.stream.chunks").Add(1)
		s.cfg.reg.Counter("serve.stream.bits").Add(int64(len(chunk.Bits)))
	}
	if chunk.Final && j.snapshot().Status == "streaming" {
		if err := s.finishStream(j); err != nil {
			if iofault.IsStorageFault(err) {
				s.enterReadOnly(err)
			}
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	data, err := s.cfg.fs().ReadFile(jobs.TracePath(j.dir))
	if err != nil {
		writeError(w, http.StatusNotFound, errors.New("job has no trace stream"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	// The job's writer may be mid-append: serve only the complete,
	// well-formed prefix so a poller never chokes on a torn last line.
	w.Write(obs.CompleteTraceLines(data))
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.reg.WritePrometheus(w, "pathmark")
}

// ctxTraceID carries the per-request trace ID through the handler chain.
type ctxTraceIDKey struct{}

func requestTraceID(r *http.Request) string {
	id, _ := r.Context().Value(ctxTraceIDKey{}).(string)
	return id
}

func newTraceID() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// statusWriter captures the response status and byte count for the
// access log and the http.* metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// instrument wraps the full HTTP surface: every request gets a minted
// trace ID (echoed as X-Trace-Id and available to handlers), the http.*
// counters and duration histogram, and — except for the health probes,
// which fire every few seconds and would drown the log — one structured
// access-log line.
func (s *server) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace := newTraceID()
		w.Header().Set("X-Trace-Id", trace)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), ctxTraceIDKey{}, trace)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		dur := time.Since(start)

		reg := s.cfg.reg
		reg.Counter("http.requests").Add(1)
		reg.Counter(fmt.Sprintf("http.status.%dxx", sw.status/100)).Add(1)
		reg.Counter("http.bytes_out").Add(sw.bytes)
		reg.TimingHistogram("http.duration_us").Observe(dur.Microseconds())

		if s.cfg.accessLog == nil || r.URL.Path == "/healthz" || r.URL.Path == "/readyz" {
			return
		}
		line, err := json.Marshal(map[string]any{
			"time":   start.UTC().Format(time.RFC3339Nano),
			"method": r.Method,
			"path":   r.URL.Path,
			"status": sw.status,
			"bytes":  sw.bytes,
			"dur_us": dur.Microseconds(),
			"trace":  trace,
		})
		if err != nil {
			return
		}
		s.logMu.Lock()
		s.cfg.accessLog.Write(append(line, '\n'))
		s.logMu.Unlock()
	})
}

// handler assembles the HTTP surface. Everything except the health
// probes, metrics, and debug handlers runs under the per-request
// deadline; the whole tree runs under the instrument middleware.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("POST /jobs/{id}/stream", s.handleStreamChunk)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	var h http.Handler = mux
	if s.cfg.reqTimeout > 0 {
		h = http.TimeoutHandler(h, s.cfg.reqTimeout, `{"error":"request deadline exceeded"}`)
	}
	outer := http.NewServeMux()
	outer.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	outer.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		if s.readOnly.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "read-only\n")
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	})
	outer.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.debug {
		// Explicit registrations: importing net/http/pprof for its side
		// effect would mount the handlers on DefaultServeMux, which this
		// server deliberately does not use.
		outer.HandleFunc("GET /debug/pprof/", pprof.Index)
		outer.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	outer.Handle("/", h)
	return s.instrument(outer)
}

// drain flips readiness off, cancels the shared job context so running
// jobs checkpoint at their journals, and waits for every runner. Stream
// jobs have no runner — their chunk journals are already durable through
// the last Feed — so drain just releases their file handles; the next
// daemon start replays them to the committed offset.
func (s *server) drain() {
	s.draining.Store(true)
	s.cancel()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if j.stream != nil {
			j.streamMu.Lock()
			j.stream.Close()
			j.streamMu.Unlock()
		}
	}
}

// cmdServe runs the recognition daemon until SIGINT/SIGTERM.
func cmdServe(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8947", "listen address")
	dir := fs.String("dir", "", "job root directory (journals, results; required)")
	maxActive := fs.Int("max-active", 0, "concurrently running jobs (0 = one per CPU)")
	maxJobs := fs.Int("max-jobs", 64, "tracked jobs before submissions are refused with 429")
	reqTimeout := fs.Duration("request-timeout", 10*time.Second, "per-request handler deadline")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "deadline for in-flight HTTP requests on shutdown")
	noSync := fs.Bool("no-sync", false, "skip the per-record journal fsync (faster, loses tail grades on a crash)")
	probeEvery := fs.Duration("recovery-probe", 5*time.Second, "how often read-only mode probes the disk for recovery")
	debug := fs.Bool("debug", false, "mount /debug/pprof/*")
	accessLog := fs.Bool("access-log", true, "write a structured request log line per request to stderr")
	var ocli obs.CLI
	ocli.Register(fs)
	fs.Parse(args)
	if *dir == "" {
		fatal(fmt.Errorf("missing -dir"))
	}
	reg, err := ocli.Begin()
	if err != nil {
		fatal(err)
	}
	obsFlush = func() { ocli.Finish() }
	if reg == nil {
		// -stats not set: the daemon still runs fully instrumented, it
		// just skips the exit-time summary.
		reg = obs.NewRegistry()
	}

	var logw io.Writer
	if *accessLog {
		logw = os.Stderr
	}
	srv, err := newServer(serveConfig{
		root: *dir, maxActive: *maxActive, maxJobs: *maxJobs,
		reqTimeout: *reqTimeout, noSync: *noSync, reg: reg,
		debug: *debug, accessLog: logw, probeInterval: *probeEvery,
	})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.handler(), ReadHeaderTimeout: 5 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "pathmark: serve: draining (readyz now 503; running jobs checkpoint to their journals)")
		srv.draining.Store(true)
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		httpSrv.Shutdown(sctx)
		srv.drain()
	}()

	fmt.Fprintf(os.Stderr, "pathmark: serve: listening on %s, job root %s\n", ln.Addr(), *dir)
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-shutdownDone
	if err := ocli.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "pathmark: stats:", err)
	}
	return exitOK
}
