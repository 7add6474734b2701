package jobs

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pathmark/internal/bitstring"
	"pathmark/internal/cache"
	"pathmark/internal/iofault"
	"pathmark/internal/obs"
	"pathmark/internal/par"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
)

// Options tunes one corpus job. The zero value is usable: default retry
// and breaker policies, GOMAXPROCS workers, fsync on every record.
type Options struct {
	// Workers bounds the grades running concurrently within a wave:
	// 0 picks runtime.GOMAXPROCS(0), 1 forces the serial path. Results
	// are bit-identical at any worker count.
	Workers int
	// StepLimit and MaxHeap are passed through to every trace (see
	// wm.CorpusOpts); every grade scans with wm.DefaultFilters. Each
	// grade's scan runs serially unless a wave has fewer trace units
	// (wm.TraceUnits) than Workers: then the idle worker tier is folded
	// into each grade's scan fan-out (intra-suspect sharding), so a single
	// huge suspect still uses the whole tier. Scan results are
	// bit-identical at any scan worker count, so the adaptive fan-out
	// never changes results.
	StepLimit int64
	MaxHeap   int64
	// GradeTimeout, when > 0, deadlines each grade attempt. A timed-out
	// attempt surfaces as a retryable resource/stage error.
	GradeTimeout time.Duration
	// Retry and Breaker set the per-grade retry policy and the per-key
	// circuit breaker.
	Retry   RetryPolicy
	Breaker BreakerPolicy
	// Obs, when non-nil, receives the jobs.run span and the jobs.*
	// counters (grades, retries, breaker trips, journal traffic, resume
	// savings).
	Obs *obs.Registry
	// Caches is ignored: perfbench-only, removed by ROADMAP item 1.
	Caches *wm.FleetCaches
	// NoSync skips the per-record fsync. Only for tests and throwaway
	// jobs: without the sync, a crash can lose the last grades (never
	// corrupt the journal — replay still recovers the synced prefix).
	NoSync bool
	// OnEvent, when non-nil, runs after each grade settles (journal
	// record durable, in-memory outcome recorded), with the grade's
	// telemetry payload and the cumulative number of journaled grades.
	// It serves progress reporting, the serve daemon's live job status
	// (per-layer reject counts without re-reading the journal), and
	// checkpoint fault injection — a hook that calls os.Exit simulates
	// kill -9 at an exact checkpoint, which is how the crash-resume tests
	// and the fleet grade -crash-after flag work. Called from worker
	// goroutines; implementations synchronize themselves.
	OnEvent func(GradeEvent)
	// FS, when non-nil, is the filesystem every durable artifact of the
	// job flows through — journal, trace, result manifest. nil means the
	// real filesystem (iofault.OS); tests and the storage chaos harness
	// substitute an iofault.FaultFS to make writes, syncs, renames and
	// reads fail on a seeded schedule.
	FS iofault.FS
	// DeterministicTrace omits the schedule-dependent stampings
	// (sequence numbers, timestamps) from the job's trace.jsonl, leaving
	// only input-derived event content:
	// sorted trace lines are then byte-identical at any worker count.
	DeterministicTrace bool

	// gradeHook, when non-nil, runs before every grade attempt and may
	// return an error to inject in place of the real grade. In-package
	// fault-injection tests only.
	gradeHook func(s, k, attempt int) error
}

// fs resolves the effective filesystem: Options.FS or the real one.
func (o *Options) fs() iofault.FS {
	if o.FS != nil {
		return o.FS
	}
	return iofault.OS
}

// Spec is the job's identity: what to grade, against what, under which
// result-affecting options. Two Specs digest equal exactly when their
// suspects, keys, and result-affecting options (step/heap limits,
// effective filter stack, breaker policy) match — scheduling knobs like
// Workers, retry pacing, or the scan kernel are excluded, since they
// must not change results.
type Spec struct {
	Suspects []*vm.Program
	Keys     []*wm.Key
	Opts     Options

	// progDigests is wm.ProgramDigest of each suspect, kept by the first
	// digest pass so that Open of a spec whose ID was taken reuses it.
	progDigests []cache.Digest
}

// ID returns the job ID (hex content digest) Open would give the spec,
// without touching disk. It keeps the suspects' digests on the spec, so
// Open or Execute of this value (or a copy of it) does not digest them
// again; Suspects must not change afterwards.
func (sp *Spec) ID() (string, error) {
	d, err := sp.digest()
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(d[:]), nil
}

// SpecID is spec.ID() on a copy: callers that name job directories
// after the ID need it before Open.
func SpecID(spec Spec) (string, error) { return spec.ID() }

// digest content-addresses the spec; the journal header pins it so a
// resume over a journal from a different job is refused.
func (sp *Spec) digest() (cache.Digest, error) {
	// v2: the prefilter band ints were replaced by the six ints of the
	// filter stack (popcount, transitions, phase bands).
	d := digestParts{[]byte("pathmark.job.v2")}
	d.num(int64(len(sp.Suspects)))
	d.num(int64(len(sp.Keys)))
	if len(sp.progDigests) != len(sp.Suspects) {
		sp.progDigests = make([]cache.Digest, len(sp.Suspects))
		for i, p := range sp.Suspects {
			sp.progDigests[i] = wm.ProgramDigest(p)
		}
	}
	for _, pd := range sp.progDigests {
		d = append(d, append([]byte(nil), pd[:]...))
	}
	if err := d.keys(sp.Keys, "key"); err != nil {
		return cache.Digest{}, err
	}
	d.num(sp.Opts.StepLimit)
	d.num(sp.Opts.MaxHeap)
	d.filters()
	d.num(int64(sp.Opts.Breaker.threshold()))
	d.num(int64(sp.Opts.Breaker.wave()))
	return cache.DigestBytes(d...), nil
}

// digestParts collects the byte strings a job or stream spec's content
// digest covers, in order.
type digestParts [][]byte

func (d *digestParts) num(v int64) { *d = append(*d, strconv.AppendInt(nil, v, 10)) }

// keys appends each key's saved keyfile document; what names the key in
// an error.
func (d *digestParts) keys(keys []*wm.Key, what string) error {
	for i, k := range keys {
		var buf bytes.Buffer
		if err := wm.SaveKey(&buf, k); err != nil {
			return fmt.Errorf("jobs: digesting %s %d: %w", what, i, err)
		}
		*d = append(*d, buf.Bytes())
	}
	return nil
}

// filters appends the six ints of the filter stack. The stack is always
// wm.DefaultFilters now, but its ints stay in the digests so every
// persisted job ID is unchanged.
func (d *digestParts) filters() {
	f := wm.DefaultFilters
	for _, v := range []int{f.Popcount.Lo, f.Popcount.Hi, f.Transitions.Lo, f.Transitions.Hi, f.Phase.Lo, f.Phase.Hi} {
		d.num(int64(v))
	}
}

// GradeEvent is the telemetry payload delivered to Options.OnEvent when
// a grade settles. Rec is nil for hard failures and breaker skips; Err
// carries the final attempt's error message ("" on clean success).
// Completed counts the job's journaled grades at this point, restored
// from the journal plus settled by this process, this grade included.
type GradeEvent struct {
	S, K      int
	Attempts  int
	Skipped   bool
	Err       string
	Rec       *wm.Recognition
	Completed int
}

// outcome is one settled grade.
type outcome struct {
	rec      *wm.Recognition
	err      error // live error when executed this process, else rebuilt from errStr
	errStr   string
	attempts int
	skipped  bool
}

// Job is a journaled corpus job bound to a directory. Open it, Run it
// (possibly across several processes — each Run picks up where the
// journal ends), then write the result manifest.
type Job struct {
	dir     string
	spec    Spec
	digest  cache.Digest
	journal *WAL
	trace   *obs.Trace // nil when trace.jsonl could not be opened

	mu        sync.Mutex
	outcomes  [][]*outcome
	completed int // journaled grades, restored + new
	reused    int // grades restored from the journal at Open
}

// Open binds a job to dir, creating the directory and journal on first
// use and replaying an existing journal on resume. A journal written by
// a different spec (other suspects, keys, or result-affecting options)
// fails with ErrJournalMismatch.
func Open(dir string, spec Spec) (*Job, error) {
	if len(spec.Suspects) == 0 {
		return nil, errors.New("jobs: a job needs at least one suspect")
	}
	if len(spec.Keys) == 0 {
		return nil, errors.New("jobs: a job needs at least one candidate key")
	}
	digest, err := spec.digest()
	if err != nil {
		return nil, err
	}
	fs := spec.Opts.fs()
	if err := iofault.MkdirSynced(fs, dir); err != nil {
		return nil, fmt.Errorf("jobs: create job dir: %w", err)
	}

	j := &Job{dir: dir, spec: spec, digest: digest}
	j.outcomes = make([][]*outcome, len(spec.Suspects))
	for s := range j.outcomes {
		j.outcomes[s] = make([]*outcome, len(spec.Keys))
	}

	want := journalHeader{
		V: journalVersion, Type: "header", Job: j.ID(),
		Suspects: len(spec.Suspects), Keys: len(spec.Keys),
	}
	g := &gradeReplay{want: want}
	jr, err := OpenWAL(fs, JournalPath(dir), want, !spec.Opts.NoSync, g.header, g.record)
	if err != nil {
		return nil, err
	}
	for _, r := range g.recs {
		rec, err := decodeRecognition(r.Rec)
		if err != nil {
			_ = jr.Close()
			return nil, fmt.Errorf("jobs: journal grade (%d,%d): %w", r.S, r.K, err)
		}
		o := &outcome{rec: rec, errStr: r.Err, attempts: r.Attempts, skipped: r.Skipped}
		if r.Err != "" {
			o.err = errors.New(r.Err)
		}
		// Duplicates can only arise from journals stitched together by
		// hand; last record wins, matching append order.
		if j.outcomes[r.S][r.K] == nil {
			j.completed++
			j.reused++
		}
		j.outcomes[r.S][r.K] = o
	}
	j.journal = jr

	// The trace rides next to the journal but never gates it: a failed
	// trace open degrades to no telemetry, not a failed job. The trace
	// ID is the job ID, so a resumed job's second lifetime appends to
	// the same stream under the same ID.
	if tr, terr := obs.OpenTraceFileFS(fs, TracePath(dir), j.ID(), spec.Opts.DeterministicTrace); terr == nil {
		j.trace = tr
	}
	j.trace.Event("job.open", map[string]int64{
		"suspects": int64(len(spec.Suspects)),
		"keys":     int64(len(spec.Keys)),
		"resumed":  int64(j.reused),
	}, nil)
	return j, nil
}

// ID is the job's content address in hex — stable across processes for
// the same spec.
func (j *Job) ID() string { return hex.EncodeToString(j.digest[:]) }

// Reused reports how many grades this process restored from the journal
// instead of executing — the resume savings.
func (j *Job) Reused() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.reused
}

// Progress reports journaled grades vs the matrix size.
func (j *Job) Progress() (completed, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.completed, len(j.spec.Suspects) * len(j.spec.Keys)
}

// Close releases the journal and the trace. The job directory and its
// contents stay.
func (j *Job) Close() error {
	_ = j.trace.Close() // trace is telemetry; it never gates the job
	return j.journal.Close()
}

// settle journals one grade and records it in memory; the journal write
// comes first (write-ahead), so a crash between the two re-reads it from
// disk next time.
func (j *Job) settle(s, k int, o *outcome) error {
	rec := gradeRecord{
		Type: "grade", S: s, K: k,
		Attempts: o.attempts, Skipped: o.skipped, Err: o.errStr,
		Rec: encodeRecognition(o.rec),
	}
	if err := j.journal.Append(rec); err != nil {
		return err
	}
	j.mu.Lock()
	if j.outcomes[s][k] == nil {
		j.completed++
	}
	j.outcomes[s][k] = o
	n := j.completed
	j.mu.Unlock()
	// Publish to every telemetry surface: the trace stream and registry
	// (via the shared emitter), then the OnEvent callback. Grades restored
	// from the journal at Open never pass through here: their events were
	// emitted by the lifetime that ran them.
	emitGradeEvents(j.trace, j.spec.Opts.Obs, s, k, o)
	if j.spec.Opts.OnEvent != nil {
		j.spec.Opts.OnEvent(GradeEvent{
			S: s, K: k, Attempts: o.attempts, Skipped: o.skipped,
			Err: o.errStr, Rec: o.rec, Completed: n,
		})
	}
	return nil
}

// emitGradeEvents publishes one settled (suspect, key) outcome to the
// trace stream (stage events traced → scanned → voted → done) and the
// registry (scan-layer counters — each grade scans without a registry,
// so this is where per-layer rejects reach /metrics). Shared
// by corpus jobs and stream jobs so both speak the same grade.* event
// schema and any trace consumer (serve status aggregation, pathmark
// top) reads either without caring which engine produced the stream.
func emitGradeEvents(trace *obs.Trace, reg *obs.Registry, s, k int, o *outcome) {
	sk := map[string]int64{"s": int64(s), "k": int64(k)}
	attrs := func(extra map[string]int64) map[string]int64 {
		m := map[string]int64{"s": int64(s), "k": int64(k)}
		for key, v := range extra {
			m[key] = v
		}
		return m
	}
	switch {
	case o.skipped:
		trace.Event("grade.skipped", sk, nil)
	case o.rec != nil:
		rec := o.rec
		trace.Event("grade.trace", attrs(map[string]int64{
			"trace_bits": int64(rec.TraceBits),
		}), nil)
		trace.Event("grade.scan", attrs(map[string]int64{
			"windows":            int64(rec.Windows),
			"decrypted":          int64(rec.Decrypted),
			"valid":              int64(rec.ValidStatements),
			"reject_popcount":    int64(rec.RejectedByLayer.Popcount),
			"reject_transitions": int64(rec.RejectedByLayer.Transitions),
			"reject_phase":       int64(rec.RejectedByLayer.Phase),
			"reject_framing":     int64(rec.RejectedByLayer.Framing),
		}), nil)
		trace.Event("grade.vote", attrs(map[string]int64{
			"unique":        int64(rec.UniqueStatements),
			"voted_out":     int64(rec.VotedOut),
			"survivors":     int64(rec.Survivors),
			"confidence_bp": int64(rec.Confidence * 10000),
		}), nil)
		done := attrs(map[string]int64{"attempts": int64(o.attempts)})
		var labels map[string]string
		if o.errStr != "" {
			labels = map[string]string{"err": o.errStr}
		}
		trace.Event("grade.done", done, labels)

		reg.Counter("scan.reject.popcount").Add(int64(rec.RejectedByLayer.Popcount))
		reg.Counter("scan.reject.transitions").Add(int64(rec.RejectedByLayer.Transitions))
		reg.Counter("scan.reject.phase").Add(int64(rec.RejectedByLayer.Phase))
		reg.Counter("scan.reject.framing").Add(int64(rec.RejectedByLayer.Framing))
		reg.Counter("scan.decrypted").Add(int64(rec.Decrypted))
		reg.Counter("recognize.windows_total").Add(int64(rec.Windows))
		reg.Counter("recognize.valid_total").Add(int64(rec.ValidStatements))
		reg.Histogram("grade.trace_bits").Observe(int64(rec.TraceBits))
	default:
		trace.Event("grade.done", attrs(map[string]int64{
			"attempts": int64(o.attempts), "failed": 1,
		}), map[string]string{"err": o.errStr})
	}
}

// unitTrace is one trace unit's latest trace outcome, value or failure,
// shared by the unit's grades (see runUnit).
type unitTrace struct {
	p     *vm.Program
	input []int64
	bits  *bitstring.Bits
	err   error
	stale bool  // no outcome yet, or the last attempt produced no recognition
	runs  int64 // tracing runs so far
}

func (u *unitTrace) get(opts wm.CorpusOpts) (*bitstring.Bits, error) {
	if u.stale {
		u.bits, u.err = wm.TraceBits(u.p, u.input, opts)
		u.stale = false
		u.runs++
	}
	return u.bits, u.err
}

// runUnit grades one trace unit's cells in order, each under the retry
// policy and settled (journaled) on its own. A grade's first attempt
// reuses the unit's latest trace outcome, so a suspect whose trace fails
// deterministically costs one trace, not one per key; a retry after an
// attempt that produced no recognition traces again, since the failure
// may have been transient. It stops before a grade once stop reports a
// journal failure or cancellation, and after an interrupted grade, which
// stays unsettled and re-runs on resume.
func (j *Job) runUnit(ctx context.Context, unit []wm.Cell, scanWorkers int, stop func() bool) (ran, traces int64, err error) {
	ut := &unitTrace{p: j.spec.Suspects[unit[0].S], input: j.spec.Keys[unit[0].K].Input, stale: true}
	for _, c := range unit {
		if stop() {
			break
		}
		o := j.runGrade(ctx, c, ut, scanWorkers)
		if o == nil {
			break
		}
		if err = j.settle(c.S, c.K, o); err != nil {
			break
		}
		ran++
	}
	return ran, ut.runs, err
}

// runGrade executes one grade under the retry policy (RetryPolicy.Do),
// tracing through ut. Returns nil when the job context was cancelled
// mid-grade — the grade is left unsettled and re-runs on resume.
func (j *Job) runGrade(ctx context.Context, c wm.Cell, ut *unitTrace, scanWorkers int) *outcome {
	opts := j.spec.Opts
	var rec *wm.Recognition
	attempt := func(n int) error {
		gctx := ctx
		if opts.GradeTimeout > 0 {
			var cancel context.CancelFunc
			gctx, cancel = context.WithTimeout(ctx, opts.GradeTimeout)
			defer cancel()
		}
		rec = nil
		if opts.gradeHook != nil {
			if err := opts.gradeHook(c.S, c.K, n); err != nil {
				return err
			}
		}
		bits, err := ut.get(wm.CorpusOpts{StepLimit: opts.StepLimit, MaxHeap: opts.MaxHeap, Ctx: gctx})
		if err != nil {
			return err
		}
		rec, err = wm.RecognizeBits(bits, j.spec.Keys[c.K], wm.RecognizeOpts{Workers: scanWorkers, Ctx: gctx})
		return err
	}
	onRetry := func(n int, err error) {
		if rec == nil {
			ut.stale = true
		}
		opts.Obs.Counter("jobs.retries").Add(1)
		j.trace.Event("grade.retry", map[string]int64{
			"s": int64(c.S), "k": int64(c.K), "attempt": int64(n),
		}, map[string]string{"err": err.Error()})
	}
	n, interrupted, err := opts.Retry.Do(ctx, j.digest, c.S, c.K, attempt, onRetry)
	if interrupted {
		return nil // interruption, not failure
	}
	o := &outcome{rec: rec, err: err, attempts: n}
	if err != nil {
		o.errStr = err.Error()
	}
	return o
}

// Run executes every grade the journal does not already hold and
// returns the assembled result. It is safe to call again after an
// interruption (in a new process via Open, or the same one): completed
// grades are never re-executed, and the final Result is bit-identical to
// an uninterrupted run's. The error is non-nil only when the run could
// not finish — cancellation (wrapping ctx.Err()) or journal I/O failure;
// per-grade failures land in the result matrices instead. A journal I/O
// failure halts the run: once a settle fails, no worker starts another
// grade; only grades already running finish.
func (j *Job) Run(ctx context.Context) (*Result, error) {
	opts := j.spec.Opts
	span := opts.Obs.Start("jobs.run")
	defer span.Finish()

	M, K := len(j.spec.Suspects), len(j.spec.Keys)
	reused := j.Reused()
	opts.Obs.Counter("jobs.grades.total").Add(int64(M * K))
	opts.Obs.Counter("jobs.resume.reused").Add(int64(reused))
	// Touch the scan-layer counters so a scrape of /metrics lists them
	// from the first grade onward (at zero) instead of appearing late.
	for _, name := range []string{
		"scan.reject.popcount", "scan.reject.transitions",
		"scan.reject.phase", "scan.reject.framing",
		"scan.decrypted", "recognize.windows_total", "recognize.valid_total",
	} {
		opts.Obs.Counter(name)
	}

	br := newBreaker(K, opts.Breaker)
	wave := opts.Breaker.wave()
	var ran, skipped, traces int64

	// A journal failure stops every worker, not only the one whose settle
	// hit it. The WAL counts the failure before it releases its lock, so
	// a worker whose settle follows it (the WAL reopens itself) stops
	// before its next grade, even if the failing worker has not yet
	// recorded appendErr.
	var appendErr error
	var appendOnce sync.Once
	fail := func(err error) { appendOnce.Do(func() { appendErr = err }) }
	failuresBefore := j.journal.Failures()
	stop := func() bool {
		return j.journal.Failures() != failuresBefore || (ctx != nil && ctx.Err() != nil)
	}

	for lo := 0; lo < M; lo += wave {
		hi := lo + wave
		if hi > M {
			hi = M
		}
		// Breaker state is a pure function of the waves before this one,
		// walked in suspect order — deterministic at any worker count.
		br.observe(j.outcomes, max(lo-wave, 0), lo)

		var pending []wm.Cell
		for s := lo; s < hi; s++ {
			for k := 0; k < K; k++ {
				if j.outcomes[s][k] != nil {
					continue
				}
				if serr := br.skip(k); serr != nil {
					o := &outcome{err: serr, errStr: serr.Error(), skipped: true}
					if err := j.settle(s, k, o); err != nil {
						return nil, err
					}
					skipped++
					continue
				}
				pending = append(pending, wm.Cell{S: s, K: k})
			}
		}

		// One trace per distinct (program, input) of the wave's pending
		// grades.
		units := wm.TraceUnits(j.spec.progDigests, j.spec.Keys, pending)
		workers := opts.Workers
		if workers <= 0 {
			workers = defaultWorkers()
		}
		// Intra-suspect sharding: when the wave has fewer units than
		// workers, fold the idle tier into each grade's scan fan-out. A
		// single huge suspect then shards its own window ranges across
		// the whole tier instead of scanning on one goroutine while the
		// rest idle. The boost uses the worker count before par.For clamps
		// it to the unit count, and the scan's deterministic merge keeps
		// results bit-identical at every effective fan-out.
		scanWorkers := 1
		if n := len(units); n > 0 && n < workers {
			scanWorkers = workers / n
		}
		var ranWave, tracesWave atomic.Int64
		par.For(len(units), workers, stop, func(_, i int) {
			n, t, err := j.runUnit(ctx, units[i], scanWorkers, stop)
			ranWave.Add(n)
			tracesWave.Add(t)
			if err != nil {
				fail(err)
			}
		})
		ran += ranWave.Load()
		traces += tracesWave.Load()
		if appendErr != nil {
			return nil, appendErr
		}
		if ctx != nil && ctx.Err() != nil {
			return nil, fmt.Errorf("jobs: job %s interrupted: %w", j.ID(), ctx.Err())
		}
	}

	opts.Obs.Counter("jobs.grades.run").Add(ran)
	opts.Obs.Counter("jobs.grades.skipped").Add(skipped)
	opts.Obs.Counter("jobs.breaker.trips").Add(int64(br.trips))
	opts.Obs.Counter("jobs.journal.bytes").Add(j.journal.Bytes())
	opts.Obs.Counter("jobs.journal.records").Add(j.journal.Records())

	res := j.assemble()
	res.Corpus.Traces = int(traces)
	opts.Obs.Counter("jobs.grades.failed").Add(int64(res.Failed))
	j.trace.Event("job.done", map[string]int64{
		"ran":           ran,
		"reused":        int64(reused),
		"skipped":       skipped,
		"failed":        int64(res.Failed),
		"breaker_trips": int64(br.trips),
	}, nil)
	span.Set("suspects", int64(M)).
		Set("keys", int64(K)).
		Set("ran", ran).
		Set("reused", int64(reused)).
		Set("skipped", skipped).
		Set("breaker_trips", int64(br.trips))
	return res, nil
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Result is a finished job: the corpus matrices plus the job-level
// bookkeeping (attempts, skips, resume savings).
type Result struct {
	// Job is the spec's content digest in hex.
	Job string
	// Suspects and Keys are the matrix dimensions.
	Suspects, Keys int
	// Corpus carries the Recognitions/Errors matrices, bit-identical to
	// a RecognizeCorpus over the same spec except that breaker-skipped
	// cells hold a *BreakerOpenError, and cells restored from a journal
	// carry string-rebuilt errors (message preserved, chain gone).
	// Corpus.Traces counts this Run's tracing runs — on a resumed run
	// only the traces of the grades it executed.
	Corpus *wm.CorpusResult
	// Attempts[s][k] is how many attempts the grade took (0 for skips).
	Attempts [][]int
	// Skipped[s][k] marks breaker skips.
	Skipped [][]bool
	// Failed counts cells with no recognition (hard failures + skips);
	// Reused counts grades restored from the journal by this process.
	Failed int
	Reused int
}

func (j *Job) assemble() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	M, K := len(j.spec.Suspects), len(j.spec.Keys)
	res := &Result{
		Job: j.ID(), Suspects: M, Keys: K,
		Corpus: &wm.CorpusResult{
			Recognitions: make([][]*wm.Recognition, M),
			Errors:       make([][]error, M),
		},
		Attempts: make([][]int, M),
		Skipped:  make([][]bool, M),
		Reused:   j.reused,
	}
	for s := 0; s < M; s++ {
		res.Corpus.Recognitions[s] = make([]*wm.Recognition, K)
		res.Corpus.Errors[s] = make([]error, K)
		res.Attempts[s] = make([]int, K)
		res.Skipped[s] = make([]bool, K)
		for k, o := range j.outcomes[s] {
			if o == nil {
				continue
			}
			res.Corpus.Recognitions[s][k] = o.rec
			res.Corpus.Errors[s][k] = o.err
			res.Attempts[s][k] = o.attempts
			res.Skipped[s][k] = o.skipped
			if o.rec == nil {
				res.Failed++
			}
		}
	}
	return res
}

// resultFileVersion versions the result manifest format.
const resultFileVersion = 1

// resultFile is the canonical serialized Result. It deliberately
// excludes anything that may differ between an uninterrupted run and a
// crash-resumed one (attempt counts, resume savings, trace counts): the
// manifest is the artifact two such runs are byte-compared on.
type resultFile struct {
	Version  int           `json:"version"`
	Job      string        `json:"job"`
	Suspects int           `json:"suspects"`
	Keys     int           `json:"keys"`
	Grades   []resultGrade `json:"grades"`
}

type resultGrade struct {
	S       int              `json:"s"`
	K       int              `json:"k"`
	Skipped bool             `json:"skipped,omitempty"`
	Err     string           `json:"err,omitempty"`
	Rec     *recognitionJSON `json:"rec,omitempty"`
}

// EncodeResult renders the canonical result manifest: grades in (s,k)
// order, schedule-dependent fields excluded, so the bytes are identical
// for any two runs (interrupted or not) of the same job.
func EncodeResult(r *Result) ([]byte, error) {
	rf := resultFile{
		Version: resultFileVersion, Job: r.Job,
		Suspects: r.Suspects, Keys: r.Keys,
	}
	for s := 0; s < r.Suspects; s++ {
		for k := 0; k < r.Keys; k++ {
			g := resultGrade{
				S: s, K: k,
				Skipped: r.Skipped[s][k],
				Rec:     encodeRecognition(r.Corpus.Recognitions[s][k]),
			}
			if err := r.Corpus.Errors[s][k]; err != nil {
				g.Err = err.Error()
			}
			rf.Grades = append(rf.Grades, g)
		}
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("jobs: encode result: %w", err)
	}
	return append(b, '\n'), nil
}

// WriteResultFile publishes the result manifest atomically — temp file,
// write, sync, rename, parent-dir fsync (see iofault.WriteFileAtomic):
// a crash mid-write can never leave a torn manifest at path, and a crash
// right after the write can no longer lose the rename itself.
func WriteResultFile(path string, r *Result) error {
	return WriteResultFileFS(iofault.OS, path, r)
}

// WriteResultFileFS is WriteResultFile over an explicit filesystem.
func WriteResultFileFS(fs iofault.FS, path string, r *Result) error {
	b, err := EncodeResult(r)
	if err != nil {
		return err
	}
	if err := iofault.WriteFileAtomic(fs, path, b); err != nil {
		return fmt.Errorf("jobs: write result: %w", err)
	}
	return nil
}

// Execute is the one-shot convenience the CLI and daemon share: open
// (or resume) the job in dir, run it, write the result manifest, close.
func Execute(ctx context.Context, dir string, spec Spec) (*Result, error) {
	j, err := Open(dir, spec)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	res, err := j.Run(ctx)
	if err != nil {
		return nil, err
	}
	if err := WriteResultFileFS(spec.Opts.fs(), ResultPath(dir), res); err != nil {
		return nil, err
	}
	return res, nil
}
