package jobs

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"pathmark/internal/bitstring"
	"pathmark/internal/cache"
	"pathmark/internal/iofault"
	"pathmark/internal/obs"
	"pathmark/internal/wm"
)

// A stream job is the online counterpart of a corpus job: instead of
// suspect programs to re-trace, it receives one suspect's decoded trace
// bit-string in chunks — uploaded live while the suspect runs — and
// feeds a wm.StreamRecognizer per candidate key. Chunks are journaled
// write-ahead to stream.jsonl (the same fsync'd JSONL WAL discipline as
// the grade journal), so a crashed daemon reopens the job, replays the
// journaled chunks into fresh recognizers, and resumes the upload at the
// committed bit offset with a final verdict identical to an
// uninterrupted stream's.

// streamJournalVersion versions the chunk journal format. v2 added the
// per-record checksum frame.
const streamJournalVersion = 2

// maxStreamChunkBits bounds one journaled chunk; larger uploads must be
// split by the caller. Keeps a single corrupt length field from
// allocating unbounded memory on replay.
const maxStreamChunkBits = 1 << 24

// StreamOptions tunes a stream job. Workers, probe cadence and settle
// thresholds pass through to each key's wm.StreamRecognizer.
type StreamOptions struct {
	// Workers is each recognizer's per-chunk scan fan-out (0 = GOMAXPROCS,
	// 1 = serial). Excluded from the digest: results are identical at any
	// count.
	Workers int
	// CheckEvery, SettleChecks and MinConfidence set the early-exit probe
	// cadence and settle rule (see wm.StreamOpts). These shape the
	// early verdict, so they are part of the job digest.
	CheckEvery    int
	SettleChecks  int
	MinConfidence float64
	// NoSync, FS and Obs mirror the corpus job Options of the same names.
	NoSync bool
	FS     iofault.FS
	Obs    *obs.Registry
}

// fs resolves the effective filesystem: StreamOptions.FS or the real one.
func (o *StreamOptions) fs() iofault.FS {
	if o.FS != nil {
		return o.FS
	}
	return iofault.OS
}

// StreamSpec is a stream job's identity: the candidate keys and the
// result-affecting options.
type StreamSpec struct {
	Keys []*wm.Key
	Opts StreamOptions
}

// digest content-addresses the stream spec. Scheduling knobs (Workers,
// sync mode) are excluded — they must not change results; the probe
// cadence and settle rule are included because they determine when and
// whether an early verdict latches.
func (sp *StreamSpec) digest() (cache.Digest, error) {
	d := digestParts{[]byte("pathmark.stream.v1")}
	d.num(int64(len(sp.Keys)))
	if err := d.keys(sp.Keys, "stream key"); err != nil {
		return cache.Digest{}, err
	}
	d.filters()
	d.num(int64(sp.Opts.CheckEvery))
	d.num(int64(sp.Opts.SettleChecks))
	d.num(int64(sp.Opts.MinConfidence * 10_000)) // basis points
	return cache.DigestBytes(d...), nil
}

// StreamSpecID returns the job ID a StreamSpec would get from OpenStream,
// without touching disk.
func StreamSpecID(spec StreamSpec) (string, error) {
	d, err := spec.digest()
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(d[:]), nil
}

// streamHeader is the chunk journal's first line.
type streamHeader struct {
	V    int    `json:"v"`
	Type string `json:"type"` // "header"
	Job  string `json:"job"`  // hex spec digest
	Keys int    `json:"keys"`
}

// streamRecord journals one accepted chunk ("chunk") or the end of the
// upload ("final"). Off is the chunk's starting bit offset in the
// decoded trace string; Bits is its payload as '0'/'1' characters
// (already deduplicated and gap-checked, so replay appends records
// back to back).
type streamRecord struct {
	Type string `json:"type"`
	Off  int64  `json:"off"`
	Bits string `json:"bits,omitempty"`
}

// ErrStreamGap reports a chunk whose offset starts beyond the committed
// bit offset — accepting it would silently drop trace bits, so the
// caller must re-send from Committed().
var ErrStreamGap = errors.New("jobs: stream chunk begins past the committed offset")

// ErrStreamFinished reports a feed into a stream whose final chunk was
// already journaled.
var ErrStreamFinished = errors.New("jobs: stream already finished")

// StreamJob is a journaled live-trace recognition bound to a directory.
// Open it (replaying any existing chunk journal), Feed it chunks as they
// arrive, then Finish it for the batch-identical final verdicts.
type StreamJob struct {
	dir    string
	spec   StreamSpec
	digest cache.Digest
	wal    *WAL
	trace  *obs.Trace // nil when trace.jsonl could not be opened

	mu        sync.Mutex
	recs      []*wm.StreamRecognizer
	committed int64 // decoded bits journaled and fed so far
	chunks    int64
	finished  bool
	results   []*wm.Recognition
	errs      []error
}

// OpenStream binds a stream job to dir, creating the directory and chunk
// journal on first use and replaying an existing journal on resume: every
// journaled chunk is re-fed to fresh recognizers, so the in-memory scan
// state is exactly what an uninterrupted stream would hold at the
// committed offset. A journal written by a different spec fails with
// ErrJournalMismatch.
func OpenStream(dir string, spec StreamSpec) (*StreamJob, error) {
	if len(spec.Keys) == 0 {
		return nil, errors.New("jobs: a stream job needs at least one candidate key")
	}
	digest, err := spec.digest()
	if err != nil {
		return nil, err
	}
	fs := spec.Opts.fs()
	if err := iofault.MkdirSynced(fs, dir); err != nil {
		return nil, fmt.Errorf("jobs: create job dir: %w", err)
	}
	sj := &StreamJob{dir: dir, spec: spec, digest: digest}
	for range spec.Keys {
		sj.recs = append(sj.recs, nil)
	}
	sj.resetRecognizers()

	sj.wal, err = OpenWAL(fs, StreamPath(dir), streamHeader{
		V: streamJournalVersion, Type: "header", Job: sj.ID(), Keys: len(spec.Keys),
	}, !spec.Opts.NoSync, sj.replayHeader, sj.replayRecord)
	if err != nil {
		return nil, err
	}

	// As for corpus jobs, a failed trace open degrades to no telemetry.
	if tr, terr := obs.OpenTraceFileFS(fs, TracePath(dir), sj.ID(), false); terr == nil {
		sj.trace = tr
	}
	sj.trace.Event("stream.open", map[string]int64{
		"keys":      int64(len(spec.Keys)),
		"committed": sj.committed,
		"chunks":    sj.chunks,
		"finished":  boolInt64(sj.finished),
	}, nil)
	return sj, nil
}

func boolInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (sj *StreamJob) resetRecognizers() {
	opts := sj.spec.Opts
	for i, key := range sj.spec.Keys {
		sj.recs[i] = wm.NewStreamRecognizer(key, wm.StreamOpts{
			Workers:       opts.Workers,
			CheckEvery:    opts.CheckEvery,
			SettleChecks:  opts.SettleChecks,
			MinConfidence: opts.MinConfidence,
		})
	}
}

// replayHeader and replayRecord are the chunk journal's side of OpenWAL:
// every journaled chunk is re-fed to the fresh recognizers, so a resumed
// stream holds exactly the scan state of an uninterrupted one.
func (sj *StreamJob) replayHeader(line []byte) error {
	var h streamHeader
	if err := json.Unmarshal(line, &h); err != nil {
		return fmt.Errorf("jobs: stream journal header: %w", err)
	}
	switch {
	case h.Type != "header":
		return errors.New("jobs: stream journal does not start with a header record")
	case h.V != streamJournalVersion:
		return fmt.Errorf("jobs: stream journal version %d, want %d", h.V, streamJournalVersion)
	case h.Job != sj.ID() || h.Keys != len(sj.spec.Keys):
		return fmt.Errorf("%w: journal job %s (%d keys), spec job %s (%d keys)",
			ErrJournalMismatch, h.Job, h.Keys, sj.ID(), len(sj.spec.Keys))
	}
	return nil
}

// replayRecord stops the replay at a record that does not extend the
// committed prefix: it cannot belong to this stream's history, so
// everything after it is suspect.
func (sj *StreamJob) replayRecord(line []byte) (bool, error) {
	var r streamRecord
	if json.Unmarshal(line, &r) != nil || r.Off != sj.committed {
		return false, nil
	}
	switch {
	case r.Type == "chunk" && len(r.Bits) <= maxStreamChunkBits:
		bits, err := bitstring.FromString(r.Bits)
		if err != nil {
			return false, fmt.Errorf("jobs: stream journal chunk at %d: %w", r.Off, err)
		}
		if err := sj.feedRecognizers(bits); err != nil {
			return false, err
		}
		sj.committed += int64(bits.Len())
		sj.chunks++
	case r.Type == "final":
		sj.finished = true
	default:
		return false, nil
	}
	return true, nil
}

func (sj *StreamJob) feedRecognizers(bits *bitstring.Bits) error {
	for i, r := range sj.recs {
		if err := r.AppendBits(bits); err != nil {
			return fmt.Errorf("jobs: stream scan for key %d: %w", i, err)
		}
	}
	return nil
}

// ID is the stream job's content address in hex.
func (sj *StreamJob) ID() string { return hex.EncodeToString(sj.digest[:]) }

// Committed returns the durable decoded-bit offset: every bit below it
// is journaled and fed, so an interrupted uploader resumes from here.
func (sj *StreamJob) Committed() int64 {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	return sj.committed
}

// Finished reports whether the stream's final chunk has been journaled.
func (sj *StreamJob) Finished() bool {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	return sj.finished
}

// Settled reports whether every key's recognizer has latched an early
// verdict (trivially false before any probe fires).
func (sj *StreamJob) Settled() bool {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	for _, r := range sj.recs {
		if !r.Settled() {
			return false
		}
	}
	return true
}

// SettledKeys returns how many keys' recognizers have latched an early
// verdict so far.
func (sj *StreamJob) SettledKeys() int {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	n := 0
	for _, r := range sj.recs {
		if r.Settled() {
			n++
		}
	}
	return n
}

// Feed accepts one uploaded chunk: bits is the chunk's payload as
// '0'/'1' characters and offset its starting position in the decoded
// trace string. Overlap with already-committed bits is trimmed (an
// uploader that re-sends after a timeout is idempotent); a chunk
// entirely below Committed() is a no-op; a chunk starting beyond it
// fails with ErrStreamGap. The surviving suffix is journaled
// write-ahead, then fed to every key's recognizer; once Feed returns
// the new Committed() offset, those bits survive kill -9.
func (sj *StreamJob) Feed(offset int64, bits string) (committed int64, err error) {
	if len(bits) > maxStreamChunkBits {
		return sj.Committed(), fmt.Errorf("jobs: stream chunk of %d bits exceeds limit %d",
			len(bits), maxStreamChunkBits)
	}
	sj.mu.Lock()
	defer sj.mu.Unlock()
	if sj.finished {
		return sj.committed, ErrStreamFinished
	}
	if offset > sj.committed {
		return sj.committed, fmt.Errorf("%w: chunk at %d, committed %d",
			ErrStreamGap, offset, sj.committed)
	}
	if trim := sj.committed - offset; trim > 0 {
		if trim >= int64(len(bits)) {
			return sj.committed, nil // full duplicate
		}
		bits = bits[trim:]
		offset = sj.committed
	}
	parsed, err := bitstring.FromString(bits)
	if err != nil {
		return sj.committed, fmt.Errorf("jobs: stream chunk: %w", err)
	}
	if parsed.Len() == 0 {
		return sj.committed, nil
	}
	if err := sj.wal.Append(streamRecord{Type: "chunk", Off: offset, Bits: bits}); err != nil {
		return sj.committed, err
	}
	if err := sj.feedRecognizers(parsed); err != nil {
		return sj.committed, err
	}
	sj.committed += int64(parsed.Len())
	sj.chunks++
	settled := 0
	for _, r := range sj.recs {
		if r.Settled() {
			settled++
		}
	}
	sj.trace.Event("stream.chunk", map[string]int64{
		"off":       offset,
		"bits":      int64(parsed.Len()),
		"committed": sj.committed,
		"settled":   int64(settled),
	}, nil)
	return sj.committed, nil
}

// StreamResult is a finished stream job: one recognition per candidate
// key over the complete uploaded trace.
type StreamResult struct {
	Job          string
	Bits         int64
	Recognitions []*wm.Recognition
	Errors       []error
}

// Finish seals the stream: the final marker is journaled (after which
// Feed refuses more chunks), every recognizer is flushed — each flush is
// bit-identical to batch RecognizeBits over the whole uploaded string —
// the per-key grade.* telemetry is emitted through the same event schema
// as corpus jobs (s=0, k=key index), and the result manifest is written
// atomically. Finish after a crash-resume replays to the identical
// result; calling it again returns the memoized one.
func (sj *StreamJob) Finish() (*StreamResult, error) {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	if sj.results != nil {
		return sj.assembleLocked(), nil
	}
	if !sj.finished {
		if err := sj.wal.Append(streamRecord{Type: "final", Off: sj.committed}); err != nil {
			return nil, err
		}
		sj.finished = true
	}
	sj.results = make([]*wm.Recognition, len(sj.recs))
	sj.errs = make([]error, len(sj.recs))
	for i, r := range sj.recs {
		rec, err := r.Flush()
		sj.results[i], sj.errs[i] = rec, err
		o := &outcome{rec: rec, attempts: 1}
		if err != nil {
			o.err, o.errStr = err, err.Error()
		}
		emitGradeEvents(sj.trace, sj.spec.Opts.Obs, 0, i, o)
	}
	res := sj.assembleLocked()
	b, err := encodeStreamResult(res)
	if err != nil {
		return nil, err
	}
	if err := iofault.WriteFileAtomic(sj.spec.Opts.fs(), ResultPath(sj.dir), b); err != nil {
		return nil, fmt.Errorf("jobs: write result: %w", err)
	}
	settled := 0
	for _, r := range sj.recs {
		if r.Settled() {
			settled++
		}
	}
	sj.trace.Event("stream.done", map[string]int64{
		"bits":    sj.committed,
		"chunks":  sj.chunks,
		"settled": int64(settled),
	}, nil)
	return res, nil
}

func (sj *StreamJob) assembleLocked() *StreamResult {
	res := &StreamResult{
		Job: sj.ID(), Bits: sj.committed,
		Recognitions: append([]*wm.Recognition(nil), sj.results...),
		Errors:       append([]error(nil), sj.errs...),
	}
	return res
}

// Close releases the chunk journal and the trace. The job directory and
// its contents stay.
func (sj *StreamJob) Close() error {
	_ = sj.trace.Close() // trace is telemetry; it never gates the job
	return sj.wal.Close()
}

// streamResultFile is the canonical serialized StreamResult, the
// byte-compared artifact of crash-resume equivalence for stream jobs.
type streamResultFile struct {
	Version int           `json:"version"`
	Job     string        `json:"job"`
	Stream  bool          `json:"stream"`
	Bits    int64         `json:"bits"`
	Keys    int           `json:"keys"`
	Grades  []resultGrade `json:"grades"`
}

func encodeStreamResult(r *StreamResult) ([]byte, error) {
	rf := streamResultFile{
		Version: resultFileVersion, Job: r.Job, Stream: true,
		Bits: r.Bits, Keys: len(r.Recognitions),
	}
	for k, rec := range r.Recognitions {
		g := resultGrade{S: 0, K: k, Rec: encodeRecognition(rec)}
		if err := r.Errors[k]; err != nil {
			g.Err = err.Error()
		}
		rf.Grades = append(rf.Grades, g)
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("jobs: encode stream result: %w", err)
	}
	return append(b, '\n'), nil
}
