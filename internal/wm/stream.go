package wm

import (
	"context"
	"fmt"
	"maps"
	"math/big"
	"runtime"

	"pathmark/internal/bitstring"
	"pathmark/internal/obs"
	"pathmark/internal/vm"
)

// StreamOpts tunes a StreamRecognizer. The zero value is a sensible
// online configuration: automatic worker selection, probing every
// defaultCheckEvery windows, settling only on full prime-basis coverage.
// The scan always runs DefaultFilters, like every recognition path
// without a filter option.
type StreamOpts struct {
	// Workers fans the per-chunk window scan out over goroutines on
	// disjoint window ranges: 0 picks runtime.GOMAXPROCS(0), 1 forces
	// the serial path. As in the batch scan, every merged quantity is a
	// sum over disjoint ranges, so results are identical at any count.
	Workers int
	// Ctx, when non-nil, cancels in-progress scanning: Append returns
	// the context error and the recognizer refuses further input (its
	// accumulated state is partial and no longer batch-identical).
	Ctx context.Context
	// CheckEvery is the early-exit probe interval in scanned windows:
	// after every CheckEvery new windows the accumulated evidence is run
	// through the vote/graph stage on a snapshot of the counts. 0 picks
	// defaultCheckEvery; negative disables probing (the recognizer never
	// settles early, only Flush decides).
	CheckEvery int
	// SettleChecks is how many consecutive probes must agree (same
	// watermark, same modulus, confidence at or above MinConfidence)
	// before a sub-full-coverage verdict settles. 0 picks
	// defaultSettleChecks. Full coverage settles on the first probe that
	// reaches it regardless.
	SettleChecks int
	// MinConfidence is the prime-basis coverage fraction a probe must
	// reach before it can count toward settling. 0 means 1.0: only full
	// coverage ends the stream early.
	MinConfidence float64
	// Obs, when non-nil, receives stream counters at Flush
	// (stream.windows_total, stream.probes, stream.early_exit).
	Obs *obs.Registry
}

const (
	// defaultCheckEvery is the probe interval: cheap relative to the
	// ~4096 decryptions between probes (the vote stage runs over a
	// handful of statements), frequent enough that an early verdict
	// lands within one interval of the evidence supporting it.
	defaultCheckEvery = 4096
	// defaultSettleChecks consecutive agreeing probes settle a partial
	// (sub-full-coverage) verdict when MinConfidence allows one.
	defaultSettleChecks = 3
	// compactMinDrop defers tail-buffer compaction until at least this
	// many bits are droppable, amortizing the copy over many small
	// appends. The steady-state buffer is then at most
	// compactMinDrop + maxWindowSpan bits plus the current chunk.
	compactMinDrop = 256
	// maxWindowSpan is the raw-bit span of the widest window the scan
	// reads: a stride-2 window covers 127 consecutive raw bits.
	maxWindowSpan = 127
)

// StreamRecognizer is the online form of RecognizeBits (§3.3): trace
// evidence arrives in chunks — decoded bits or raw vm trace events — and
// the sliding-window scan, prefilter stack and CRT vote state advance
// incrementally, in memory bounded by O(window buffer + distinct
// surviving statements), independent of the trace length.
//
// Three pieces of state make chunked scanning equal batch scanning:
//
//   - the trace decoder (vm.StreamDecoder) carries its first-successor
//     map and in-flight branches across chunks;
//   - a tail buffer keeps the last ≲383 bits of the decoded string — the
//     suffix that future windows can still overlap (a stride-2 window
//     spans 127 raw bits) — at an even base offset so the two global
//     stride-2 phases stay identified with the buffer's local phases;
//   - the scan accumulator (window counts, per-layer rejects, statement
//     counts) is the same structure the batch scan merges, summed over
//     disjoint window ranges, so Flush is bit-identical to
//     RecognizeBits over the whole string at any worker count.
//
// Each append's new windows run through the batch scan's own worker pool
// and kernel (runScan), with the tail buffer's stride-2 phases packed
// afresh per append; no kernel scratch is held between appends.
//
// Between chunks the recognizer probes the accumulated evidence (every
// CheckEvery windows): the statement counts are snapshotted, capped, and
// run through the vote/consistency/CRT stage. A probe reaching full
// prime-basis coverage — or MinConfidence coverage stably across
// SettleChecks probes — settles the stream: Settled flips true and
// Verdict returns the early result, while further appends continue to
// accumulate so that Flush still reproduces the batch answer exactly.
type StreamRecognizer struct {
	key *Key
	cfg scanConfig

	workers      int
	ctx          context.Context
	checkEvery   int
	settleChecks int
	minConf      float64
	reg          *obs.Registry

	decoder *vm.StreamDecoder
	scratch *bitstring.Bits // per-append decode target, reused

	buf   *bitstring.Bits // decoded bits [base, total)
	base  int             // global index of buf bit 0; always even
	total int             // decoded bits appended so far

	rawNext   int    // next unscanned raw window (global index)
	phaseNext [2]int // next unscanned stride-2 window per phase

	acc      *scanAccum
	scanErrs []*StageError

	sinceProbe int
	probes     int
	stable     int
	lastWM     *big.Int
	lastMod    *big.Int
	settled    bool
	verdict    *Recognition

	peakBuffered int
	flushed      *Recognition
	flushErr     error
	err          error
}

// NewStreamRecognizer returns a recognizer for the given key with empty
// evidence.
func NewStreamRecognizer(key *Key, opts StreamOpts) *StreamRecognizer {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	checkEvery := opts.CheckEvery
	if checkEvery == 0 {
		checkEvery = defaultCheckEvery
	}
	settle := opts.SettleChecks
	if settle <= 0 {
		settle = defaultSettleChecks
	}
	minConf := opts.MinConfidence
	if minConf <= 0 {
		minConf = 1.0
	}
	return &StreamRecognizer{
		key:          key,
		cfg:          scanConfig{filters: DefaultFilters},
		workers:      workers,
		ctx:          opts.Ctx,
		checkEvery:   checkEvery,
		settleChecks: settle,
		minConf:      minConf,
		reg:          opts.Obs,
		decoder:      vm.NewStreamDecoder(),
		scratch:      bitstring.New(0),
		buf:          bitstring.New(0),
		acc:          newScanAccum(),
	}
}

// AppendBits feeds a chunk of already-decoded trace bits. All windows
// that become complete — raw and both stride-2 phases — are scanned
// before it returns, and consumed head bits are dropped from the tail
// buffer.
func (r *StreamRecognizer) AppendBits(bits *bitstring.Bits) error {
	if err := r.appendable(); err != nil {
		return err
	}
	if err := bits.Validate(); err != nil {
		return &StageError{Stage: "scan", Worker: -1,
			Cause: fmt.Errorf("invalid trace bit-string chunk: %w", err)}
	}
	r.buf.AppendBits(bits)
	r.total += bits.Len()
	return r.scanNew()
}

// AppendEvents feeds a chunk of raw vm trace events, decoding them
// through the persistent incremental decoder (§3.1's first-successor
// rule survives chunk boundaries, including a branch split from its
// successor block) and scanning the bits that become determined.
func (r *StreamRecognizer) AppendEvents(events ...vm.Event) error {
	if err := r.appendable(); err != nil {
		return err
	}
	if err := r.scratch.Truncate(0); err != nil {
		return err
	}
	r.decoder.Feed(r.scratch, events...)
	r.buf.AppendBits(r.scratch)
	r.total += r.scratch.Len()
	return r.scanNew()
}

func (r *StreamRecognizer) appendable() error {
	if r.err != nil {
		return r.err
	}
	if r.flushed != nil {
		return fmt.Errorf("wm: append after Flush")
	}
	return nil
}

// TotalBits returns the number of decoded trace bits appended so far.
func (r *StreamRecognizer) TotalBits() int { return r.total }

// PeakBufferedBits returns the high-water mark of the tail-buffer length
// — the only state proportional to anything other than the surviving
// statements. It is bounded by the largest single append plus
// compactMinDrop+maxWindowSpan, independent of the cumulative trace
// length.
func (r *StreamRecognizer) PeakBufferedBits() int { return r.peakBuffered }

// Probes returns how many early-exit probes have run.
func (r *StreamRecognizer) Probes() int { return r.probes }

// Settled reports whether an early verdict has latched: a probe reached
// full prime-basis coverage, or held MinConfidence coverage stably for
// SettleChecks probes. Appending remains allowed after settling — the
// final Flush is always the batch-identical answer.
func (r *StreamRecognizer) Settled() bool { return r.settled }

// Verdict returns the settled early Recognition snapshot, or nil if the
// stream has not settled. The snapshot reflects the evidence at probe
// time; Flush supersedes it.
func (r *StreamRecognizer) Verdict() *Recognition { return r.verdict }

// scanNew scans every window completed by the bits appended since the
// last call: global raw windows [rawNext, total-63) and, per stride-2
// phase p, windows [phaseNext[p], ceil((total-p)/2)-63). The tail
// buffer's phases are packed into contiguous vectors; because base is
// kept even, local phase p is global phase p, so window ranges convert
// to buffer coordinates as global g ↦ g-base raw and stride j ↦
// j-base/2. The windows are sharded at the batch scan's chunk
// granularity and accumulated into the same sums the batch scan merges.
// Probes run between chunk groups.
func (r *StreamRecognizer) scanNew() error {
	if r.buf.Len() > r.peakBuffered {
		r.peakBuffered = r.buf.Len()
	}
	rawHi := max(r.total-63, 0)
	halfBase := r.base / 2
	chunks := appendChunks(nil, r.buf, r.rawNext-r.base, rawHi-r.base)
	var phHi [2]int
	for p := 0; p < 2; p++ {
		if n := r.total - p; n > 0 {
			if L := (n + 1) / 2; L >= 64 {
				phHi[p] = L - 63
			}
		}
		if phHi[p] > r.phaseNext[p] {
			packed := r.buf.PackStride2Into(packedPool.Get().(*bitstring.Bits), p)
			defer packedPool.Put(packed)
			chunks = appendChunks(chunks, packed, r.phaseNext[p]-halfBase, phHi[p]-halfBase)
		}
	}
	r.rawNext = rawHi
	r.phaseNext = phHi

	// Process in groups bounded by the probe interval, probing between
	// groups. Group boundaries depend only on window counts, so probe
	// inputs are deterministic at every worker count.
	for len(chunks) > 0 {
		n, groupWindows := 0, 0
		budget := r.checkEvery - r.sinceProbe
		for n < len(chunks) && (n == 0 || r.checkEvery < 0 || groupWindows < budget) {
			groupWindows += chunks[n].hi - chunks[n].lo
			n++
		}
		acc, errs, err := runScan(r.ctx, chunks[:n], r.workers, r.key, r.cfg)
		if err != nil {
			r.err = err
			return err
		}
		chunks = chunks[n:]
		r.acc.add(acc)
		for _, serr := range errs {
			r.recordScanErr(serr)
		}
		r.sinceProbe += groupWindows
		if r.checkEvery >= 0 && !r.settled && r.sinceProbe >= r.checkEvery {
			r.probe()
			r.sinceProbe = 0
		}
	}
	r.compact()
	return nil
}

func (r *StreamRecognizer) recordScanErr(serr *StageError) {
	if len(r.scanErrs) < maxStageErrors {
		r.scanErrs = append(r.scanErrs, serr)
	}
}

// compact drops tail-buffer head bits that no future window can read:
// everything before the earliest start among the next raw window
// (bit rawNext) and the next window of each stride-2 phase
// (bit p+2·phaseNext[p]). The new base is rounded down to even so the
// global phases keep mapping onto the buffer's local phases, and the
// copy is deferred until at least compactMinDrop bits are droppable.
func (r *StreamRecognizer) compact() {
	need := r.rawNext
	if s := 2 * r.phaseNext[0]; s < need {
		need = s
	}
	if s := 1 + 2*r.phaseNext[1]; s < need {
		need = s
	}
	if need > r.total {
		need = r.total
	}
	newBase := need &^ 1
	drop := newBase - r.base
	if drop < compactMinDrop {
		return
	}
	kept := bitstring.New(r.buf.Len() - drop)
	for i := drop; i < r.buf.Len(); i++ {
		kept.Append(r.buf.Bit(i))
	}
	r.buf = kept
	r.base = newBase
}

// probe runs the recognition tail (resolve) over a snapshot of the
// statement counts and applies the settle rule. resolve caps the
// snapshot, not the accumulated counts, preserving Flush's batch
// identity.
func (r *StreamRecognizer) probe() {
	r.probes++
	rec := r.acc.recognition(r.total)
	_ = resolve(r.ctx, rec, maps.Clone(r.acc.counts), r.scanErrs, r.key, nil)
	if rec.FullCoverage {
		r.settle(rec)
		return
	}
	if r.minConf < 1 && rec.Confidence >= r.minConf && rec.Watermark != nil {
		if r.lastWM != nil && rec.Watermark.Cmp(r.lastWM) == 0 &&
			rec.Modulus.Cmp(r.lastMod) == 0 {
			r.stable++
		} else {
			r.stable = 1
		}
		r.lastWM, r.lastMod = rec.Watermark, rec.Modulus
		if r.stable >= r.settleChecks {
			r.settle(rec)
		}
		return
	}
	r.stable, r.lastWM, r.lastMod = 0, nil, nil
}

func (r *StreamRecognizer) settle(rec *Recognition) {
	r.settled = true
	r.verdict = rec
}

// Flush finalizes the stream and returns the Recognition for everything
// appended, running the batch pipeline's own tail, resolve (count cap,
// vote, consistency graphs, Generalized-CRT merge): on a completely
// streamed trace the result is bit-identical to RecognizeBits over the
// whole decoded string, regardless of chunking, worker count, or
// whether an early verdict settled. Flush is idempotent and further
// appends are refused afterwards. As in the batch path, recovered scan
// failures surface as a partial Recognition alongside the first
// *StageError.
func (r *StreamRecognizer) Flush() (*Recognition, error) {
	if r.flushed != nil {
		return r.flushed, r.flushErr
	}
	if r.err != nil {
		return nil, r.err
	}
	rec := r.acc.recognition(r.total)
	r.flushErr = resolve(r.ctx, rec, r.acc.counts, r.scanErrs, r.key, nil)
	r.reg.Counter("stream.windows_total").Add(int64(rec.Windows))
	r.reg.Counter("stream.probes").Add(int64(r.probes))
	if r.settled {
		r.reg.Counter("stream.early_exit").Add(1)
	}
	r.flushed = rec
	return r.flushed, r.flushErr
}
