package wm

import (
	"context"
	"fmt"
	"math/big"
	"runtime"
	"sort"
	"sync"

	"pathmark/internal/bitstring"
	"pathmark/internal/crt"
	"pathmark/internal/feistel"
	"pathmark/internal/obs"
	"pathmark/internal/par"
	"pathmark/internal/vm"
)

// Recognition reports the outcome of the recognition phase (§3.3).
type Recognition struct {
	// Watermark is the recovered value mod Modulus; it equals the embedded
	// watermark when FullCoverage is true and enough uncorrupted pieces
	// survived.
	Watermark *big.Int
	// Modulus is the combined CRT modulus of the surviving statements.
	Modulus *big.Int
	// FullCoverage reports whether every prime of the key's basis is
	// covered, i.e. Modulus equals the key's MaxWatermark bound.
	FullCoverage bool

	Windows          int // 64-bit windows scanned
	ValidStatements  int // windows decoding to an in-range statement
	UniqueStatements int // distinct statements among those
	VotedOut         int // statements eliminated by the W mod p_i vote
	Survivors        int // statements surviving the consistency graphs
	TraceBits        int // length of the decoded bit-string
	// PrefilterRejected counts windows dropped by the lossy statistical
	// filter stack before decryption (see RecognizeOpts.Filters) — the
	// sum of the pre-decrypt layers of RejectedByLayer. A sum over
	// disjoint scan shards, hence identical at every worker count.
	PrefilterRejected int
	// RejectedByLayer breaks the rejections down by filter layer,
	// including the post-decrypt framing check; see LayerRejects.
	RejectedByLayer LayerRejects
	// Decrypted counts windows that survived every pre-decrypt filter
	// and were submitted to the cipher — the denominator of the framing
	// layer and the true unit of scan kernel work.
	Decrypted int

	// Surviving holds the CRT statements that survived the vote and
	// consistency graphs — the partial-recovery evidence. When the full
	// watermark cannot be reconstructed (damaged trace, lost pieces), the
	// survivors still pin W modulo their combined modulus.
	Surviving []crt.Statement
	// Confidence is the fraction of the key's prime basis covered by the
	// surviving statements: 1.0 means full coverage, 0 means nothing
	// survived. It is the graceful-degradation score — how much of the
	// watermark's residue system the damaged input still supports.
	Confidence float64
	// Degraded reports that the pipeline completed but lost something on
	// the way: a scan worker crashed, the vote stage was cut short, or the
	// survivors cover only part of the prime basis.
	Degraded bool
	// StageErrors records recovered per-stage failures (worker panics,
	// vote-stage cutoffs), capped at a small number; see the
	// recognize.scan_panics counter for the uncapped total.
	StageErrors []*StageError
}

// RecognizeOpts tunes the recognition pipeline.
type RecognizeOpts struct {
	// Workers is the number of goroutines the sliding-window scan fans out
	// over: 0 picks runtime.GOMAXPROCS(0), 1 forces the serial path. The
	// Recognition result is bit-for-bit identical at any worker count.
	Workers int
	// Ctx, when non-nil, cancels the pipeline: the tracing run, the scan
	// workers (checked per chunk), and the vote stage all return promptly
	// with a *StageError wrapping the context's error once it is done.
	Ctx context.Context
	// StepLimit bounds the tracing run (0 = interpreter default);
	// exhaustion surfaces as a trace StageError wrapping vm.ResourceError.
	StepLimit int64
	// MaxHeap bounds the tracing run's cumulative array allocation
	// (0 = interpreter default).
	MaxHeap int64
	// ScanHook, when non-nil, is called by the scan stage before every
	// chunk with the worker index and chunk index. It exists for fault
	// injection: a panicking hook simulates a worker crash, which the pool
	// converts into a StageError without losing other workers' counts.
	// Production callers leave it nil.
	ScanHook func(worker, chunk int)
	// Filters overrides the scan's lossy pre-decrypt filter stack
	// (nil = DefaultFilters; NoFilters disables the lossy layers).
	Filters *FilterStack
	// DecryptCache is ignored: perfbench-only, removed by ROADMAP item 1.
	DecryptCache *struct{}
	// Obs, when non-nil, receives per-stage spans (recognize.trace/scan/
	// vote) and pipeline counters/histograms. All recorded metric values
	// are input-derived — per-worker scan counters are summed over
	// disjoint shards at the join — so the registry content is identical
	// at every worker count; only span wall times differ. Degradation
	// events additionally land in recognize.degraded and
	// recognize.scan_panics.
	Obs *obs.Registry
}

// maxGraphVertices bounds the consistency-graph size; statements beyond
// the cap (rarest first) are dropped. Real traces produce few distinct
// valid statements, so the cap only guards against adversarial inputs.
const maxGraphVertices = 4096

// scanChunkWindows is the shard granularity of the scan: each work unit
// covers this many window positions. Small enough to balance load across
// workers on skewed traces and to make per-chunk cancellation checks
// prompt, large enough that the per-chunk dispatch overhead (one atomic
// add) is negligible against ~2k cipher decryptions per chunk.
const scanChunkWindows = 2048

// maxStageErrors caps how many recovered failures a Recognition retains;
// beyond it only the counters grow. A hook or corruption that poisons
// every chunk would otherwise allocate one error per chunk.
const maxStageErrors = 8

// countCap bounds per-statement multiplicity before the vote so that no
// single repetitive pattern can dominate it: self-similar host traces
// (recursion, loop nests) repeat identical high-entropy windows
// verbatim, so raw occurrence counts are not trustworthy evidence. A cap
// of 3 keeps redundancy useful (several *distinct* statements still
// outvote any single impostor residue) without letting one repeated
// pattern win. Applied identically by the batch pipeline and the
// streaming recognizer's probes and flush.
const countCap = 3

// Recognize re-traces the program on the key's secret input, decodes the
// trace into its bit-string, and recombines watermark pieces (§3.3). It is
// RecognizeWithOpts with automatic worker selection.
func Recognize(p *vm.Program, key *Key) (*Recognition, error) {
	return RecognizeWithOpts(p, key, RecognizeOpts{})
}

// RecognizeWithOpts runs the recognition pipeline in three stages:
//
//  1. trace: re-run the program on the key's secret input and decode the
//     trace into its bit-string (§3.1) — inherently serial;
//  2. scan: slide 64-bit windows over the bit-string plus its two stride-2
//     phases, decrypting and inverse-enumerating each window into a
//     candidate statement (§3.3 step A) — the dominant cost, fanned out
//     over opts.Workers goroutines on disjoint window ranges, each with a
//     private statement-count map merged (summed) afterward;
//  3. vote/graph: the W mod p_i vote, the inconsistency/agreement graphs,
//     greedy selection, and the Generalized-CRT merge (§3.3 steps B–D) —
//     serial on the handful of surviving statements.
//
// Window counts and per-statement occurrence counts are sums over disjoint
// shards, so the merged result — and everything derived from it — is
// identical at every worker count.
//
// Failure contract: a failing or cut-off tracing run returns (nil, error)
// where the error is a *StageError (wrapping vm.ResourceError for fuel
// exhaustion or the context error for cancellation). A crashed scan worker
// does NOT abort the pipeline: the panic is recovered, the remaining
// workers' counts survive, and the call returns a *partial* Recognition
// with Degraded set alongside the first *StageError. Callers that only
// check err therefore fail safe; callers that also look at the Recognition
// get everything the damaged run still supports.
func RecognizeWithOpts(p *vm.Program, key *Key, opts RecognizeOpts) (*Recognition, error) {
	total := opts.Obs.Start("recognize")
	defer total.Finish()
	opts.Obs.Counter("recognize.calls").Add(1)

	// Stage 1: trace.
	span := opts.Obs.Start("recognize.trace")
	bits, steps, err := collectBits(opts.Ctx, p, key.Input, opts.StepLimit, opts.MaxHeap)
	if err != nil {
		span.Finish()
		return nil, &StageError{Stage: "trace", Worker: -1,
			Cause: fmt.Errorf("recognition trace failed: %w", err)}
	}
	span.Set("steps", steps).
		Set("trace_bits", int64(bits.Len())).Finish()
	opts.Obs.Histogram("recognize.trace_bits").Observe(int64(bits.Len()))

	return RecognizeBits(bits, key, opts)
}

// collectBits is recognition's one trace-to-bits step, shared by
// RecognizeWithOpts and the fleet trace cache: it runs p on input under
// the step, heap and context bounds in vm.CollectBits's bit-sink mode and
// returns the bit-string the scan reads and the run's step count. The
// error is the tracing run's, unwrapped; callers add their stage.
func collectBits(ctx context.Context, p *vm.Program, input []int64,
	stepLimit, maxHeap int64) (*bitstring.Bits, int64, error) {
	bits, res, err := vm.CollectBits(p, vm.RunOptions{
		Input: input, Ctx: ctx, StepLimit: stepLimit, MaxHeap: maxHeap,
	})
	if err != nil {
		return nil, 0, err
	}
	return bits, res.Steps, nil
}

// RecognizeBits runs recognition stages 2–3 (scan, vote/graph) over an
// already-decoded trace bit-string. It is the entry point for callers that
// obtain — or corrupt — the bit-string themselves, such as the
// fault-injection harness, and for recognizing traces captured elsewhere.
// The vector is validated up front so adversarial shapes fail with an
// error rather than a panic in the scan loops. The Recognition's TraceBits
// field is taken from the vector's length.
func RecognizeBits(b *bitstring.Bits, key *Key, opts RecognizeOpts) (*Recognition, error) {
	if err := b.Validate(); err != nil {
		return nil, &StageError{Stage: "scan", Worker: -1,
			Cause: fmt.Errorf("invalid trace bit-string: %w", err)}
	}

	// Stage 2: scan.
	span := opts.Obs.Start("recognize.scan")
	acc, scanErrs, err := scanBits(b, key, opts)
	if err != nil {
		span.Finish()
		return nil, &StageError{Stage: "scan", Worker: -1, Cause: err}
	}
	rec := acc.recognition(b.Len())
	if len(scanErrs) > 0 {
		opts.Obs.Counter("recognize.scan_panics").Add(int64(acc.panics))
	}
	span.Set("windows", int64(acc.windows)).
		Set("valid_statements", int64(acc.valid)).
		Set("recovered_panics", int64(acc.panics)).Finish()
	opts.Obs.Counter("recognize.windows_total").Add(int64(acc.windows))
	opts.Obs.Counter("recognize.valid_total").Add(int64(acc.valid))
	opts.Obs.Counter("scan.prefilter_rejected").Add(int64(rec.PrefilterRejected))
	opts.Obs.Counter("scan.reject.popcount").Add(int64(acc.rej.Popcount))
	opts.Obs.Counter("scan.reject.transitions").Add(int64(acc.rej.Transitions))
	opts.Obs.Counter("scan.reject.phase").Add(int64(acc.rej.Phase))
	opts.Obs.Counter("scan.reject.framing").Add(int64(acc.rej.Framing))
	opts.Obs.Counter("scan.decrypted").Add(int64(acc.decrypted))
	if acc.windows > 0 {
		// Valid-statement hit rate in parts per million: integer-valued,
		// hence deterministic across worker counts and machines.
		opts.Obs.Histogram("recognize.valid_ppm").
			Observe(int64(acc.valid) * 1_000_000 / int64(acc.windows))
	}

	// Stage 3: vote + consistency graphs + CRT merge.
	return rec, resolve(opts.Ctx, rec, acc.counts, scanErrs, key, opts.Obs)
}

// resolve is the recognition tail that RecognizeBits, the stream's Flush
// and its probes share. It caps the statement counts at countCap in
// place, marks rec Degraded with the scan's recovered failures, runs the
// vote/graph/CRT stage when any statement survived, and returns the
// first StageError rec then carries. reg, when non-nil, receives the
// recognize.vote span and the recognize.degraded counter.
func resolve(ctx context.Context, rec *Recognition, counts map[crt.Statement]int,
	scanErrs []*StageError, key *Key, reg *obs.Registry) error {
	for st, c := range counts {
		if c > countCap {
			counts[st] = countCap
		}
	}
	if len(scanErrs) > 0 {
		rec.Degraded = true
		rec.StageErrors = append(rec.StageErrors, scanErrs...)
	}
	if len(counts) > 0 {
		span := reg.Start("recognize.vote")
		resolveStatements(ctx, rec, counts, key)
		span.Set("unique_statements", int64(rec.UniqueStatements)).
			Set("voted_out", int64(rec.VotedOut)).
			Set("survivors", int64(rec.Survivors)).
			Set("confidence_bp", int64(rec.Confidence*10_000)).Finish()
	}
	if rec.Degraded {
		reg.Counter("recognize.degraded").Add(1)
	}
	if len(rec.StageErrors) > 0 {
		return rec.StageErrors[0]
	}
	return nil
}

// statementCountHint pre-sizes a scan accumulator's statement-count map.
// A marked trace yields at most a few hundred distinct valid statements
// (bounded by the embedding's piece count plus coincidental decodes), and
// growing a struct-keyed map incrementally costs more than the scan's
// whole decode pass — rehashing showed up at ~7% of the kernel's profile
// before the hint.
const statementCountHint = 256

func newScanAccum() *scanAccum {
	return &scanAccum{counts: make(map[crt.Statement]int, statementCountHint)}
}

// scanAccum accumulates one worker's share of the scan.
type scanAccum struct {
	windows   int
	valid     int
	rej       LayerRejects // windows dropped, by filter layer
	decrypted int          // windows submitted to the decrypt layer
	panics    int
	counts    map[crt.Statement]int
}

// add sums o into a. Every field is a sum over disjoint window ranges,
// so the merge order never shows in the result.
func (a *scanAccum) add(o *scanAccum) {
	a.windows += o.windows
	a.valid += o.valid
	a.rej.add(o.rej)
	a.decrypted += o.decrypted
	a.panics += o.panics
	for st, c := range o.counts {
		a.counts[st] += c
	}
}

// recognition returns a Recognition carrying the accumulated scan
// counters over a trace of traceBits bits, before the vote stage.
func (a *scanAccum) recognition(traceBits int) *Recognition {
	return &Recognition{
		TraceBits:         traceBits,
		Windows:           a.windows,
		ValidStatements:   a.valid,
		RejectedByLayer:   a.rej,
		PrefilterRejected: a.rej.preDecrypt(),
		Decrypted:         a.decrypted,
	}
}

// scanConfig bundles the scan stage's per-call settings.
type scanConfig struct {
	hook    func(worker, chunk int)
	filters FilterStack
}

// scanEnv is one worker's scan state: its private cipher instance
// (expanded subkeys), the shared read-only decode parameters, and the
// kernel's reusable gather buffers. Envs are pooled (scanEnvPool): the
// buffers total ~40KB per worker, and fleet and stream callers run many
// scans per second, so allocating (and zeroing) them per scan shows up. The buffers are
// pure scratch — fully written before they are read within each chunk —
// so reuse cannot leak state between scans, keys, or workers.
type scanEnv struct {
	cipher  *feistel.Cipher
	params  *crt.Params
	filters FilterStack
	// Kernel scratch, sized to the chunk granularity and reused across
	// chunks so the gather loop never allocates.
	winBuf  []uint64 // filter survivors of the current chunk
	decBuf  []uint64 // their decryptions, same indexing
	passBuf []int32  // indices passing the AVX2 framing check
	// AVX2 gather dispatch: set when the CPU has the kernel and the
	// stack's bands fit its byte arithmetic (see bandsPackable).
	useGather   bool
	gatherBands uint64
	// AVX2 framing-check dispatch for pass 3, with the flattened
	// framing constants it needs.
	useUnframe  bool
	frameConsts crt.FrameConsts
}

var scanEnvPool = sync.Pool{New: func() any {
	return &scanEnv{
		winBuf:  make([]uint64, 0, scanChunkWindows),
		decBuf:  make([]uint64, scanChunkWindows),
		passBuf: make([]int32, scanChunkWindows),
	}
}}

// packedPool recycles the stride-2 packed vectors the scan builds
// (PackStride2Into overwrites every word, so reuse carries no state).
var packedPool = sync.Pool{New: func() any { return new(bitstring.Bits) }}

// getScanEnv borrows a pooled env and keys it for one scan; return it
// with putScanEnv once the worker is done.
func getScanEnv(key *Key, cfg scanConfig) *scanEnv {
	env := scanEnvPool.Get().(*scanEnv)
	env.cipher = feistel.New(key.Cipher)
	env.params = key.Params
	env.filters = cfg.filters
	if env.useGather = gatherAvailable && bandsPackable(cfg.filters); env.useGather {
		env.gatherBands = packBands(cfg.filters)
	}
	if env.useUnframe = gatherAvailable; env.useUnframe {
		env.frameConsts = key.Params.FrameConstants()
	}
	return env
}

// putScanEnv returns an env to the pool, dropping its references to the
// key so a pooled env pins neither cipher nor parameters.
func putScanEnv(env *scanEnv) {
	env.cipher, env.params = nil, nil
	scanEnvPool.Put(env)
}

// scanChunk is one shard of the scan work list: windows [lo, hi) of a
// stride-1 source. The raw bit-string is scanned alongside its two
// stride-2 phases: the rolled loop generator interleaves one constant
// control bit between payload bits, so its pieces are contiguous in a
// stride-2 phase rather than in the raw string. Each phase is packed
// once per scan (bitstring.PackStride2Into) into a contiguous vector, so
// every chunk runs the same stride-1 kernel.
type scanChunk struct {
	src    *bitstring.Bits
	lo, hi int
}

// appendChunks shards windows [lo, hi) of src into scanChunkWindows-sized
// chunks. The grid depends only on window counts, so every merged
// counter is schedule-independent.
func appendChunks(chunks []scanChunk, src *bitstring.Bits, lo, hi int) []scanChunk {
	for ; lo < hi; lo += scanChunkWindows {
		chunks = append(chunks, scanChunk{src, lo, min(lo+scanChunkWindows, hi)})
	}
	return chunks
}

// runChunk processes one chunk with panic containment: a panic — from the
// fault-injection hook or from corrupted state — is recovered and reported
// as a *StageError instead of unwinding the worker, so one poisoned chunk
// costs at most its own partial counts.
func (a *scanAccum) runChunk(c scanChunk, worker, chunk int,
	env *scanEnv, cfg scanConfig) (serr *StageError) {
	defer func() {
		if r := recover(); r != nil {
			a.panics++
			serr = &StageError{Stage: "scan", Worker: worker,
				Cause: fmt.Errorf("recovered scan panic on chunk %d: %v", chunk, r)}
		}
	}()
	if cfg.hook != nil {
		cfg.hook(worker, chunk)
	}
	a.scanRangeBatched(c.src, c.lo, c.hi, env)
	return nil
}

// runScan is the scan stage's one worker pool, shared by the batch scan
// and the stream recognizer. Workers (1 = inline, no goroutines) pull
// chunks off par.For's shared cursor, each with a pooled env and a
// private accumulator; the accumulators are summed at the join. The
// returned slice holds recovered per-chunk failures (capped at
// maxStageErrors; scanAccum.panics has the true count); the error is
// non-nil only for cancellation, checked before every chunk, in which
// case the scan is abandoned.
func runScan(ctx context.Context, chunks []scanChunk, workers int, key *Key,
	cfg scanConfig) (*scanAccum, []*StageError, error) {
	type worker struct {
		env  *scanEnv
		acc  *scanAccum
		errs []*StageError
	}
	ws := make([]worker, max(1, min(workers, len(chunks))))
	for w := range ws {
		ws[w] = worker{env: getScanEnv(key, cfg), acc: newScanAccum()}
	}
	var stop func() bool
	if ctx != nil {
		stop = func() bool { return ctx.Err() != nil }
	}
	par.For(len(chunks), len(ws), stop, func(w, i int) {
		if serr := ws[w].acc.runChunk(chunks[i], w, i, ws[w].env, cfg); serr != nil &&
			len(ws[w].errs) < maxStageErrors {
			ws[w].errs = append(ws[w].errs, serr)
		}
	})
	for _, wk := range ws {
		putScanEnv(wk.env)
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}

	merged := ws[0].acc
	for _, wk := range ws[1:] {
		merged.add(wk.acc)
	}
	var errs []*StageError
	for _, wk := range ws {
		for _, serr := range wk.errs {
			if len(errs) < maxStageErrors {
				errs = append(errs, serr)
			}
		}
	}
	return merged, errs, nil
}

// scanBits runs the scan stage over the raw bit-string and its two
// stride-2 phases with the worker count, filters and hook opts
// selects — the one place RecognizeOpts becomes a scan configuration,
// shared by RecognizeBits and ScanOnly. Results are as for runScan.
func scanBits(b *bitstring.Bits, key *Key, opts RecognizeOpts) (*scanAccum, []*StageError, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg := scanConfig{hook: opts.ScanHook, filters: DefaultFilters}
	if opts.Filters != nil {
		cfg.filters = *opts.Filters
	}
	chunks := appendChunks(nil, b, 0, b.NumWindows64())
	if b.Len() >= 2 {
		// The packed phases are pooled scratch: private to this call
		// while workers run, recycled once every worker has joined.
		for phase := 0; phase < 2; phase++ {
			packed := b.PackStride2Into(packedPool.Get().(*bitstring.Bits), phase)
			defer packedPool.Put(packed)
			chunks = appendChunks(chunks, packed, 0, packed.NumWindows64())
		}
	}
	return runScan(opts.Ctx, chunks, workers, key, cfg)
}

// ScanStats summarizes one scan-stage run for benchmarking and
// reporting: window positions visited, windows submitted to the
// decrypt layer, windows decoding to an in-range statement, and the
// windows each filter layer rejected.
type ScanStats struct {
	Windows   int
	Decrypted int
	Valid     int
	Rejected  LayerRejects
}

// ScanOnly runs just the scan stage of RecognizeBits — the window
// filter/decrypt/decode pipeline over the bit-string and its stride-2
// phases — without the vote and CRT stages, so benchmarks can measure
// kernel throughput in isolation. Worker count, filters and scan hook
// come from opts exactly as in RecognizeBits.
func ScanOnly(b *bitstring.Bits, key *Key, opts RecognizeOpts) (ScanStats, error) {
	if err := b.Validate(); err != nil {
		return ScanStats{}, err
	}
	acc, _, err := scanBits(b, key, opts)
	if err != nil {
		return ScanStats{}, err
	}
	return ScanStats{
		Windows:   acc.windows,
		Decrypted: acc.decrypted,
		Valid:     acc.valid,
		Rejected:  acc.rej,
	}, nil
}

// resolveStatements runs the serial tail of the pipeline on the merged
// statement counts: the W mod p_i vote, the consistency graphs, and the
// Generalized-CRT reconstruction, filling the remaining Recognition
// fields. The context bounds the greedy graph elimination, whose
// worst-case cost on adversarial inputs is cubic in the (capped) vertex
// count: on cancellation the stage stops early, records a vote
// StageError, and leaves whatever evidence it had — degraded, not hung.
func resolveStatements(ctx context.Context, rec *Recognition, counts map[crt.Statement]int, key *Key) {
	type cand struct {
		st    crt.Statement
		count int
	}
	cands := make([]cand, 0, len(counts))
	for st, c := range counts {
		cands = append(cands, cand{st, c})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].count != cands[b].count {
			return cands[a].count > cands[b].count
		}
		ea, _ := key.Params.Encode(cands[a].st)
		eb, _ := key.Params.Encode(cands[b].st)
		return ea < eb
	})
	if len(cands) > maxGraphVertices {
		cands = cands[:maxGraphVertices]
	}
	rec.UniqueStatements = len(cands)

	// Vote on W mod p_i (weighted by occurrence count); a clear winner —
	// strictly more than twice the runner-up — eliminates every statement
	// that contradicts it.
	primes := key.Params.Primes()
	winner := make([]int64, len(primes)) // -1 = no clear winner
	for i := range winner {
		winner[i] = -1
	}
	for pi, prime := range primes {
		tally := make(map[uint64]int)
		for _, c := range cands {
			if c.st.I == pi || c.st.J == pi {
				tally[c.st.X%prime] += c.count
			}
		}
		var first, second int
		var firstRes uint64
		for res, votes := range tally {
			if votes > first || (votes == first && res < firstRes) {
				second = first
				first, firstRes = votes, res
			} else if votes > second {
				second = votes
			}
		}
		if first > 2*second {
			winner[pi] = int64(firstRes)
		}
	}
	var filtered []cand
	for _, c := range cands {
		ok := true
		for _, pi := range []int{c.st.I, c.st.J} {
			if winner[pi] >= 0 && int64(c.st.X%primes[pi]) != winner[pi] {
				ok = false
			}
		}
		if ok {
			filtered = append(filtered, c)
		}
	}
	rec.VotedOut = len(cands) - len(filtered)
	if len(filtered) == 0 {
		return
	}

	// Graphs over the remaining statements: G connects inconsistent pairs,
	// H connects pairs that agree on a shared prime. Either relation can
	// only hold between statements whose prime pairs intersect — disjoint
	// moduli are coprime, so the CRT makes such statements vacuously
	// consistent and never H-adjacent. Instead of the all-pairs gcd test
	// (quadratic in n with modular arithmetic per pair, the dominant cost
	// of this stage on large scans), statements are bucketed by incident
	// prime and residues compared within buckets: a mismatch on any shared
	// prime is a G edge, agreement on every shared prime an H edge. A pair
	// sharing both primes meets in two buckets, so agreement is tentative
	// until all buckets are processed and G has claimed its pairs.
	n := len(filtered)
	gAdj := make([][]bool, n)
	hTent := make([][]bool, n)
	for i := range gAdj {
		gAdj[i] = make([]bool, n)
		hTent[i] = make([]bool, n)
	}
	type incidence struct {
		idx int
		res uint64
	}
	buckets := make([][]incidence, len(primes))
	for i, c := range filtered {
		buckets[c.st.I] = append(buckets[c.st.I], incidence{i, c.st.X % primes[c.st.I]})
		buckets[c.st.J] = append(buckets[c.st.J], incidence{i, c.st.X % primes[c.st.J]})
	}
	gEdges := 0
	for _, b := range buckets {
		for x := 0; x < len(b); x++ {
			for y := x + 1; y < len(b); y++ {
				i, j := b[x].idx, b[y].idx
				if b[x].res == b[y].res {
					hTent[i][j], hTent[j][i] = true, true
				} else if !gAdj[i][j] {
					gAdj[i][j], gAdj[j][i] = true, true
					gEdges++
				}
			}
		}
	}
	hDegIncident := make([][]int, n) // H adjacency lists
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if hTent[i][j] && !gAdj[i][j] {
				hDegIncident[i] = append(hDegIncident[i], j)
				hDegIncident[j] = append(hDegIncident[j], i)
			}
		}
	}

	// Greedy elimination (§3.3 step C): repeatedly presume the statement
	// with the highest H-degree true and delete its G-neighbors, until G
	// is edgeless.
	alive := make([]bool, n)
	inU := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	hDeg := func(i int) int {
		d := 0
		for _, j := range hDegIncident[i] {
			if alive[j] {
				d++
			}
		}
		return d
	}
	cutOff := false
	for gEdges > 0 {
		if ctx != nil && ctx.Err() != nil {
			cutOff = true
			break
		}
		best, bestDeg := -1, -1
		for i := 0; i < n; i++ {
			if alive[i] && !inU[i] {
				if d := hDeg(i); d > bestDeg {
					best, bestDeg = i, d
				}
			}
		}
		if best < 0 {
			// All live vertices are presumed true but G still has edges:
			// cannot happen (picking a vertex removes its G-neighbors),
			// guarded for robustness.
			break
		}
		inU[best] = true
		for j := 0; j < n; j++ {
			if alive[j] && gAdj[best][j] {
				alive[j] = false
				// Every G edge from j to a still-live vertex (including
				// the edge to best itself) disappears with j.
				for k := 0; k < n; k++ {
					if alive[k] && gAdj[j][k] {
						gEdges--
					}
				}
			}
		}
	}
	if cutOff {
		rec.Degraded = true
		if len(rec.StageErrors) < maxStageErrors {
			rec.StageErrors = append(rec.StageErrors, &StageError{
				Stage: "vote", Worker: -1,
				Cause: fmt.Errorf("graph elimination cut short: %w", ctx.Err()),
			})
		}
		// A cut-short G may still hold inconsistent pairs; reconstruction
		// over them would be wrong, so keep nothing.
		return
	}

	var survivors []crt.Statement
	for i := 0; i < n; i++ {
		if alive[i] {
			survivors = append(survivors, filtered[i].st)
		}
	}
	rec.Survivors = len(survivors)
	if len(survivors) == 0 {
		return
	}
	rec.Surviving = survivors

	// Degradation score: the fraction of the key's prime basis the
	// survivors still cover. Full coverage ⇒ 1.0.
	covered := make(map[int]bool)
	for _, s := range survivors {
		covered[s.I] = true
		covered[s.J] = true
	}
	rec.Confidence = float64(len(covered)) / float64(len(primes))

	value, modulus, err := key.Params.Reconstruct(survivors)
	if err != nil {
		// Pairwise consistency should guarantee a solution; treat failure
		// as degraded recognition (the surviving statements remain usable
		// evidence) rather than an error.
		rec.Degraded = true
		return
	}
	rec.Watermark = value
	rec.Modulus = modulus
	rec.FullCoverage = modulus.Cmp(key.MaxWatermark()) == 0
	if !rec.FullCoverage {
		rec.Degraded = true
	}
}

// Matches reports whether recognition fully recovered the given watermark.
func (r *Recognition) Matches(w *big.Int) bool {
	return r != nil && r.Watermark != nil && r.FullCoverage && r.Watermark.Cmp(w) == 0
}
