package wm

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"runtime"

	"pathmark/internal/bitstring"
	"pathmark/internal/cache"
	"pathmark/internal/feistel"
	"pathmark/internal/obs"
	"pathmark/internal/par"
	"pathmark/internal/vm"
)

// This file is the fleet layer (§1: fingerprinting): embedding a distinct
// watermark into every shipped copy of one program, and matching suspect
// copies against a whole fleet of candidate keys. Both directions amortize
// the watermark-independent work — EmbedBatch runs the base trace and
// insertion-site analysis once for N fingerprints, RecognizeCorpus traces
// each suspect once per distinct secret input and reuses that trace for
// every candidate key sharing the input.

// BatchOptions tunes EmbedBatch. The embedded EmbedOptions apply to every
// copy, except that copy i uses Seed+int64(i) — each fingerprint gets its
// own placement, and EmbedBatch(p, ws, key, o)[i] is byte-identical to
// Embed(p, ws[i], key, o.EmbedOptions) with that per-copy seed. Harden
// replaces the per-copy seed shift with shared placement.
type BatchOptions struct {
	EmbedOptions
	// Workers bounds the goroutines embedding copies concurrently:
	// 0 picks runtime.GOMAXPROCS(0), 1 forces the serial path. The output
	// is identical at any worker count (each copy's randomness is an
	// independent rng seeded from Seed+index, or plain Seed under Harden).
	Workers int
	// Harden makes the fleet coalition-resistant: every copy embeds with
	// the SAME placement seed (no per-copy shift) and CoalitionSafe
	// generators, so all copies are instruction-identical except for the
	// encrypted piece constants — one OpConst immediate per piece. A
	// coalition diffing hardened copies (attacks.Collude) localizes only
	// those constants, and stripping them breaks the program's stack
	// discipline, forcing the attack to roll back; the divergent-site
	// leverage that defeats per-copy placement at small coalition sizes is
	// gone. Copy i is byte-identical to Embed(p, ws[i], key, e) where e is
	// o.EmbedOptions with CoalitionSafe forced on and the seed unshifted.
	Harden bool
}

// Fingerprint is one embedded copy of a fleet: the customer index, the
// watermark identifying the customer, and the watermarked program.
type Fingerprint struct {
	Index     int
	Watermark *big.Int
	Program   *vm.Program
	Report    *EmbedReport
}

// EmbedBatch embeds each watermark in ws into its own copy of p, running
// the tracing phase and insertion-site analysis once and reusing them for
// every copy (the per-copy work is only split/encrypt/codegen/apply). The
// watermarks need not be distinct, but fingerprinting wants them distinct —
// see RandomWatermark for generating a fleet's worth.
//
// On error the whole batch fails: either a watermark is out of range
// (reported before any embedding), the shared analysis fails, or some
// copy's embedding fails (the lowest failing index is reported, so the
// error is deterministic at any worker count).
func EmbedBatch(p *vm.Program, ws []*big.Int, key *Key, opts BatchOptions) ([]Fingerprint, error) {
	if len(ws) == 0 {
		return nil, errors.New("wm: EmbedBatch needs at least one watermark")
	}
	for i, w := range ws {
		if err := validateWatermark(w, key); err != nil {
			return nil, fmt.Errorf("wm: batch watermark %d: %w", i, err)
		}
	}
	total := opts.Obs.Start("embed.batch")
	defer total.Finish()
	opts.Obs.Counter("embed.batch.calls").Add(1)
	opts.Obs.Counter("embed.batch.copies").Add(int64(len(ws)))

	ha, err := analyzeHost(p, key, opts.EmbedOptions)
	if err != nil {
		return nil, err
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	copies := make([]Fingerprint, len(ws))
	errs := make([]error, len(ws))
	embedCopy := func(_, i int) {
		// Per-copy options: shifted seed (shared under Harden), no
		// registry — concurrent copies would interleave their stage spans
		// nondeterministically, so the batch records only batch-level
		// metrics.
		one := opts.EmbedOptions
		if opts.Harden {
			one.CoalitionSafe = true
		} else {
			one.Seed += int64(i)
		}
		one.Obs = nil
		prog, report, err := embedOne(p, ha, ws[i], key, one)
		if err != nil {
			errs[i] = err
			return
		}
		copies[i] = Fingerprint{Index: i, Watermark: ws[i], Program: prog, Report: report}
	}
	par.For(len(ws), workers, func() bool { return ctxErr(opts.Ctx) != nil }, embedCopy)
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, &StageError{Stage: "batch", Worker: -1, Cause: err}
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("wm: batch copy %d: %w", i, err)
		}
	}
	total.Set("copies", int64(len(ws))).
		Set("candidate_sites", int64(len(ha.sites)))
	return copies, nil
}

// ProgramDigest content-addresses a program: the SHA-256 of its canonical
// disassembly (vm.AppendDump). Two programs digest equal iff they
// disassemble identically, which is exactly the granularity at which
// traces (and hence recognition inputs) can be shared.
func ProgramDigest(p *vm.Program) cache.Digest {
	return cache.DigestBytes(vm.AppendDump(nil, p))
}

// TraceKey is the content address of a decoded trace bit-string: the
// program and the secret input fully determine the trace, so two corpus
// pairs whose keys share an input — the common fingerprinting setup, one
// input for the whole fleet — hit the same entry. Invalidation is
// automatic: any change to the program or input changes the key.
type TraceKey struct {
	Program cache.Digest
	Input   cache.Digest
}

// FleetCaches is the shared state of fleet-scale recognition: a
// content-addressed trace cache (TraceKey -> decoded bit-string). A
// long-lived FleetCaches can span many RecognizeCorpus calls — entries
// never go stale because every key is a content address. The zero value
// is not usable; a nil *FleetCaches degrades every lookup to a direct
// computation.
type FleetCaches struct {
	traces *cache.Keyed[TraceKey, *bitstring.Bits]
}

// NewFleetCaches builds a FleetCaches holding at most maxTraces decoded
// bit-strings (<= 0 = unbounded). The second argument, the deleted
// decrypt memo's bound, is ignored; ROADMAP item 1 removes it.
func NewFleetCaches(maxTraces, _ int) *FleetCaches {
	return &FleetCaches{traces: cache.NewKeyed[TraceKey, *bitstring.Bits](maxTraces)}
}

// DecryptCacheFor returns nil: perfbench-only, removed by ROADMAP item 1.
func (f *FleetCaches) DecryptCacheFor(feistel.Key) *struct{} { return nil }

// ForgetTrace drops one cached trace (value or memoized failure) so the
// next grade of that (program, input) pair retraces, reporting whether an
// entry was present. The retry layer calls it before re-attempting a
// grade whose trace failed: without the invalidation a retry would only
// replay the cached error.
func (f *FleetCaches) ForgetTrace(k TraceKey) bool {
	if f == nil {
		return false
	}
	return f.traces.Forget(k)
}

// TraceStats snapshots the trace cache's traffic (zero on nil).
func (f *FleetCaches) TraceStats() cache.Stats {
	if f == nil {
		return cache.Stats{}
	}
	return f.traces.Stats()
}

// DecryptStats returns zero stats: perfbench-only, removed by ROADMAP item 1.
func (f *FleetCaches) DecryptStats() cache.Stats { return cache.Stats{} }

// traceBits returns the decoded trace bit-string for (p, input), from the
// cache when possible. Concurrent callers of the same TraceKey coalesce
// onto one tracing run (singleflight); trace failures are cached too — a
// suspect that exhausts its step budget does so deterministically, so
// retrying per candidate key would only repeat the failure.
func (f *FleetCaches) traceBits(p *vm.Program, k TraceKey, input []int64,
	ctx context.Context, stepLimit, maxHeap int64) (*bitstring.Bits, error) {
	compute := func() (*bitstring.Bits, error) {
		bits, _, err := collectBits(ctx, p, input, stepLimit, maxHeap)
		if err != nil {
			return nil, &StageError{Stage: "trace", Worker: -1,
				Cause: fmt.Errorf("corpus trace failed: %w", err)}
		}
		return bits, nil
	}
	if f == nil {
		return compute()
	}
	return f.traces.GetOrCompute(k, compute)
}

// GradePair grades one (suspect, key) pair through the fleet caches: the
// trace comes from (or lands in) fc's content-addressed trace cache and
// the scan batch-decrypts every surviving window. It is the unit of work
// of RecognizeCorpus — the corpus call is exactly an M×K fan-out of
// GradePair — exported so layers that schedule grades themselves (the
// journaled jobs runner, which checkpoints after every grade) produce
// Recognitions bit-identical to a RecognizeCorpus over the same matrix.
// progDigest must be ProgramDigest(p), hoisted out so callers grading one
// suspect against many keys hash the program once. A nil fc degrades to
// uncached computation; only the Workers/Obs fields of opts are ignored
// (per-grade scheduling belongs to the caller).
func GradePair(p *vm.Program, progDigest cache.Digest, key *Key, fc *FleetCaches, opts CorpusOpts) (*Recognition, error) {
	b, err := fc.traceBits(p,
		TraceKey{Program: progDigest, Input: cache.DigestInt64s(key.Input)},
		key.Input, opts.Ctx, opts.StepLimit, opts.MaxHeap)
	if err != nil {
		return nil, err
	}
	scanWorkers := opts.ScanWorkers
	if scanWorkers <= 0 {
		scanWorkers = 1
	}
	return RecognizeBits(b, key, RecognizeOpts{Workers: scanWorkers, Ctx: opts.Ctx})
}

// CorpusOpts tunes RecognizeCorpus. Every pair scans with
// DefaultFilters.
type CorpusOpts struct {
	// Workers bounds the goroutines processing (suspect, key) pairs:
	// 0 picks runtime.GOMAXPROCS(0), 1 forces the serial path. Results are
	// identical at any worker count.
	Workers int
	// ScanWorkers is the per-pair scan fan-out (RecognizeOpts.Workers).
	// 0 means 1: with many pairs in flight the corpus-level parallelism
	// already saturates the machine, and nested fan-out only adds
	// scheduling overhead.
	ScanWorkers int
	// StepLimit / MaxHeap bound each tracing run (0 = interpreter default).
	StepLimit int64
	MaxHeap   int64
	// Ctx, when non-nil, cancels the corpus run.
	Ctx context.Context
	// Obs, when non-nil, receives the recognize.corpus span and
	// corpus-level counters, including this call's trace-cache traffic
	// deltas (cache.trace.*). Per-pair recognitions run without a
	// registry: concurrent pairs would interleave their stage spans
	// nondeterministically.
	Obs *obs.Registry
	// Caches, when non-nil, supplies a long-lived trace cache so traces
	// persist across corpus calls. nil builds a fresh cache scoped to
	// this call (still shared across its pairs).
	Caches *FleetCaches
}

// CorpusResult is the M×K outcome matrix of a corpus recognition.
type CorpusResult struct {
	// Recognitions[s][k] is the recognition of suspect s against key k,
	// bit-identical to RecognizeWithOpts(suspects[s], keys[k], ...) with
	// the same scan options; nil when that pair failed hard (see Errors).
	Recognitions [][]*Recognition
	// Errors[s][k] holds the pair's error: a trace failure (shared by
	// every pair of that suspect and input) or a degraded recognition's
	// first StageError. A pair can have both a Recognition and an error —
	// same contract as RecognizeWithOpts.
	Errors [][]error
	// TraceStats is this call's trace-cache traffic delta. With a fresh
	// cache, TraceStats.Misses is the number of distinct (suspect, input)
	// traces run — the amortization evidence.
	TraceStats cache.Stats
}

// RecognizeCorpus matches every suspect program against every candidate
// key. Each suspect is traced once per distinct secret input — keys
// sharing an input (the whole-fleet-one-input setup) reuse the decoded
// bit-string. Results are bit-identical to calling RecognizeWithOpts per
// pair: the trace cache is a pure memo table and the scan counters are
// shard sums.
//
// Hard errors on one pair (a suspect whose trace dies) do not abort the
// corpus; they land in the result's Errors matrix. The returned error is
// non-nil only when the whole run is unusable (bad arguments or
// cancellation).
func RecognizeCorpus(suspects []*vm.Program, keys []*Key, opts CorpusOpts) (*CorpusResult, error) {
	if len(suspects) == 0 {
		return nil, errors.New("wm: RecognizeCorpus needs at least one suspect")
	}
	if len(keys) == 0 {
		return nil, errors.New("wm: RecognizeCorpus needs at least one candidate key")
	}
	total := opts.Obs.Start("recognize.corpus")
	defer total.Finish()
	opts.Obs.Counter("recognize.corpus.calls").Add(1)

	fc := opts.Caches
	if fc == nil {
		fc = NewFleetCaches(0, 0)
	}
	traceBefore := fc.TraceStats()

	// Content addresses, computed once up front.
	progDigests := make([]cache.Digest, len(suspects))
	for i, p := range suspects {
		progDigests[i] = ProgramDigest(p)
	}

	res := &CorpusResult{
		Recognitions: make([][]*Recognition, len(suspects)),
		Errors:       make([][]error, len(suspects)),
	}
	for s := range suspects {
		res.Recognitions[s] = make([]*Recognition, len(keys))
		res.Errors[s] = make([]error, len(keys))
	}

	type pair struct{ s, k int }
	pairs := make([]pair, 0, len(suspects)*len(keys))
	for s := range suspects {
		for k := range keys {
			pairs = append(pairs, pair{s, k})
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	par.For(len(pairs), workers, func() bool { return ctxErr(opts.Ctx) != nil }, func(_, i int) {
		pr := pairs[i]
		rec, err := GradePair(suspects[pr.s], progDigests[pr.s], keys[pr.k], fc, opts)
		res.Recognitions[pr.s][pr.k] = rec
		res.Errors[pr.s][pr.k] = err
	})
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, &StageError{Stage: "corpus", Worker: -1, Cause: err}
	}

	res.TraceStats = fc.TraceStats().Sub(traceBefore)
	opts.Obs.Counter("recognize.corpus.pairs").Add(int64(len(pairs)))
	opts.Obs.Counter("cache.trace.hits").Add(res.TraceStats.Hits)
	opts.Obs.Counter("cache.trace.misses").Add(res.TraceStats.Misses)
	opts.Obs.Counter("cache.trace.evictions").Add(res.TraceStats.Evictions)
	total.Set("suspects", int64(len(suspects))).
		Set("keys", int64(len(keys))).
		Set("pairs", int64(len(pairs))).
		Set("traces_run", int64(res.TraceStats.Misses))
	return res, nil
}
