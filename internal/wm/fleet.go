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

// TraceKey is the content address of a trace: the program and the
// secret input fully determine it (§3.1), so two corpus cells whose
// suspects digest equal and whose keys share an input — the common
// fingerprinting setup, one input for the whole fleet — need one trace.
type TraceKey struct {
	Program cache.Digest
	Input   cache.Digest
}

// Cell is one (suspect, key) grade of a corpus matrix, by index.
type Cell struct{ S, K int }

// TraceUnits groups cells by TraceKey{progDigests[S], the digest of
// keys[K].Input}: each unit is the cells one trace serves, in the order
// they appear in cells, and units come in the order of their first
// cell. progDigests[s] must be ProgramDigest of suspect s. Grading a
// unit is one TraceBits of its first cell's program and input followed
// by RecognizeBits for each of its cells.
func TraceUnits(progDigests []cache.Digest, keys []*Key, cells []Cell) [][]Cell {
	inputs := make(map[int]cache.Digest, len(keys))
	unitOf := make(map[TraceKey]int)
	var units [][]Cell
	for _, c := range cells {
		in, ok := inputs[c.K]
		if !ok {
			in = cache.DigestInt64s(keys[c.K].Input)
			inputs[c.K] = in
		}
		tk := TraceKey{Program: progDigests[c.S], Input: in}
		u, ok := unitOf[tk]
		if !ok {
			u = len(units)
			unitOf[tk] = u
			units = append(units, nil)
		}
		units[u] = append(units[u], c)
	}
	return units
}

// TraceBits runs p on input under opts' context, step and heap bounds
// and returns the trace bit-string every key sharing the input scans. A
// failure is a trace *StageError wrapping the run's error.
func TraceBits(p *vm.Program, input []int64, opts CorpusOpts) (*bitstring.Bits, error) {
	bits, _, err := collectBits(opts.Ctx, p, input, opts.StepLimit, opts.MaxHeap)
	if err != nil {
		return nil, &StageError{Stage: "trace", Worker: -1,
			Cause: fmt.Errorf("corpus trace failed: %w", err)}
	}
	return bits, nil
}

// FleetCaches is empty: perfbench-only, removed by ROADMAP item 1.
type FleetCaches struct{}

// NewFleetCaches ignores its arguments: perfbench-only, removed by
// ROADMAP item 1.
func NewFleetCaches(_, _ int) *FleetCaches { return &FleetCaches{} }

// DecryptCacheFor returns nil: perfbench-only, removed by ROADMAP item 1.
func (f *FleetCaches) DecryptCacheFor(feistel.Key) *struct{} { return nil }

// DecryptStats returns zero stats: perfbench-only, removed by ROADMAP item 1.
func (f *FleetCaches) DecryptStats() cache.Stats { return cache.Stats{} }

// CorpusOpts tunes RecognizeCorpus. Every pair scans with
// DefaultFilters.
type CorpusOpts struct {
	// Workers bounds the goroutines processing trace units: 0 picks
	// runtime.GOMAXPROCS(0), 1 forces the serial path. Results are
	// identical at any worker count.
	Workers int
	// StepLimit / MaxHeap bound each tracing run (0 = interpreter default).
	StepLimit int64
	MaxHeap   int64
	// Ctx, when non-nil, cancels the corpus run.
	Ctx context.Context
	// Obs, when non-nil, receives the recognize.corpus span and
	// corpus-level counters. Per-pair recognitions run without a
	// registry: concurrent pairs would interleave their stage spans
	// nondeterministically.
	Obs *obs.Registry
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
	// Traces is the number of tracing runs: one per distinct (suspect
	// program, input), the amortization evidence.
	Traces int
}

// RecognizeCorpus matches every suspect program against every candidate
// key. The cells are grouped into TraceUnits and each unit traces once —
// keys sharing an input (the whole-fleet-one-input setup) scan the same
// bit-string. Results are bit-identical to calling RecognizeWithOpts per
// pair: the trace depends only on the program and the input, and the
// scan counters are shard sums.
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

	res := &CorpusResult{
		Recognitions: make([][]*Recognition, len(suspects)),
		Errors:       make([][]error, len(suspects)),
	}
	progDigests := make([]cache.Digest, len(suspects))
	cells := make([]Cell, 0, len(suspects)*len(keys))
	for s, p := range suspects {
		progDigests[s] = ProgramDigest(p)
		res.Recognitions[s] = make([]*Recognition, len(keys))
		res.Errors[s] = make([]error, len(keys))
		for k := range keys {
			cells = append(cells, Cell{s, k})
		}
	}
	units := TraceUnits(progDigests, keys, cells)

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Pairs scan serially: the parallelism is the units in flight.
	scan := RecognizeOpts{Workers: 1, Ctx: opts.Ctx}
	par.For(len(units), workers, func() bool { return ctxErr(opts.Ctx) != nil }, func(_, i int) {
		unit := units[i]
		bits, err := TraceBits(suspects[unit[0].S], keys[unit[0].K].Input, opts)
		for _, c := range unit {
			if err != nil {
				res.Errors[c.S][c.K] = err
				continue
			}
			res.Recognitions[c.S][c.K], res.Errors[c.S][c.K] = RecognizeBits(bits, keys[c.K], scan)
		}
	})
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, &StageError{Stage: "corpus", Worker: -1, Cause: err}
	}

	res.Traces = len(units)
	opts.Obs.Counter("recognize.corpus.pairs").Add(int64(len(cells)))
	opts.Obs.Counter("recognize.corpus.traces").Add(int64(res.Traces))
	total.Set("suspects", int64(len(suspects))).
		Set("keys", int64(len(keys))).
		Set("pairs", int64(len(cells))).
		Set("traces_run", int64(res.Traces))
	return res, nil
}
