package wm

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sort"

	"pathmark/internal/crt"
	"pathmark/internal/feistel"
	"pathmark/internal/obs"
	"pathmark/internal/vm"
)

// GeneratorPolicy selects which code generators the embedder may use.
type GeneratorPolicy int

const (
	// GenAuto mixes the generators, falling back to the rolled loop
	// generator at sites executed only once.
	GenAuto GeneratorPolicy = iota
	// GenLoopOnly restricts embedding to the rolled loop generator.
	GenLoopOnly
	// GenConditionOnly restricts embedding to the condition generator
	// (sites executed at least twice).
	GenConditionOnly
	// GenLoopUnrolledOnly restricts embedding to the unrolled loop
	// generator.
	GenLoopUnrolledOnly
)

// EmbedOptions tunes the embedding phase.
type EmbedOptions struct {
	// Pieces is the number of watermark pieces to insert. Zero means one
	// piece per prime pair. Requesting more than the number of pairs
	// replicates statements round-robin (redundancy); requesting fewer
	// inserts a prime-covering subset first (a spanning path over the
	// prime nodes), so recovery without attacks needs only r-1 pieces.
	Pieces int
	// Seed drives all randomized placement and generator choices, making
	// embeddings reproducible.
	Seed int64
	// Policy restricts generator selection.
	Policy GeneratorPolicy
	// StepLimit bounds the tracing run (0 = interpreter default);
	// exhaustion surfaces as a *StageError wrapping vm.ResourceError.
	StepLimit int64
	// CoalitionSafe excludes the condition generator from GenAuto's mix
	// (remapping its roll onto the unrolled loop generator, so the
	// placement rng stream is unchanged). The loop generators draw
	// randomness only for watermark-independent material — guard targets,
	// opaque-predicate operands — and carry the piece as a single constant
	// operand, so two CoalitionSafe embeddings with the same seed differ
	// ONLY in their piece constants. That is the invariant coalition-
	// resistant fleets (BatchOptions.Harden) are built on: a colluding
	// diff of such copies exposes nothing but constants whose removal
	// breaks stack discipline. Incompatible with GenConditionOnly.
	CoalitionSafe bool
	// Ctx, when non-nil, cancels the embedding: the tracing run checks it
	// continuously and the later stages check it at their boundaries.
	Ctx context.Context
	// Obs, when non-nil, receives per-stage spans (embed.trace/sites/
	// split/codegen/apply) and counters. nil costs a pointer check.
	Obs *obs.Registry
}

// PlacedPiece records one inserted piece for the report.
type PlacedPiece struct {
	Statement crt.Statement
	Encrypted uint64
	Method    int
	PC        int // insertion pc in the *original* method body
	Generator GeneratorKind
}

// EmbedReport summarizes an embedding.
type EmbedReport struct {
	Pieces        []PlacedPiece
	OriginalSize  int // instructions before embedding
	EmbeddedSize  int // instructions after embedding
	TraceEvents   int
	CandidateSite int // number of distinct candidate insertion blocks
}

// SizeIncrease returns the fractional code growth.
func (r *EmbedReport) SizeIncrease() float64 {
	if r.OriginalSize == 0 {
		return 0
	}
	return float64(r.EmbeddedSize-r.OriginalSize) / float64(r.OriginalSize)
}

// orderedStatements returns W's statements with a spanning path over the
// prime nodes first — pairs (0,1),(1,2),...,(r-2,r-1) — so that small
// piece budgets still cover every prime, then the remaining pairs.
func orderedStatements(params *crt.Params, w *big.Int) ([]crt.Statement, error) {
	stmts, err := params.Split(w)
	if err != nil {
		return nil, err
	}
	byPair := make(map[[2]int]crt.Statement, len(stmts))
	for _, s := range stmts {
		byPair[[2]int{s.I, s.J}] = s
	}
	r := len(params.Primes())
	var ordered []crt.Statement
	seen := make(map[[2]int]bool)
	for i := 0; i+1 < r; i++ {
		k := [2]int{i, i + 1}
		ordered = append(ordered, byPair[k])
		seen[k] = true
	}
	for _, s := range stmts {
		k := [2]int{s.I, s.J}
		if !seen[k] {
			ordered = append(ordered, s)
			seen[k] = true
		}
	}
	return ordered, nil
}

// ctxErr reports a nil-safe context error.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// site is a candidate insertion location derived from the trace.
type site struct {
	method int
	pc     int // leader pc of the block
	count  int64
	snaps  []vm.Snapshot
}

// hostAnalysis is the watermark-independent half of embedding: the traced
// insertion sites (with their inverse-frequency weights and snapshots) and
// the host program's original local/static layout. It depends only on the
// host program and the key's secret input, never on the watermark or the
// placement seed, so one analysis can back any number of embedOne calls —
// the amortization EmbedBatch exploits. The snapshots are read-only to the
// generators, making concurrent embedOne calls over a shared analysis safe.
type hostAnalysis struct {
	sites       []site
	condSites   []int // indices of sites executed at least twice
	allSites    []int
	weights     []float64 // per-site 1/count, the §3.2 inverse-frequency weight
	allTotal    float64   // sum of weights over allSites, in index order
	condTotal   float64   // sum of weights over condSites, in index order
	origLocals  []int     // per-method NLocals before any insertion
	origStatics int
	traceEvents int
}

// analyzeHost runs the tracing phase (§3.1) and insertion-site analysis on
// the host program. It consumes no randomness: Embed(p, w, key, opts) is
// byte-for-byte analyzeHost(p, key, opts) followed by embedOne with the
// same options.
func analyzeHost(p *vm.Program, key *Key, opts EmbedOptions) (*hostAnalysis, error) {
	// Verify the host once up front. embedOne then re-verifies only the
	// methods it modified — sound because statics and methods only grow —
	// which keeps per-copy verification cost proportional to the insertion,
	// not the whole program.
	if err := vm.Verify(p); err != nil {
		return nil, fmt.Errorf("wm: host program fails verification: %w", err)
	}
	// Tracing phase (§3.1). The step budget and context bound the run
	// (the heap runs under the interpreter's default budget): a host
	// program that spins forever (or is attacked into doing so) surfaces
	// a typed StageError instead of consuming the default 100M-step
	// budget.
	span := opts.Obs.Start("embed.trace")
	blocks, _, err := vm.CollectBlocks(p, vm.RunOptions{
		Input: key.Input, SnapshotLimit: 2,
		Ctx: opts.Ctx, StepLimit: opts.StepLimit,
	})
	if err != nil {
		span.Finish()
		return nil, &StageError{Stage: "trace", Worker: -1,
			Cause: fmt.Errorf("tracing phase: %w", err)}
	}
	traceEvents := blocks.Events()
	span.Set("trace_events", traceEvents).Finish()

	// Candidate sites: every traced block, weighted 1/frequency, in
	// (method, pc) order: blocks are numbered in pc order.
	span = opts.Obs.Start("embed.sites")
	var sites []site
	for mi, m := range blocks.Methods {
		for bi, count := range m.Count {
			if count > 0 {
				sites = append(sites, site{
					method: mi,
					pc:     m.CFG.Blocks[bi].Start,
					count:  count,
					snaps:  m.Snapshots(bi),
				})
			}
		}
	}
	if len(sites) == 0 {
		span.Finish()
		return nil, errors.New("wm: trace visited no blocks")
	}
	var condSites []int
	for i, s := range sites {
		if s.count >= 2 {
			condSites = append(condSites, i)
		}
	}
	if opts.Policy == GenConditionOnly && len(condSites) == 0 {
		span.Finish()
		return nil, errors.New("wm: no site executes twice; condition generator unusable")
	}
	allSites := make([]int, len(sites))
	for i := range allSites {
		allSites[i] = i
	}
	// Precompute the inverse-frequency weights and their totals once; the
	// per-piece weighted pick in embedOne then only scans, never divides.
	// Summation order matches the scan order, so the totals are bit-equal
	// to summing on every pick.
	weights := make([]float64, len(sites))
	allTotal := 0.0
	for i, s := range sites {
		weights[i] = 1.0 / float64(s.count)
		allTotal += weights[i]
	}
	condTotal := 0.0
	for _, i := range condSites {
		condTotal += weights[i]
	}
	span.Set("candidate_sites", int64(len(sites))).
		Set("condition_sites", int64(len(condSites))).Finish()

	origLocals := make([]int, len(p.Methods))
	for i, m := range p.Methods {
		origLocals[i] = m.NLocals
	}
	return &hostAnalysis{
		sites:       sites,
		condSites:   condSites,
		allSites:    allSites,
		weights:     weights,
		allTotal:    allTotal,
		condTotal:   condTotal,
		origLocals:  origLocals,
		origStatics: p.NStatics,
		traceEvents: int(traceEvents),
	}, nil
}

// validateWatermark checks w against the key's capacity.
func validateWatermark(w *big.Int, key *Key) error {
	if w == nil || w.Sign() < 0 {
		return errors.New("wm: watermark must be a non-negative integer")
	}
	if w.Cmp(key.MaxWatermark()) >= 0 {
		return fmt.Errorf("wm: watermark too large for key (max %d bits)", key.MaxWatermark().BitLen())
	}
	return nil
}

// Embed inserts the watermark w into a copy of p using the key and
// options, returning the watermarked program and a report (§3.2). The
// original program is not modified.
func Embed(p *vm.Program, w *big.Int, key *Key, opts EmbedOptions) (*vm.Program, *EmbedReport, error) {
	if err := validateWatermark(w, key); err != nil {
		return nil, nil, err
	}
	total := opts.Obs.Start("embed")
	defer total.Finish()
	opts.Obs.Counter("embed.calls").Add(1)
	ha, err := analyzeHost(p, key, opts)
	if err != nil {
		return nil, nil, err
	}
	return embedOne(p, ha, w, key, opts)
}

// embedOne is the watermark-dependent half of embedding: split w into CRT
// statements, encrypt them, generate stealthy code at seed-chosen sites of
// the shared analysis, and apply the insertions to a fresh clone of p. All
// randomness (site choice, generator roll, operand shapes) comes from a
// rand.Rand seeded with opts.Seed, consumed in the exact order the
// monolithic Embed used, so embedOne over a precomputed analysis produces
// byte-identical output to Embed with the same seed.
func embedOne(p *vm.Program, ha *hostAnalysis, w *big.Int, key *Key, opts EmbedOptions) (*vm.Program, *EmbedReport, error) {
	if err := validateWatermark(w, key); err != nil {
		return nil, nil, err
	}
	if opts.CoalitionSafe && opts.Policy == GenConditionOnly {
		return nil, nil, errors.New("wm: CoalitionSafe excludes the condition generator; GenConditionOnly unavailable")
	}
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, nil, &StageError{Stage: "split", Worker: -1, Cause: err}
	}
	// Copy-on-write clone: share every method with p, deep-copy a method
	// only when a piece lands in it. A batch of fingerprints over a large
	// host then pays per copy only for the few methods it modifies, not a
	// full program clone. Safe because all program transformations in this
	// codebase Clone before mutating; the embedder itself mutates methods
	// only through touch.
	out := p.CloneShared()
	touched := make(map[int]bool)
	touch := func(i int) *vm.Method {
		if !touched[i] {
			out.Methods[i] = out.Methods[i].Clone()
			touched[i] = true
		}
		return out.Methods[i]
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	sites := ha.sites

	// Inverse-frequency weights (§3.2: avoid hotspots). The weights and
	// their total come precomputed from the analysis; the subtract-and-scan
	// arithmetic is unchanged, so site choices are bit-identical to
	// recomputing the weights on every pick.
	pickSite := func(indices []int, total float64) int {
		x := rng.Float64() * total
		for _, i := range indices {
			x -= ha.weights[i]
			if x <= 0 {
				return i
			}
		}
		return indices[len(indices)-1]
	}

	// Split + encrypt pieces (§3.2 steps 1-3).
	span := opts.Obs.Start("embed.split")
	stmts, err := orderedStatements(key.Params, w)
	if err != nil {
		span.Finish()
		return nil, nil, err
	}
	span.Set("statements", int64(len(stmts))).Finish()
	nPieces := opts.Pieces
	if nPieces <= 0 {
		nPieces = len(stmts)
	}
	if minPieces := len(key.Params.Primes()) - 1; nPieces < minPieces {
		return nil, nil, fmt.Errorf("wm: %d pieces cannot cover the %d-prime basis; need at least %d",
			nPieces, len(key.Params.Primes()), minPieces)
	}
	cipher := feistel.New(key.Cipher)

	report := &EmbedReport{
		OriginalSize:  p.CodeSize(),
		TraceEvents:   ha.traceEvents,
		CandidateSite: len(sites),
	}

	// Decide every insertion first (sites reference original pcs), then
	// apply per method in descending pc order so indices stay valid.
	type insertion struct {
		method int
		pc     int
		code   []vm.Instr
		piece  PlacedPiece
	}
	span = opts.Obs.Start("embed.codegen")
	var insertions []insertion
	for n := 0; n < nPieces; n++ {
		st := stmts[n%len(stmts)]
		enc, err := key.Params.Encode(st)
		if err != nil {
			span.Finish()
			return nil, nil, err
		}
		// Frame before encrypting: the headroom bits above the payload
		// carry the structural check the recognizer's framing layer
		// verifies after decryption (see crt.Params.Frame).
		block := cipher.Encrypt(key.Params.Frame(enc))

		var gen GeneratorKind
		var si int
		switch opts.Policy {
		case GenLoopOnly:
			gen, si = GenLoop, pickSite(ha.allSites, ha.allTotal)
		case GenLoopUnrolledOnly:
			gen, si = GenLoopUnrolled, pickSite(ha.allSites, ha.allTotal)
		case GenConditionOnly:
			gen, si = GenCondition, pickSite(ha.condSites, ha.condTotal)
		default:
			si = pickSite(ha.allSites, ha.allTotal)
			switch roll := rng.Intn(10); {
			case sites[si].count >= 2 && roll < 3 && !opts.CoalitionSafe:
				gen = GenCondition
			case roll < 4:
				gen = GenLoopUnrolled
			default:
				gen = GenLoop
			}
		}
		s := sites[si]
		env := &hostEnv{
			prog:        out,
			method:      touch(s.method),
			origLocals:  ha.origLocals[s.method],
			origStatics: ha.origStatics,
			snaps:       s.snaps,
		}
		var code []vm.Instr
		switch gen {
		case GenLoop:
			code = genRolledLoopPiece(rng, env, s.pc, block)
		case GenLoopUnrolled:
			code = genLoopPiece(rng, env, s.pc, block)
		default:
			code = genConditionPiece(rng, env, s.pc, block)
		}
		insertions = append(insertions, insertion{
			method: s.method, pc: s.pc, code: code,
			piece: PlacedPiece{Statement: st, Encrypted: block, Method: s.method, PC: s.pc, Generator: gen},
		})
		report.Pieces = append(report.Pieces, insertions[len(insertions)-1].piece)
		span.Add("generated_instrs", int64(len(code)))
	}
	span.Set("pieces", int64(nPieces)).Finish()

	if err := ctxErr(opts.Ctx); err != nil {
		return nil, nil, &StageError{Stage: "apply", Worker: -1, Cause: err}
	}

	// Apply each method's insertions in one splice, in descending pc
	// order. Insertions that share a pc go in decision order, so they
	// lie in reverse decision order, each fragment contiguous. Each
	// fragment's internal branch targets were computed relative to its
	// decided pc, and descending order keeps them valid: later fragments
	// go in at pcs <= this one and shift only targets strictly greater
	// than their pc, including targets inside fragments already in,
	// which all lie past their own leader pc.
	span = opts.Obs.Start("embed.apply")
	sort.SliceStable(insertions, func(a, b int) bool {
		if insertions[a].method != insertions[b].method {
			return insertions[a].method < insertions[b].method
		}
		return insertions[a].pc > insertions[b].pc
	})
	frags := make([]vm.Fragment, len(insertions))
	for i, ins := range insertions {
		frags[i] = vm.Fragment{PC: ins.pc, Code: ins.code}
	}
	for lo := 0; lo < len(insertions); {
		hi := lo + 1
		for hi < len(insertions) && insertions[hi].method == insertions[lo].method {
			hi++
		}
		out.Methods[insertions[lo].method].Splice(frags[lo:hi])
		lo = hi
	}

	report.EmbeddedSize = out.CodeSize()
	// Re-verify only the methods this embedding modified; analyzeHost
	// already verified the rest (and statics/methods only grow, so they
	// stay valid). Sorted for a deterministic first error.
	methods := make([]int, 0, len(touched))
	for i := range touched {
		methods = append(methods, i)
	}
	sort.Ints(methods)
	for _, i := range methods {
		if err := vm.VerifyMethod(out, i); err != nil {
			span.Finish()
			return nil, nil, fmt.Errorf("wm: embedded program fails verification: %w", err)
		}
	}
	span.Set("original_size", int64(report.OriginalSize)).
		Set("embedded_size", int64(report.EmbeddedSize)).Finish()
	opts.Obs.Counter("embed.pieces_total").Add(int64(nPieces))
	opts.Obs.Histogram("embed.size_increase_bp").
		Observe(int64(report.SizeIncrease() * 10_000))
	return out, report, nil
}
