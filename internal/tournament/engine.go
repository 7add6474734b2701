package tournament

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"

	"pathmark/internal/attacks"
	"pathmark/internal/feistel"
	"pathmark/internal/iofault"
	"pathmark/internal/jobs"
	"pathmark/internal/obs"
	"pathmark/internal/par"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
)

// Outcome classifies one cell of the robustness matrix.
type Outcome string

const (
	// OutcomeSurvive: recognition fully recovered the victim's watermark.
	OutcomeSurvive Outcome = "survive"
	// OutcomeDegrade: partial evidence survived (some consistent
	// statements) but identification failed.
	OutcomeDegrade Outcome = "degrade"
	// OutcomeFail: no usable evidence, a hard error, or identification of
	// the wrong customer.
	OutcomeFail Outcome = "fail"
)

// CellResult is one graded cell of the grid. Everything in it is a pure
// function of the manifest — attempts included, since attacks and grades
// are deterministic — so the matrix encodes byte-identically at any
// worker count and across kill/resume cycles.
type CellResult struct {
	Fleet    int     `json:"fleet"`
	Attack   int     `json:"attack"`
	Strength int     `json:"strength"`
	Outcome  Outcome `json:"outcome"`
	// Confidence is the recognition's prime-basis coverage (1.0 = full).
	Confidence float64 `json:"confidence"`
	// Matched is the customer index identification returned (-1 = none;
	// anything but 0 — the victim — is a miss).
	Matched int `json:"matched"`
	// Colluders is the effective coalition size of a collusion cell
	// (strength clamped to the fleet), 0 for catalog attacks.
	Colluders int `json:"colluders,omitempty"`
	// Attempts counts tries (>1 only after typed-error retries).
	Attempts int    `json:"attempts,omitempty"`
	Err      string `json:"err,omitempty"`
}

// campaignJournalVersion versions the cell journal schema. v2 added the
// per-record checksum frame.
const campaignJournalVersion = 2

// campaignHeader is the journal's first line: it pins the campaign
// digest, so a resume over a different campaign's journal is refused.
type campaignHeader struct {
	V        int    `json:"v"`
	Type     string `json:"type"` // "header"
	Campaign string `json:"campaign"`
	Cells    int    `json:"cells"`
}

// cellRecord journals one settled cell.
type cellRecord struct {
	Type string     `json:"type"` // "cell"
	Idx  int        `json:"idx"`
	Cell CellResult `json:"cell"`
}

// ErrCampaignMismatch reports a journal that belongs to a different
// campaign manifest.
var ErrCampaignMismatch = errors.New("tournament: journal belongs to a different campaign")

// Options tunes a campaign run.
type Options struct {
	// Workers bounds concurrent cells (0 = 1). The matrix is identical at
	// any worker count.
	Workers int
	// Retry bounds per-cell attempts for typed (retryable) errors,
	// sharing the jobs tier's policy and classification.
	Retry jobs.RetryPolicy
	// NoSync skips per-record fsync (tests; a real campaign keeps it on).
	NoSync bool
	// Ctx, when non-nil, cancels the run; settled cells stay journaled.
	Ctx context.Context
	// Obs, when non-nil, receives the tournament.* span and counters.
	Obs *obs.Registry
	// FS, when non-nil, is the filesystem the journal and matrix flow
	// through (nil = the real one); the storage chaos harness swaps in an
	// iofault.FaultFS.
	FS iofault.FS
	// Trace, when non-nil, receives cell.done/campaign.* events.
	Trace *obs.Trace
	// OnCell, when non-nil, runs after each live cell settles (journal
	// write included), with the total number of settled cells so far —
	// the CLI's progress and crash-injection hook. Cells restored from
	// the journal at Open never pass through it.
	OnCell func(settled int, c CellResult)
}

// Campaign is an open tournament run bound to a directory.
type Campaign struct {
	manifest *Manifest
	digest   string
	dir      string
	opts     Options

	journal *jobs.WAL
	mu      sync.Mutex
	cells   []*CellResult // by cell index; nil = pending
	settled int
	reused  int

	host *vm.Program
	key  *wm.Key
	ws   []*big.Int

	fleets     []*fleetState
	cellSeeds  []int64
	cellFleet  []int // cell index -> fleet/attack/strength coordinates
	cellAttack []int
	cellStr    []int
}

// fleetState lazily embeds one FleetSpec's fleet, once, shared by every
// cell that grades against it.
type fleetState struct {
	once   sync.Once
	copies []wm.Fingerprint
	err    error
}

// MatrixPath names the campaign's one tournament-specific artifact, the
// attack matrix. The journal and trace live under the names every engine
// layered on the jobs directory contract shares — jobs.JournalPath and
// jobs.TracePath — so the layers cannot diverge on file naming.
func MatrixPath(dir string) string { return filepath.Join(dir, "matrix.json") }

// Open binds a campaign to dir, creating the directory and journal on
// first use and replaying an existing journal on resume. Replayed cells
// are final: Run never re-executes them.
func Open(dir string, m *Manifest, opts Options) (*Campaign, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	digest, err := m.DigestHex()
	if err != nil {
		return nil, err
	}
	fs := opts.FS
	if fs == nil {
		fs = iofault.OS
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tournament: create campaign dir: %w", err)
	}

	c := &Campaign{manifest: m, digest: digest, dir: dir, opts: opts}
	c.indexCells()
	c.journal, err = jobs.OpenWAL(fs, jobs.JournalPath(dir), campaignHeader{
		V: campaignJournalVersion, Type: "header",
		Campaign: digest, Cells: len(c.cells),
	}, !opts.NoSync, c.replayHeader, c.replayRecord)
	if err != nil {
		return nil, err
	}
	c.reused = c.settled
	opts.Obs.Counter("tournament.open").Add(1)
	opts.Trace.Event("tournament.open", map[string]int64{
		"cells": int64(len(c.cells)), "reused": int64(c.reused),
	}, map[string]string{"campaign": digest})
	return c, nil
}

// replayHeader and replayRecord are the cell journal's side of
// jobs.OpenWAL: the header must name this campaign, and every in-range
// cell record is restored as final — Run never re-executes it. A framed
// record that is not an in-range cell ends the replay.
func (c *Campaign) replayHeader(line []byte) error {
	var h campaignHeader
	if err := json.Unmarshal(line, &h); err != nil {
		return fmt.Errorf("tournament: journal header: %w", err)
	}
	switch {
	case h.Type != "header":
		return errors.New("tournament: journal does not start with a header record")
	case h.V != campaignJournalVersion:
		return fmt.Errorf("tournament: journal version %d, want %d", h.V, campaignJournalVersion)
	case h.Campaign != c.digest || h.Cells != len(c.cells):
		return fmt.Errorf("%w: journal campaign %.12s (%d cells), manifest %.12s (%d cells)",
			ErrCampaignMismatch, h.Campaign, h.Cells, c.digest, len(c.cells))
	}
	return nil
}

func (c *Campaign) replayRecord(line []byte) (bool, error) {
	var r cellRecord
	if json.Unmarshal(line, &r) != nil || r.Type != "cell" || r.Idx < 0 || r.Idx >= len(c.cells) {
		return false, nil
	}
	if c.cells[r.Idx] == nil {
		c.settled++
	}
	c.cells[r.Idx] = &r.Cell
	return true, nil
}

// indexCells enumerates the grid in canonical order (fleet-major, then
// attack, then strength) and derives each cell's deterministic seed.
func (c *Campaign) indexCells() {
	m := c.manifest
	n := len(m.Fleets) * len(m.Attacks) * len(m.Strengths)
	c.cells = make([]*CellResult, n)
	c.cellSeeds = make([]int64, n)
	c.cellFleet = make([]int, n)
	c.cellAttack = make([]int, n)
	c.cellStr = make([]int, n)
	i := 0
	for fi := range m.Fleets {
		for ai := range m.Attacks {
			for si := range m.Strengths {
				c.cellFleet[i], c.cellAttack[i], c.cellStr[i] = fi, ai, si
				c.cellSeeds[i] = cellSeed(m.Seed, fi, ai, si)
				i++
			}
		}
	}
	c.fleets = make([]*fleetState, len(m.Fleets))
	for fi := range c.fleets {
		c.fleets[fi] = &fleetState{}
	}
}

// cellSeed mixes the campaign seed with the cell coordinates through the
// fleet cipher, so every cell's attack rng is independent yet replayable.
func cellSeed(seed int64, fi, ai, si int) int64 {
	c := feistel.New(feistel.KeyFromUint64(uint64(seed), 0x746f75726e616d65))
	x := c.Encrypt(uint64(fi)<<40 | uint64(ai)<<20 | uint64(si))
	return int64(x)
}

// Reused reports how many cells this process restored from the journal.
func (c *Campaign) Reused() int { return c.reused }

// Pending reports how many cells Run still has to grade.
func (c *Campaign) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cells) - c.settled
}

// Close releases the journal. The campaign directory stays resumable.
func (c *Campaign) Close() error { return c.journal.Close() }

// prepare builds the campaign's shared state: host program, key,
// per-customer watermarks. Deterministic in the manifest alone.
func (c *Campaign) prepare() error {
	if c.host != nil {
		return nil
	}
	m := c.manifest
	host, err := m.BuildHost()
	if err != nil {
		return err
	}
	key, err := wm.NewKey(m.Input, feistel.KeyFromUint64(uint64(m.Seed)^0x7061746d61726b21, 0x504c444932303034), m.WBits)
	if err != nil {
		return fmt.Errorf("tournament: derive key: %w", err)
	}
	maxFleet := 0
	for _, f := range m.Fleets {
		if f.Size > maxFleet {
			maxFleet = f.Size
		}
	}
	ws := make([]*big.Int, maxFleet)
	for i := range ws {
		ws[i] = wm.RandomWatermark(m.WBits, uint64(m.Seed)*0x9e3779b97f4a7c15+uint64(i))
	}
	c.host, c.key, c.ws = host, key, ws
	return nil
}

// fleet returns fleet fi's fingerprinted copies, embedding them on first
// use (once per campaign, shared across cells and retries).
func (c *Campaign) fleet(fi int) ([]wm.Fingerprint, error) {
	fs := c.fleets[fi]
	fs.once.Do(func() {
		spec := c.manifest.Fleets[fi]
		span := c.opts.Obs.Start("tournament.embed_fleet")
		defer span.Finish()
		fs.copies, fs.err = wm.EmbedBatch(c.host, c.ws[:spec.Size], c.key, wm.BatchOptions{
			EmbedOptions: wm.EmbedOptions{
				Pieces: c.manifest.Pieces,
				Seed:   c.manifest.Seed,
				Ctx:    c.opts.Ctx,
			},
			Harden: spec.Harden,
		})
		span.Set("size", int64(spec.Size))
	})
	return fs.copies, fs.err
}

// runCell grades one cell once, with panic containment at the cell
// boundary (the same contract scan chunks have): a panicking attack or
// grade degrades the cell, never the worker.
func (c *Campaign) runCell(idx int) (cell CellResult, err error) {
	m := c.manifest
	fi, ai, si := c.cellFleet[idx], c.cellAttack[idx], c.cellStr[idx]
	cell = CellResult{Fleet: fi, Attack: ai, Strength: si, Matched: -1}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("tournament: cell %d panic: %v", idx, r)
		}
	}()

	copies, err := c.fleet(fi)
	if err != nil {
		return cell, err
	}
	spec := m.Attacks[ai]
	strength := m.Strengths[si]
	rng := rand.New(rand.NewSource(c.cellSeeds[idx]))

	var attacked *vm.Program
	if spec.Collusion != "" {
		k := strength
		if k > len(copies) {
			k = len(copies)
		}
		cell.Colluders = k
		progs := make([]*vm.Program, k)
		for i := 0; i < k; i++ {
			progs[i] = copies[i].Program
		}
		mode := attacks.CollusionStrip
		if spec.Collusion == "randomize" {
			mode = attacks.CollusionRandomize
		}
		probes := append([][]int64{m.Input}, attacks.DefaultProbes()...)
		attacked, _, err = attacks.Collude(progs, rng, attacks.CollusionOptions{
			Mode: mode, Probes: probes,
		})
		if err != nil {
			return cell, err
		}
	} else {
		names := spec.Sequence
		if spec.Name != "" {
			names = []string{spec.Name}
		}
		attacked = copies[0].Program
		for rep := 0; rep < strength; rep++ {
			for _, name := range names {
				a, _ := attacks.ByName(name)
				attacked, err = attacks.Run(a, attacked, rng)
				if err != nil {
					return cell, err
				}
			}
		}
	}

	res, err := wm.RecognizeCorpus([]*vm.Program{attacked}, []*wm.Key{c.key}, wm.CorpusOpts{
		Workers: 1, Ctx: c.opts.Ctx,
		StepLimit: gradeStepLimit,
	})
	if err != nil {
		return cell, err
	}
	rec := res.Recognitions[0][0]
	if gerr := res.Errors[0][0]; gerr != nil && rec == nil {
		return cell, gerr
	}
	if rec == nil {
		return cell, errors.New("tournament: grade produced no recognition")
	}
	cell.Confidence = rec.Confidence
	size := m.Fleets[fi].Size
	for i := 0; i < size; i++ {
		if rec.Matches(c.ws[i]) {
			cell.Matched = i
			break
		}
	}
	switch {
	case cell.Matched == 0:
		cell.Outcome = OutcomeSurvive
	case rec.Survivors > 0:
		cell.Outcome = OutcomeDegrade
	default:
		cell.Outcome = OutcomeFail
	}
	return cell, nil
}

// gradeStepLimit bounds each attacked copy's trace. Attacks multiply code
// (flattening dispatch, composed sequences at strength 2+ double sizes
// repeatedly), so the budget is generous; a runaway attacked program
// surfaces as a typed resource error and fails the cell, not the run.
const gradeStepLimit = 200_000_000

// settle journals one completed cell and publishes it in memory —
// write-ahead, so a crash after settle never re-runs the cell.
func (c *Campaign) settle(idx int, cell CellResult) error {
	if err := c.journal.Append(cellRecord{Type: "cell", Idx: idx, Cell: cell}); err != nil {
		return err
	}
	c.mu.Lock()
	if c.cells[idx] == nil {
		c.settled++
	}
	c.cells[idx] = &cell
	n := c.settled
	c.mu.Unlock()

	c.opts.Obs.Counter("tournament.cells." + string(cell.Outcome)).Add(1)
	c.opts.Trace.Event("cell.done", map[string]int64{
		"idx": int64(idx), "fleet": int64(cell.Fleet), "attack": int64(cell.Attack),
		"strength": int64(cell.Strength), "matched": int64(cell.Matched),
		"attempts": int64(cell.Attempts),
	}, map[string]string{"outcome": string(cell.Outcome)})
	if c.opts.OnCell != nil {
		c.opts.OnCell(n, cell)
	}
	return nil
}

// Run grades every cell the journal does not already hold, with per-cell
// typed-error retries, then returns the campaign's matrix. The returned
// error is non-nil only when the run could not finish — cancellation or
// journal I/O failure; cell-level failures are outcomes, not errors.
func (c *Campaign) Run() (*Matrix, error) {
	total := c.opts.Obs.Start("tournament.run")
	defer total.Finish()
	if err := c.prepare(); err != nil {
		return nil, err
	}
	digest, err := c.manifest.Digest()
	if err != nil {
		return nil, err
	}

	var pending []int
	c.mu.Lock()
	for i, cell := range c.cells {
		if cell == nil {
			pending = append(pending, i)
		}
	}
	c.mu.Unlock()

	ctx := c.opts.Ctx
	ctxErr := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	// A journal failure halts the run: no worker starts another cell once
	// any settle has failed. The WAL counts the failure before it releases
	// its lock, so a worker whose settle follows it (the WAL reopens
	// itself) stops before taking another cell, even if the failing worker
	// has not yet stored firstErr.
	var firstErr atomic.Value
	failuresBefore := c.journal.Failures()
	stop := func() bool { return ctxErr() != nil || c.journal.Failures() != failuresBefore }
	runOne := func(_, i int) {
		idx := pending[i]
		var cell CellResult
		attempt := func(n int) error {
			var err error
			cell, err = c.runCell(idx)
			cell.Attempts = n
			return err
		}
		onRetry := func(n int, err error) {
			c.opts.Obs.Counter("tournament.retries").Add(1)
			c.opts.Trace.Event("cell.retry", map[string]int64{
				"idx": int64(idx), "attempt": int64(n),
			}, map[string]string{"err": err.Error()})
		}
		_, interrupted, err := c.opts.Retry.Do(ctx, digest, idx, 0, attempt, onRetry)
		if interrupted {
			return // not journaled, re-runs on resume
		}
		if err != nil {
			// Terminal: the cell fails but stays settled — the error is
			// part of the campaign's result, not a reason to halt.
			cell.Outcome = OutcomeFail
			cell.Err = err.Error()
		}
		if err := c.settle(idx, cell); err != nil {
			firstErr.CompareAndSwap(nil, err)
		}
	}

	workers := c.opts.Workers
	if workers <= 0 {
		workers = 1
	}
	par.For(len(pending), workers, stop, runOne)
	if e := firstErr.Load(); e != nil {
		return nil, e.(error)
	}
	if err := ctxErr(); err != nil {
		return nil, fmt.Errorf("tournament: run interrupted: %w", err)
	}

	c.opts.Trace.Event("campaign.done", map[string]int64{
		"cells": int64(len(c.cells)), "reused": int64(c.reused),
	}, map[string]string{"campaign": c.digest})
	total.Set("cells", int64(len(c.cells))).Set("reused", int64(c.reused))
	return c.Matrix(), nil
}

// Execute is the one-call form: open (or resume) the campaign in dir,
// run every pending cell, write matrix.json atomically, close.
func Execute(dir string, m *Manifest, opts Options) (*Matrix, error) {
	c, err := Open(dir, m, opts)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	matrix, err := c.Run()
	if err != nil {
		return nil, err
	}
	fs := opts.FS
	if fs == nil {
		fs = iofault.OS
	}
	if err := WriteMatrixFileFS(fs, MatrixPath(dir), matrix); err != nil {
		return nil, err
	}
	return matrix, nil
}
