package faults

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"pathmark/internal/bitstring"
	"pathmark/internal/feistel"
	"pathmark/internal/obs"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
	"pathmark/internal/workloads"
)

// Outcome is the tri-state result of one injection, ordered from best to
// worst so catalog expectations can be phrased as upper bounds.
type Outcome int

const (
	// Survive: the watermark was fully recovered despite the fault.
	Survive Outcome = iota
	// Degrade: the pipeline completed and returned a (possibly partial)
	// Recognition with a confidence score, but not the full watermark.
	Degrade
	// Fail: the pipeline returned a typed error and no Recognition.
	Fail
)

func (o Outcome) String() string {
	switch o {
	case Survive:
		return "survive"
	case Degrade:
		return "degrade"
	default:
		return "fail"
	}
}

// Report is the result of assessing one fault.
type Report struct {
	Fault   string
	Kind    Kind
	Outcome Outcome
	// Err is the typed error the pipeline surfaced, if any. Survive and
	// Degrade outcomes may carry one too (e.g. a recovered worker panic
	// alongside a successful recognition).
	Err error
	// Rec is the Recognition the pipeline returned, nil on Fail.
	Rec *wm.Recognition
	// Confidence mirrors Rec.Confidence (0 on Fail) for callers that
	// only need the score.
	Confidence float64
	// Recovered reports that the harness itself caught a panic escaping
	// the pipeline — a contract violation the catalog test fails on.
	Recovered bool
	// Elapsed is the wall time of the injection.
	Elapsed time.Duration
}

// Host is the known-good embedding a fault is injected into: a marked
// program, its key (in memory and serialized), the embedded watermark,
// and the clean decoded trace.
type Host struct {
	Prog      *vm.Program
	Key       *wm.Key
	KeyJSON   []byte
	Watermark *big.Int
	Bits      *bitstring.Bits
}

// NewHost embeds a watermark into the given program and pre-computes the
// clean trace, so assessments corrupt copies of a verified-good baseline.
func NewHost(prog *vm.Program, input []int64, wBits int, seed int64) (*Host, error) {
	key, err := wm.NewKey(input, feistel.KeyFromUint64(uint64(seed), ^uint64(seed)), wBits)
	if err != nil {
		return nil, err
	}
	w := wm.RandomWatermark(wBits, uint64(seed)+1)
	pieces := 3 * len(key.Params.Primes())
	marked, _, err := wm.Embed(prog, w, key, wm.EmbedOptions{Pieces: pieces, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("faults: embedding host watermark: %w", err)
	}
	rec, err := wm.Recognize(marked, key)
	if err != nil || !rec.Matches(w) {
		return nil, fmt.Errorf("faults: host baseline does not recognize (err=%v)", err)
	}
	bits, _, err := vm.CollectBits(marked, vm.RunOptions{Input: key.Input})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := wm.SaveKey(&buf, key); err != nil {
		return nil, err
	}
	return &Host{
		Prog: marked, Key: key, KeyJSON: buf.Bytes(),
		Watermark: w, Bits: bits,
	}, nil
}

// DefaultHost builds the standard assessment host: the MiniCalc
// interpreter workload summing two numbers, carrying a 64-bit watermark.
func DefaultHost(seed int64) (*Host, error) {
	return NewHost(workloads.MiniCalc(), workloads.CalcSum(10, 20), 64, seed)
}

// Options tunes an assessment.
type Options struct {
	// Seed drives the fault's randomness; the same (host, fault, seed)
	// triple always reproduces the same injection.
	Seed int64
	// Timeout bounds the whole injection (default 30s). It backs the
	// no-hang guarantee: the pipeline's context plumbing cuts every stage
	// off once the deadline passes.
	Timeout time.Duration
	// Workers overrides the scan worker count (0 = pipeline default).
	Workers int
	// Obs, when non-nil, receives inject.<fault>.<outcome> counters and
	// an inject.<fault> span per assessment.
	Obs *obs.Registry
}

// Assess injects one fault into the host and classifies the outcome.
// The harness itself never panics: a panic escaping the pipeline — a
// violation of the graceful-degradation contract — is recovered, marked
// Recovered, and classified Fail.
func Assess(h *Host, f Fault, opts Options) (rep Report) {
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	span := opts.Obs.Start("inject." + f.Name)
	start := time.Now()
	rep = Report{Fault: f.Name, Kind: f.Kind}
	defer func() {
		if r := recover(); r != nil {
			rep.Recovered = true
			rep.Outcome = Fail
			rep.Err = fmt.Errorf("faults: panic escaped the pipeline: %v", r)
		}
		rep.Elapsed = time.Since(start)
		if rep.Rec != nil {
			rep.Confidence = rep.Rec.Confidence
		}
		span.Set("outcome", int64(rep.Outcome)).
			Set("confidence_bp", int64(rep.Confidence*10_000)).Finish()
		opts.Obs.Counter("inject." + f.Name + "." + rep.Outcome.String()).Add(1)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
	defer cancel()
	ropts := wm.RecognizeOpts{Ctx: ctx, Workers: opts.Workers, Obs: opts.Obs}

	key := h.Key
	if f.Keyfile != nil {
		damaged := f.Keyfile(rng, h.KeyJSON)
		loaded, err := wm.LoadKey(bytes.NewReader(damaged))
		if err != nil {
			rep.Outcome, rep.Err = Fail, err
			return rep
		}
		key = loaded
	}
	if f.Opts != nil {
		f.Opts(rng, &ropts)
	}

	var rec *wm.Recognition
	var err error
	if f.Bits != nil {
		rec, err = wm.RecognizeBits(f.Bits(rng, h.Bits), key, ropts)
	} else {
		rec, err = wm.RecognizeWithOpts(h.Prog, key, ropts)
	}
	rep.Rec, rep.Err = rec, err
	switch {
	case rec.Matches(h.Watermark):
		rep.Outcome = Survive
	case rec != nil:
		rep.Outcome = Degrade
	default:
		rep.Outcome = Fail
	}
	return rep
}

// AssessAll runs the whole catalog against the host in order.
func AssessAll(h *Host, opts Options) []Report {
	catalog := Catalog()
	reports := make([]Report, 0, len(catalog))
	for _, f := range catalog {
		reports = append(reports, Assess(h, f, opts))
	}
	return reports
}
