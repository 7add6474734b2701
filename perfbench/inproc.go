package main

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"pathmark/internal/bitstring"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
)

// streamChunkBits is the serve-stream upload chunk, and the chunk the
// settle_fraction of the other workloads' marked inputs is computed at.
const streamChunkBits = 2048

// traceBits re-traces a program on its key's input the way recognition
// does and returns the decoded bit-string and the step count.
func traceBits(p *vm.Program, key *wm.Key) (*bitstring.Bits, int64, error) {
	tr, res, err := vm.CollectWith(p, vm.RunOptions{Input: key.Input, SnapshotLimit: 1})
	if err != nil {
		return nil, 0, fmt.Errorf("trace: %w", err)
	}
	return tr.DecodeBits(), res.Steps, nil
}

// chunks splits a bit-string's text into upload chunks.
func chunks(bits string) []string {
	var out []string
	for off := 0; off < len(bits); off += streamChunkBits {
		out = append(out, bits[off:min(off+streamChunkBits, len(bits))])
	}
	return out
}

// streamSettle feeds a marked program's bits to a stream recognizer in
// upload chunks and returns the share of bits fed when the verdict
// settled (1 if it settled only at the end) and the flushed verdict.
func streamSettle(bits *bitstring.Bits, key *wm.Key) (float64, *wm.Recognition, error) {
	r := wm.NewStreamRecognizer(key, wm.StreamOpts{})
	text := bits.String()
	fed, settledAt := 0, -1
	for _, c := range chunks(text) {
		b, err := bitstring.FromString(c)
		if err != nil {
			return 0, nil, err
		}
		if err := r.AppendBits(b); err != nil {
			return 0, nil, err
		}
		fed += len(c)
		if settledAt < 0 && r.Settled() {
			settledAt = fed
		}
	}
	rec, err := r.Flush()
	if err != nil {
		return 0, nil, err
	}
	if settledAt < 0 {
		settledAt = len(text)
	}
	return float64(settledAt) / float64(len(text)), rec, nil
}

func pct(marked, host int64) float64 {
	return 100 * float64(marked-host) / float64(host)
}

// inputProperties fills the embedding-cost and settle metrics from a
// workload's marked items (untimed): code growth over Jess-like copies
// (the paper's Fig. 8b host), step overhead over CaffeineMark-like
// copies (Fig. 8a), and the settle point of every marked copy's bits.
func inputProperties(o *outcome, items []item) error {
	hostSteps := map[*vm.Program]int64{}
	for _, it := range items {
		if it.want == nil {
			continue
		}
		bits, steps, err := traceBits(it.prog, it.key)
		if err != nil {
			return err
		}
		switch it.kind {
		case hostJess:
			o.growth = append(o.growth, pct(int64(it.prog.CodeSize()), int64(it.host.CodeSize())))
		case hostCaffeine:
			hs, ok := hostSteps[it.host]
			if !ok {
				res, err := vm.Run(it.host, vm.RunOptions{Input: it.key.Input})
				if err != nil {
					return err
				}
				hs = res.Steps
				hostSteps[it.host] = hs
			}
			o.overhead = append(o.overhead, pct(steps, hs))
		}
		frac, rec, err := streamSettle(bits, it.key)
		if err != nil {
			return err
		}
		if !verdictOK(it.want, rec.Watermark, rec.FullCoverage) {
			o.problem("stream recognition of a marked %s copy missed its watermark", it.kind)
		}
		o.settle = append(o.settle, frac)
	}
	return nil
}

// rssWindow is the window of in-process peak-RSS samples.
const rssWindow = time.Second

// rssSampler gives an in-process workload's peak_rss_mb: the median over
// one-second windows of the harness's peak RSS in the window. A single
// whole-run peak of a Go process depends on where garbage collections
// happened to fall and swung by 2x between runs; the median window peak
// does not.
type rssSampler struct {
	o       *outcome
	last    time.Time
	samples []float64
}

// newRSSSampler collects the set-up's garbage, returns it to the OS and
// starts the first window.
func newRSSSampler(o *outcome) (*rssSampler, error) {
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS("self"); err != nil {
		return nil, err
	}
	return &rssSampler{o: o, last: time.Now()}, nil
}

// afterOp closes the window once it is a second old.
func (s *rssSampler) afterOp(int) {
	if time.Since(s.last) >= rssWindow {
		s.sample()
	}
}

// finish closes the last window, however short, and sets peak_rss_mb.
func (s *rssSampler) finish() {
	s.sample()
	s.o.rssMB = median(s.samples)
}

func (s *rssSampler) sample() {
	mb, err := peakRSSMB("self")
	if err == nil {
		err = resetPeakRSS("self")
	}
	if err != nil {
		s.o.problem("sample peak RSS: %v", err)
		return
	}
	s.samples = append(s.samples, mb)
	s.last = time.Now()
}

// setupBudget is how long repeatSetup keeps repeating a cheap set-up
// beyond cfg.setups, up to maxSetups: the median of a few tens of
// milliseconds-long set-ups is only steady over many of them.
const (
	setupBudget = time.Second
	maxSetups   = 20
)

// repeatSetup runs a workload's set-up cfg.setups times, and more while
// they have taken less than setupBudget, records each one's time, and
// checks that every repetition generated the same inputs. It keeps the
// last repetition's state; teardown releases the others.
func repeatSetup[S any](cfg config, o *outcome, setup func() (S, error), fp func(S) string, teardown func(S)) (S, error) {
	var st S
	var first string
	start := time.Now()
	for i := 0; i < max(cfg.setups, 1) || (time.Since(start) < setupBudget && i < maxSetups); i++ {
		if i > 0 {
			teardown(st)
		}
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return st, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		st = s
		f := fp(s)
		if i == 0 {
			first = f
		} else if f != first {
			o.problem("set-up %d generated different inputs from set-up 0 for the same seed", i)
		}
	}
	return st, nil
}

func itemsFingerprint(items []item) string {
	var f fingerprint
	for _, it := range items {
		f.addItem(it)
	}
	return f.String()
}

// runRecognize: an op is wm.RecognizeWithOpts(p, key, RecognizeOpts{}),
// the call `pathmark recognize` makes, over a seeded mix of marked and
// unmarked programs. Traced ops call the public steps in order instead.
func runRecognize(cfg config) (*outcome, error) {
	o := &outcome{}
	items, err := repeatSetup(cfg, o, func() ([]item, error) { return recognizeInputs(cfg.seed) },
		itemsFingerprint, func([]item) {})
	if err != nil {
		return nil, err
	}
	// Warm-up: one untimed pass over the inputs.
	for _, it := range items {
		if rec, err := wm.RecognizeWithOpts(it.prog, it.key, wm.RecognizeOpts{}); err != nil || !verdictOK(it.want, rec.Watermark, rec.FullCoverage) {
			o.problem("warm-up recognition of a %s program: wrong verdict (err %v)", it.kind, err)
		}
	}
	rss, err := newRSSSampler(o)
	if err != nil {
		return nil, err
	}
	phases(cfg, o, 1, 1<<30, rss.afterOp, func(i int, tr *tracer) opResult {
		it := items[i%len(items)]
		var rec *wm.Recognition
		var err error
		t0 := time.Now()
		if tr == nil {
			rec, err = wm.RecognizeWithOpts(it.prog, it.key, wm.RecognizeOpts{})
		} else {
			rec, err = recognizeTraced(tr, i, it)
		}
		lat := time.Since(t0)
		if err != nil {
			return opResult{lat: lat, status: opFailed, err: err}
		}
		if !verdictOK(it.want, rec.Watermark, rec.FullCoverage) {
			return opResult{lat: lat, status: opWrong, err: fmt.Errorf("%s program: wrong verdict", it.kind)}
		}
		return opResult{lat: lat, status: opOK}
	})
	rss.finish()
	if err := inputProperties(o, items); err != nil {
		return nil, err
	}
	return o, nil
}

// recognizeTraced is one recognize op as its public steps: CollectWith,
// DecodeBits, ScanOnly, RecognizeBits. RecognizeBits scans again; that
// second scan is attributed as wm.rescan so wm.vote's self time is the
// vote stage alone.
func recognizeTraced(tr *tracer, op int, it item) (*wm.Recognition, error) {
	defer tr.opDone()
	root := tr.begin("op", -1, op)
	defer tr.end(root)
	var (
		trace *vm.Trace
		res   *vm.Result
		err   error
	)
	tr.timed("vm.collect", root, op, func() {
		trace, res, err = vm.CollectWith(it.prog, vm.RunOptions{Input: it.key.Input, SnapshotLimit: 1})
	})
	if err != nil {
		return nil, err
	}
	tr.count("vm.steps", float64(res.Steps))
	var bits *bitstring.Bits
	tr.timed("vm.decode", root, op, func() { bits = trace.DecodeBits() })
	tr.count("vm.trace_bits", float64(bits.Len()))
	var st wm.ScanStats
	scan := tr.timed("wm.scan", root, op, func() { st, err = wm.ScanOnly(bits, it.key, wm.RecognizeOpts{}) })
	if err != nil {
		return nil, err
	}
	countScan(tr, st)
	var rec *wm.Recognition
	vote := tr.begin("wm.vote", root, op)
	rec, err = wm.RecognizeBits(bits, it.key, wm.RecognizeOpts{})
	tr.end(vote)
	tr.attribute("wm.rescan", vote, scan)
	if rec != nil {
		tr.count("wm.vote_unique", float64(rec.UniqueStatements))
	}
	return rec, err
}

func countScan(tr *tracer, st wm.ScanStats) {
	tr.count("wm.scan_windows", float64(st.Windows))
	tr.count("wm.scan_decrypted", float64(st.Decrypted))
	tr.count("wm.scan_valid", float64(st.Valid))
	tr.count("wm.scan_reject.popcount", float64(st.Rejected.Popcount))
	tr.count("wm.scan_reject.transitions", float64(st.Rejected.Transitions))
	tr.count("wm.scan_reject.phase", float64(st.Rejected.Phase))
	tr.count("wm.scan_reject.framing", float64(st.Rejected.Framing))
}

// embedCycle is the host order of embed-fleet ops and copiesPer the
// number of customer watermarks each op embeds into that host. Copy
// counts are set so ops on either host cost about the same, which keeps
// the latency distribution one cluster.
var (
	embedCycle = []string{hostJess, hostCaffeine}
	copiesPer  = map[string]int{hostJess: 4, hostCaffeine: 8}
)

// embedOpts are EmbedBatch's defaults (one piece per prime pair, copy i
// placed with seed i) but for Workers: 1. With the two copy workers of
// the default, an op's time followed how much of the second vCPU the
// host lent the container, and its median swung by a third between
// runs; the embedding itself is the same at any worker count.
var embedOpts = wm.BatchOptions{Workers: 1}

type embedHost struct {
	kind string
	prog *vm.Program
	key  *wm.Key
	res  *vm.Result // the host's run on the key input
}

type embedSetup struct {
	hosts map[string]*embedHost
}

func embedInputs(seed int64) (*embedSetup, error) {
	rng := rand.New(rand.NewSource(seed))
	st := &embedSetup{hosts: map[string]*embedHost{}}
	for _, kind := range []string{hostJess, hostCaffeine} {
		h := &embedHost{kind: kind, prog: makeHost(kind, rng.Int63()), key: randomKey(rng)}
		res, err := vm.Run(h.prog, vm.RunOptions{Input: h.key.Input})
		if err != nil {
			return nil, fmt.Errorf("run %s host: %w", kind, err)
		}
		h.res = res
		st.hosts[kind] = h
	}
	return st, nil
}

// embedOpInputs derives op i's customer watermarks and the copy whose
// recognition is checked. The sample cycles through the copy slots, so
// every slot is checked equally often.
func embedOpInputs(seed int64, i int, n int) (ws []*big.Int, sample int) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	ws = make([]*big.Int, n)
	for j := range ws {
		ws[j] = wm.RandomWatermark(wBits, rng.Uint64())
	}
	return ws, (i / len(embedCycle)) % n
}

func embedFingerprint(seed int64, st *embedSetup) string {
	var f fingerprint
	for _, kind := range []string{hostJess, hostCaffeine} {
		h := st.hosts[kind]
		d := wm.ProgramDigest(h.prog)
		f.add([]byte(kind), d[:], keyDoc(h.key))
	}
	for i := 0; i < len(embedCycle); i++ {
		ws, _ := embedOpInputs(seed, i, copiesPer[embedCycle[i]])
		for _, w := range ws {
			f.add(w.Bytes())
		}
	}
	return f.String()
}

// embed-fleet is not a BENCHMARK.json workload: on the 2-vCPU reference
// host its latency spread 0.2-0.3 of the median between runs, twice
// what recognize and serve-grade showed in the same periods, too close
// to the largest bound the benchmark may set. It stays runnable by name.

// runEmbedFleet: an op is wm.EmbedBatch of N customer watermarks into
// one host with embedOpts, alternating Jess-like and
// CaffeineMark-like hosts. Outside the timed op every copy must pass
// vm.Verify and behave as its host on the key input, and one copy per op
// must recognize to its own watermark.
func runEmbedFleet(cfg config) (*outcome, error) {
	o := &outcome{}
	st, err := repeatSetup(cfg, o, func() (*embedSetup, error) { return embedInputs(cfg.seed) },
		func(s *embedSetup) string { return embedFingerprint(cfg.seed, s) }, func(*embedSetup) {})
	if err != nil {
		return nil, err
	}
	// Warm-up: one untimed op per host.
	for i := range embedCycle {
		h := st.hosts[embedCycle[i]]
		ws, _ := embedOpInputs(cfg.seed, -1-i, copiesPer[h.kind])
		if _, err := wm.EmbedBatch(h.prog, ws, h.key, embedOpts); err != nil {
			return nil, fmt.Errorf("warm-up embed: %w", err)
		}
	}
	rss, err := newRSSSampler(o)
	if err != nil {
		return nil, err
	}
	phases(cfg, o, 1, 1<<30, rss.afterOp, func(i int, tr *tracer) opResult {
		h := st.hosts[embedCycle[i%len(embedCycle)]]
		ws, sample := embedOpInputs(cfg.seed, i, copiesPer[h.kind])
		var copies []wm.Fingerprint
		var err error
		root := tr.begin("op", -1, i)
		embed := tr.begin("wm.embed", root, i)
		t0 := time.Now()
		copies, err = wm.EmbedBatch(h.prog, ws, h.key, embedOpts)
		lat := time.Since(t0)
		tr.end(embed)
		tr.end(root)
		if err != nil {
			return opResult{lat: lat, status: opFailed, err: err}
		}
		if tr != nil {
			// The host trace EmbedBatch takes once per batch, timed apart.
			t := time.Now()
			if _, _, err := vm.CollectWith(h.prog, vm.RunOptions{Input: h.key.Input, SnapshotLimit: 2}); err != nil {
				return opResult{lat: lat, status: opFailed, err: err}
			}
			tr.attribute("vm.collect_embed", embed, time.Since(t))
		}
		err = checkCopies(o, tr, i, h, ws, sample, copies)
		// The checks allocate more than the op (whole traces); collect
		// their garbage here, or the next op pays for it in GC assists.
		runtime.GC()
		if err != nil {
			return opResult{lat: lat, status: opWrong, err: err}
		}
		tr.opDone()
		return opResult{lat: lat, status: opOK}
	})
	rss.finish()
	return o, nil
}

// checkCopies is embed-fleet's oracle, run outside the timed op. It also
// records the copies' code growth, step overhead and settle point.
func checkCopies(o *outcome, tr *tracer, op int, h *embedHost, ws []*big.Int, sample int, copies []wm.Fingerprint) error {
	if len(copies) != len(ws) {
		return fmt.Errorf("embed returned %d copies for %d watermarks", len(copies), len(ws))
	}
	check := tr.begin("check", -1, op)
	defer tr.end(check)
	for j, c := range copies {
		if c.Watermark.Cmp(ws[j]) != 0 {
			return fmt.Errorf("copy %d carries the wrong customer watermark", j)
		}
		var err error
		tr.timed("vm.verify", check, op, func() { err = vm.Verify(c.Program) })
		if err != nil {
			return fmt.Errorf("copy %d fails vm.Verify: %w", j, err)
		}
		res, err := vm.Run(c.Program, vm.RunOptions{Input: h.key.Input})
		if err != nil {
			return fmt.Errorf("copy %d: run: %w", j, err)
		}
		if !vm.SameBehavior(h.res, res) {
			return fmt.Errorf("copy %d behaves differently from its host", j)
		}
		switch h.kind {
		case hostJess:
			o.growth = append(o.growth, pct(int64(c.Program.CodeSize()), int64(h.prog.CodeSize())))
		case hostCaffeine:
			o.overhead = append(o.overhead, pct(res.Steps, h.res.Steps))
		}
	}
	bits, _, err := traceBits(copies[sample].Program, h.key)
	if err != nil {
		return err
	}
	frac, rec, err := streamSettle(bits, h.key)
	if err != nil {
		return err
	}
	if !verdictOK(ws[sample], rec.Watermark, rec.FullCoverage) {
		return errors.New("sample copy does not recognize to its own watermark")
	}
	o.settle = append(o.settle, frac)
	return nil
}
