package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"pathmark/internal/bitstring"
	"pathmark/internal/feistel"
	"pathmark/internal/jobs"
	"pathmark/internal/obs"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
	"pathmark/internal/workloads"
)

// diffSeed replays a run of TestDifferentialRecognition: 0 draws the seed
// from the clock; set it to a failing run's logged seed to repeat that
// run's chunkings, worker counts and abort points.
const diffSeed = 0

// diffGolden is the hex sha256 of the canonical encoding of every
// reference recognition, in corpus order. The AVX2 and the generic
// (-tags purego) scan kernels must both reproduce it.
const diffGolden = "e2183e65ff35d39bb8e24b4e73c2bd9ee5a6c9f9b5d9d1fbff51042c4312f4a4"

// diffGroup is one host's slice of the corpus: two fingerprinted copies
// and the unmarked host (last), against the fleet key and two decoys
// (another cipher, and another at 128 bits). The keys share one secret
// input, so a suspect's one trace is what every key of the group scans.
type diffGroup struct {
	name         string
	suspects     []*vm.Program
	ws           []*big.Int          // ws[s] is copy s's watermark
	keys         []*wm.Key           // keys[0] is the fleet key
	events       [][]vm.Event        // per suspect, from the event tracer
	bits         []string            // per suspect, decoded from events
	ref          [][]*wm.Recognition // RecognizeWithOpts{Workers: 1}
	metrics      [][][]byte          // the reference's deterministic JSONL
	jobResult    []byte              // jobs.Execute's result.json
	streamResult [][]byte            // per suspect, a stream job's result.json
}

// TestDifferentialRecognition is the recognizer's (§3.3) correctness
// harness: for every (suspect, key) pair of one generated corpus, every
// recognition path — batch at any worker count, the event tracer, the
// stream recognizer fed bits or `pathmark watch` event text,
// RecognizeCorpus, journaled jobs cancelled and resumed, stream jobs
// closed and reopened, and the daemon across a restart — returns exactly
// the serial batch reference. A logged seed draws every chunking, worker
// count and abort point.
func TestDifferentialRecognition(t *testing.T) {
	seed := int64(diffSeed)
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	groups := diffCorpus(t)
	sum := sha256.New()
	for _, g := range groups {
		g.reference(t, sum)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != diffGolden {
		t.Errorf("reference recognitions hash to %s, golden %s", got, diffGolden)
	}
	negativeLeg(t, groups)
	for i, g := range groups {
		for s := range g.suspects {
			for k := range g.keys {
				for _, p := range pairPaths {
					reg := obs.NewRegistry()
					rec, err := p.run(g, s, k, rng, reg)
					g.same(t, p.name, s, k, rec, err)
					if !p.metrics {
						continue
					}
					if jsonl := registryJSONL(t, reg); !bytes.Equal(jsonl, g.metrics[s][k]) {
						t.Errorf("%s leg: %s suspect %d key %d: metrics differ:\n%s\nvs\n%s",
							p.name, g.name, s, k, jsonl, g.metrics[s][k])
					}
				}
			}
		}
		for _, workers := range []int{1, 4} {
			res, err := wm.RecognizeCorpus(g.suspects, g.keys, wm.CorpusOpts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			g.sameMatrix(t, fmt.Sprintf("corpus workers=%d", workers), res)
		}
		jobLegs(t, g, rng, i%2 == 0)
		streamJobLeg(t, g, rng)
	}
	serveLeg(t, groups, rng)
}

func diffCorpus(t *testing.T) []*diffGroup {
	hosts := []struct {
		name  string
		prog  *vm.Program
		input []int64
	}{
		{"rand-3x12", workloads.RandomProgram(workloads.RandProgOptions{Methods: 3, Statements: 12, Seed: 1}), []int64{3, 4}},
		{"rand-6x25", workloads.RandomProgram(workloads.RandProgOptions{Seed: 2}), []int64{3, 4}},
		{"rand-10x40", workloads.RandomProgram(workloads.RandProgOptions{Methods: 10, Statements: 40, Seed: 3}), []int64{3, 4}},
		{"gcd", workloads.GCD(), nil},
		{"caffeinemark", workloads.CaffeineMark(), nil},
		{"minicalc", workloads.MiniCalc(), workloads.CalcFactorial(6)},
		{"jesslike", workloads.JessLike(workloads.JessLikeOptions{Seed: 4, Methods: 12, BlockSize: 60}), nil},
	}
	var groups []*diffGroup
	for i, h := range hosts {
		g := &diffGroup{name: h.name}
		// Ciphers vary per host so the daemon's stream job IDs, which
		// digest the keys, differ between hosts that share an input.
		for _, kc := range []struct {
			hi, lo uint64
			bits   int
		}{{0x6b72616d68746170, 0x504c444932303034, 64}, {99, 7, 64}, {5, 6, 128}} {
			key, err := wm.NewKey(h.input, feistel.KeyFromUint64(kc.hi, kc.lo+uint64(i)), kc.bits)
			if err != nil {
				t.Fatal(err)
			}
			g.keys = append(g.keys, key)
		}
		g.ws = []*big.Int{wm.RandomWatermark(64, uint64(2*i+1)), wm.RandomWatermark(64, uint64(2*i+2))}
		copies, err := wm.EmbedBatch(h.prog, g.ws, g.keys[0], wm.BatchOptions{EmbedOptions: wm.EmbedOptions{Seed: int64(i)}})
		if err != nil {
			t.Fatalf("%s: embed: %v", h.name, err)
		}
		for _, c := range copies {
			g.suspects = append(g.suspects, c.Program)
		}
		g.suspects = append(g.suspects, h.prog)
		for _, p := range g.suspects {
			tr, _, err := vm.CollectWith(p, vm.RunOptions{Input: h.input, SnapshotLimit: 1})
			if err != nil {
				t.Fatalf("%s: event trace: %v", h.name, err)
			}
			g.events = append(g.events, tr.Events)
			g.bits = append(g.bits, tr.DecodeBits().String())
		}
		groups = append(groups, g)
	}
	return groups
}

// reference runs RecognizeWithOpts{Workers: 1} on every pair, hashing
// the canonical encodings into sum.
func (g *diffGroup) reference(t *testing.T, sum io.Writer) {
	g.ref = make([][]*wm.Recognition, len(g.suspects))
	g.metrics = make([][][]byte, len(g.suspects))
	for s, p := range g.suspects {
		for k, key := range g.keys {
			reg := obs.NewRegistry()
			rec, err := wm.RecognizeWithOpts(p, key, wm.RecognizeOpts{Workers: 1, Obs: reg})
			if err != nil {
				t.Fatalf("%s suspect %d key %d: reference: %v", g.name, s, k, err)
			}
			g.ref[s] = append(g.ref[s], rec)
			g.metrics[s] = append(g.metrics[s], registryJSONL(t, reg))
			fmt.Fprintf(sum, "%s %d %d %s\n", g.name, s, k, canonRecognition(rec))
		}
	}
}

func registryJSONL(t *testing.T, reg *obs.Registry) []byte {
	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf, obs.JSONLOptions{Deterministic: true}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// canonRecognition is the harness's one comparator and the golden's
// encoding: every exported field, big.Ints in decimal, floats in
// shortest round-trip form, stage errors by message.
func canonRecognition(r *wm.Recognition) string {
	if r == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%+v", *r)
}

func (g *diffGroup) same(t *testing.T, leg string, s, k int, got *wm.Recognition, err error) {
	t.Helper()
	if a, b := canonRecognition(got), canonRecognition(g.ref[s][k]); err != nil || a != b {
		t.Errorf("%s leg: %s suspect %d key %d differs from the reference (err %v):\n got %s\nwant %s",
			leg, g.name, s, k, err, a, b)
	}
}

func (g *diffGroup) sameMatrix(t *testing.T, leg string, res *wm.CorpusResult) {
	t.Helper()
	for s := range g.suspects {
		for k := range g.keys {
			g.same(t, leg, s, k, res.Recognitions[s][k], res.Errors[s][k])
		}
	}
}

// negativeLeg: no unmarked host yields a watermark under any key, and no
// copy matches its watermark under a decoy. A copy run on a wrong input
// is not asserted: an input-insensitive host matches under any input.
func negativeLeg(t *testing.T, groups []*diffGroup) {
	unmarked, windows, valid, decoys, decoyValid := 0, 0, 0, 0, 0
	for _, g := range groups {
		for k, rec := range g.ref[len(g.suspects)-1] {
			unmarked++
			windows += rec.Windows
			valid += rec.ValidStatements
			if rec.Watermark != nil {
				t.Errorf("negative leg: unmarked %s yields watermark %v under key %d", g.name, rec.Watermark, k)
			}
		}
		for s, w := range g.ws {
			if !g.ref[s][0].Matches(w) {
				t.Errorf("negative leg: %s copy %d does not recognize under the fleet key", g.name, s)
			}
			for k := 1; k < len(g.keys); k++ {
				decoys++
				decoyValid += g.ref[s][k].ValidStatements
				if g.ref[s][k].Matches(w) {
					t.Errorf("negative leg: %s copy %d matches under decoy key %d", g.name, s, k)
				}
			}
		}
	}
	t.Logf("negative leg: %d unmarked recognitions over %d windows, %d valid statements; %d copies under decoys, %d valid statements",
		unmarked, windows, valid, decoys, decoyValid)
}

// pairPaths are the recognition paths run on each pair. Those marked
// metrics must also log a registry byte-identical to the reference's.
var pairPaths = []struct {
	name    string
	metrics bool
	run     func(g *diffGroup, s, k int, rng *rand.Rand, reg *obs.Registry) (*wm.Recognition, error)
}{
	{"workers=2", true, recognizeAt(2)},
	{"workers=8", true, recognizeAt(8)},
	{"workers=0", true, recognizeAt(0)},
	{"event-tracer", false, func(g *diffGroup, s, k int, rng *rand.Rand, _ *obs.Registry) (*wm.Recognition, error) {
		b, err := bitstring.FromString(g.bits[s])
		if err != nil {
			return nil, err
		}
		return wm.RecognizeBits(b, g.keys[k], wm.RecognizeOpts{Workers: diffWorkers(rng)})
	}},
	{"stream-bits", false, func(g *diffGroup, s, k int, rng *rand.Rand, _ *obs.Registry) (*wm.Recognition, error) {
		r := wm.NewStreamRecognizer(g.keys[k], wm.StreamOpts{Workers: diffWorkers(rng)})
		return streamFlush(r, len(g.bits[s]), rng, func(lo, hi int) error {
			b, err := bitstring.FromString(g.bits[s][lo:hi])
			if err != nil {
				return err
			}
			return r.AppendBits(b)
		})
	}},
	{"watch-events", false, func(g *diffGroup, s, k int, rng *rand.Rand, _ *obs.Registry) (*wm.Recognition, error) {
		var text bytes.Buffer
		writeTraceEvents(&text, g.events[s])
		r := wm.NewStreamRecognizer(g.keys[k], wm.StreamOpts{Workers: diffWorkers(rng)})
		feed, err := newStreamFeeder("events", r)
		if err != nil {
			return nil, err
		}
		return streamFlush(r, text.Len(), rng, func(lo, hi int) error {
			if err := feed.consume(text.Bytes()[lo:hi]); err != nil || hi < text.Len() {
				return err
			}
			return feed.finish()
		})
	}},
}

func recognizeAt(workers int) func(*diffGroup, int, int, *rand.Rand, *obs.Registry) (*wm.Recognition, error) {
	return func(g *diffGroup, s, k int, _ *rand.Rand, reg *obs.Registry) (*wm.Recognition, error) {
		return wm.RecognizeWithOpts(g.suspects[s], g.keys[k], wm.RecognizeOpts{Workers: workers, Obs: reg})
	}
}

// streamFlush feeds [0, n) to r in random chunks, then flushes.
func streamFlush(r *wm.StreamRecognizer, n int, rng *rand.Rand, feed func(lo, hi int) error) (*wm.Recognition, error) {
	for _, c := range diffChunks(rng, n) {
		if err := feed(c[0], c[1]); err != nil {
			return nil, err
		}
	}
	return r.Flush()
}

// diffWorkers draws a scan fan-out: GOMAXPROCS, serial or a small pool.
func diffWorkers(rng *rand.Rand) int { return []int{0, 1, 2, 3, 4, 8}[rng.Intn(6)] }

// diffChunks cuts [0, n) into chunks whose sizes are drawn
// log-uniformly from 1 to n: single units, the whole trace and every
// scale between turn up, in a few dozen chunks at most.
func diffChunks(rng *rand.Rand, n int) [][2]int {
	var cuts [][2]int
	for lo := 0; lo < n; {
		size := int(math.Exp(rng.Float64() * math.Log(float64(n)+1)))
		hi := min(lo+max(size, 1), n)
		cuts = append(cuts, [2]int{lo, hi})
		lo = hi
	}
	return cuts
}

func (g *diffGroup) jobSpec(workers int) jobs.Spec {
	return jobs.Spec{Suspects: g.suspects, Keys: g.keys, Opts: jobs.Options{Workers: workers, NoSync: true}}
}

// jobLegs runs the group as a journaled job, then as one cancelled after
// a random number of journaled grades (with a torn journal tail, if
// torn) and resumed at another worker count. The resumed job publishes
// the same result.json, runs each grade of the matrix exactly once and
// traces each suspect it still grades once: the group's keys share one
// input and its suspects fit one breaker wave.
func jobLegs(t *testing.T, g *diffGroup, rng *rand.Rand, torn bool) {
	dir := t.TempDir()
	res, err := jobs.Execute(context.Background(), dir, g.jobSpec(diffWorkers(rng)))
	if err != nil {
		t.Fatalf("job leg: %s: %v", g.name, err)
	}
	g.sameMatrix(t, "job", res.Corpus)
	if res.Failed != 0 || res.Reused != 0 {
		t.Errorf("job leg: %s: clean run failed %d and reused %d grades", g.name, res.Failed, res.Reused)
	}
	if g.jobResult, err = os.ReadFile(jobs.ResultPath(dir)); err != nil {
		t.Fatal(err)
	}

	dir = t.TempDir()
	total := len(g.suspects) * len(g.keys)
	abortAt, w1 := 1+rng.Intn(total-1), 1+rng.Intn(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := g.jobSpec(w1)
	var mu sync.Mutex
	settled := make([]int, len(g.suspects)) // grades journaled per suspect
	spec.Opts.OnEvent = func(ev jobs.GradeEvent) {
		mu.Lock()
		settled[ev.S]++
		mu.Unlock()
		if ev.Completed >= abortAt {
			cancel()
		}
	}
	j, err := jobs.Open(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("job-resume leg: %s: cancelled run returned %v", g.name, err)
	}
	j.Close()
	if torn {
		appendTorn(t, jobs.JournalPath(dir), `{"type":"grade","s":0,"k":`)
	}
	reg := obs.NewRegistry()
	spec = g.jobSpec(1 + (w1+rng.Intn(3))%4)
	spec.Opts.Obs = reg
	if res, err = jobs.Execute(context.Background(), dir, spec); err != nil {
		t.Fatalf("job-resume leg: %s: %v", g.name, err)
	}
	if got, err := os.ReadFile(jobs.ResultPath(dir)); err != nil || !bytes.Equal(got, g.jobResult) {
		t.Errorf("job-resume leg: %s (abort at %d): result.json differs from the uninterrupted job's (err %v)",
			g.name, abortAt, err)
	}
	reused, ran := reg.Counter("jobs.resume.reused").Value(), reg.Counter("jobs.grades.run").Value()
	pending := map[string]bool{} // program digests of the suspects left to grade
	for s, p := range g.suspects {
		if settled[s] < len(g.keys) {
			d := wm.ProgramDigest(p)
			pending[string(d[:])] = true
		}
	}
	if reused < int64(abortAt) || reused+ran != int64(total) || int64(res.Reused) != reused ||
		res.Corpus.Traces != len(pending) {
		t.Errorf("job-resume leg: %s (abort at %d): reused %d (result %d) + ran %d with %d traces, want %d grades and %d traces",
			g.name, abortAt, reused, res.Reused, ran, res.Corpus.Traces, total, len(pending))
	}
}

// appendTorn appends a partial record, as a crash mid-append leaves one.
func appendTorn(t *testing.T, path, partial string) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(partial); err != nil {
		t.Fatal(err)
	}
}

// streamSpec is suspect s's stream job. The probe cadence varies with s
// to keep the daemon's stream job IDs, which digest the keys and options
// but not the trace, distinct within a group; Flush does not depend on it.
func (g *diffGroup) streamSpec(s int) jobs.StreamSpec {
	return jobs.StreamSpec{Keys: g.keys, Opts: jobs.StreamOptions{CheckEvery: 512 * (s + 1), NoSync: true}}
}

// runStream opens (or reopens) suspect s's stream job in dir, uploads
// its bits from the committed offset up to to in random chunks and, once
// the whole trace is in, finishes the job.
func runStream(t *testing.T, g *diffGroup, s int, dir string, to int, rng *rand.Rand) *jobs.StreamResult {
	spec := g.streamSpec(s)
	spec.Opts.Workers = diffWorkers(rng)
	sj, err := jobs.OpenStream(dir, spec)
	if err != nil {
		t.Fatalf("stream-job leg: %s suspect %d: %v", g.name, s, err)
	}
	defer sj.Close()
	from := int(sj.Committed())
	for _, c := range diffChunks(rng, to-from) {
		if _, err := sj.Feed(int64(from+c[0]), g.bits[s][from+c[0]:from+c[1]]); err != nil {
			t.Fatalf("stream-job leg: %s suspect %d: feed: %v", g.name, s, err)
		}
	}
	if to < len(g.bits[s]) {
		return nil
	}
	res, err := sj.Finish()
	if err != nil {
		t.Fatalf("stream-job leg: %s suspect %d: %v", g.name, s, err)
	}
	return res
}

// streamJobLeg: a stream job's per-key recognitions equal the reference,
// and one closed at a random offset and reopened (for the first suspect
// with a torn journal tail) publishes the same result.json.
func streamJobLeg(t *testing.T, g *diffGroup, rng *rand.Rand) {
	g.streamResult = make([][]byte, len(g.suspects))
	for s, bits := range g.bits {
		dir := t.TempDir()
		res := runStream(t, g, s, dir, len(bits), rng)
		for k := range g.keys {
			g.same(t, "stream-job", s, k, res.Recognitions[k], res.Errors[k])
		}
		var err error
		if g.streamResult[s], err = os.ReadFile(jobs.ResultPath(dir)); err != nil || res.Bits != int64(len(bits)) {
			t.Fatalf("stream-job leg: %s suspect %d: %d bits of %d, err %v", g.name, s, res.Bits, len(bits), err)
		}

		dir = t.TempDir()
		cut := rng.Intn(len(bits) + 1)
		runStream(t, g, s, dir, cut, rng)
		if s == 0 {
			appendTorn(t, jobs.StreamPath(dir), `{"type":"chunk","off":`)
		}
		runStream(t, g, s, dir, len(bits), rng)
		if got, err := os.ReadFile(jobs.ResultPath(dir)); err != nil || !bytes.Equal(got, g.streamResult[s]) {
			t.Errorf("stream-job leg: %s suspect %d (reopened at %d): result.json differs (err %v)", g.name, s, cut, err)
		}
	}
}

// serveLeg drives the daemon across one restart: each group's corpus job
// serves the result.json jobs.Execute wrote, and each suspect's trace,
// uploaded in chunks partly before and partly after the restart, serves
// the stream job's result.json, whose recognitions the stream-job leg
// checked against the reference.
func serveLeg(t *testing.T, groups []*diffGroup, rng *rand.Rand) {
	cfg := serveConfig{root: t.TempDir(), maxActive: 2, maxJobs: 64, reqTimeout: time.Minute, noSync: true}
	srv, ts := startServer(t, cfg)
	var corpusIDs []string
	var streamIDs [][]string
	for _, g := range groups {
		var keyDocs, texts []string
		for _, key := range g.keys {
			var doc bytes.Buffer
			if err := wm.SaveKey(&doc, key); err != nil {
				t.Fatal(err)
			}
			keyDocs = append(keyDocs, doc.String())
		}
		for _, p := range g.suspects {
			texts = append(texts, vm.Dump(p))
		}
		st, _ := submitJob(t, ts, mustJSON(t, serveRequest{Suspects: texts, Keys: keyDocs,
			Options: serveRequestOptions{Workers: diffWorkers(rng)}}))
		corpusIDs = append(corpusIDs, st.ID)
		var ids []string
		for s, bits := range g.bits {
			st, _ := submitJob(t, ts, mustJSON(t, serveRequest{Keys: keyDocs, Stream: true,
				Options: serveRequestOptions{Workers: diffWorkers(rng), CheckEvery: g.streamSpec(s).Opts.CheckEvery}}))
			uploadBits(t, ts, st.ID, bits, 0, diffChunks(rng, rng.Intn(len(bits)+1)))
			ids = append(ids, st.ID)
		}
		streamIDs = append(streamIDs, ids)
	}
	srv.drain()
	ts.Close()

	srv, ts = startServer(t, cfg)
	defer ts.Close()
	defer srv.drain()
	for i, g := range groups {
		for s, id := range streamIDs[i] {
			bits, from := g.bits[s], int(getStatus(t, ts, id).Committed)
			uploadBits(t, ts, id, bits, from, diffChunks(rng, len(bits)-from))
			if fin, code := postChunk(t, ts, id, streamChunkRequest{Offset: int64(len(bits)), Final: true}); fin.Status != "done" {
				t.Fatalf("serve leg: %s suspect %d: final chunk: status %d, %+v", g.name, s, code, fin)
			}
			if got, _ := getBody(t, ts.URL+"/jobs/"+id+"/result"); !bytes.Equal(got, g.streamResult[s]) {
				t.Errorf("serve leg: %s suspect %d: served stream result differs from the stream job's", g.name, s)
			}
		}
		if st := pollJob(t, ts, corpusIDs[i]); st.Status != "done" {
			t.Fatalf("serve leg: %s: corpus job ended %q", g.name, st.Status)
		}
		if got, _ := getBody(t, ts.URL+"/jobs/"+corpusIDs[i]+"/result"); !bytes.Equal(got, g.jobResult) {
			t.Errorf("serve leg: %s: served result differs from jobs.Execute's result.json", g.name)
		}
	}
}
