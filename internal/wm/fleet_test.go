package wm

import (
	"fmt"
	"math/big"
	mathbits "math/bits"
	"testing"

	"pathmark/internal/feistel"
	"pathmark/internal/obs"
	"pathmark/internal/vm"
	"pathmark/internal/workloads"
)

// fleetWatermarks builds n distinct fingerprints for the key.
func fleetWatermarks(n, bits int) []*big.Int {
	ws := make([]*big.Int, n)
	for i := range ws {
		ws[i] = RandomWatermark(bits, uint64(1000+i))
	}
	return ws
}

// TestEmbedBatchMatchesEmbed is the batch-equivalence property: copy i of
// EmbedBatch is byte-identical (canonical disassembly) to a standalone
// Embed with seed base+i, at serial and parallel worker counts.
func TestEmbedBatchMatchesEmbed(t *testing.T) {
	p := workloads.RandomProgram(workloads.RandProgOptions{Seed: 7100})
	key := testKey(t, nil, 64)
	ws := fleetWatermarks(6, 64)
	const baseSeed = 33

	want := make([]string, len(ws))
	for i, w := range ws {
		prog, _, err := Embed(p, w, key, EmbedOptions{Seed: baseSeed + int64(i)})
		if err != nil {
			t.Fatalf("embed %d: %v", i, err)
		}
		want[i] = vm.Dump(prog)
	}
	for _, workers := range []int{1, 4, 0} {
		copies, err := EmbedBatch(p, ws, key, BatchOptions{
			EmbedOptions: EmbedOptions{Seed: baseSeed}, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: EmbedBatch: %v", workers, err)
		}
		if len(copies) != len(ws) {
			t.Fatalf("workers=%d: got %d copies, want %d", workers, len(copies), len(ws))
		}
		for i, c := range copies {
			if c.Index != i || c.Watermark.Cmp(ws[i]) != 0 {
				t.Errorf("workers=%d: copy %d mislabeled", workers, i)
			}
			if got := vm.Dump(c.Program); got != want[i] {
				t.Errorf("workers=%d: copy %d differs from standalone Embed(seed=%d)",
					workers, i, baseSeed+int64(i))
			}
			if rec, err := Recognize(c.Program, key); err != nil || !rec.Matches(ws[i]) {
				t.Errorf("workers=%d: copy %d does not recognize back (err=%v)", workers, i, err)
			}
		}
	}
}

// TestEmbedBatchAmortizesAnalysis proves the batch runs the tracing phase
// and site analysis exactly once, structurally rather than by wall-clock:
// the registry records one embed.trace and one embed.sites span for the
// whole batch.
func TestEmbedBatchAmortizesAnalysis(t *testing.T) {
	p := workloads.RandomProgram(workloads.RandProgOptions{Seed: 7200})
	key := testKey(t, nil, 64)
	reg := obs.NewRegistry()
	if _, err := EmbedBatch(p, fleetWatermarks(8, 64), key, BatchOptions{
		EmbedOptions: EmbedOptions{Seed: 5, Obs: reg}, Workers: 4,
	}); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range reg.Snapshot().Spans {
		counts[s.Name]++
	}
	if counts["embed.trace"] != 1 || counts["embed.sites"] != 1 {
		t.Errorf("batch traced/analyzed more than once: %v", counts)
	}
	if counts["embed.batch"] != 1 {
		t.Errorf("missing embed.batch span: %v", counts)
	}
}

func TestEmbedBatchValidation(t *testing.T) {
	p := workloads.RandomProgram(workloads.RandProgOptions{Seed: 7300})
	key := testKey(t, nil, 64)
	if _, err := EmbedBatch(p, nil, key, BatchOptions{}); err == nil {
		t.Error("empty batch accepted")
	}
	tooBig := new(big.Int).Lsh(big.NewInt(1), 4096)
	ws := []*big.Int{RandomWatermark(64, 1), tooBig}
	if _, err := EmbedBatch(p, ws, key, BatchOptions{}); err == nil {
		t.Error("out-of-range watermark accepted")
	}
}

// corpusFixture builds a small fleet scenario: three suspects (two
// fingerprinted copies and the unmarked host) and three candidate keys —
// the fleet's real key, a decoy with a different cipher, and a decoy with
// a different secret input (sharing the real cipher, so its decrypt table
// is shared too).
func corpusFixture(t *testing.T) (suspects []*vm.Program, keys []*Key, ws []*big.Int) {
	t.Helper()
	host := workloads.RandomProgram(workloads.RandProgOptions{Seed: 7400})
	real := testKey(t, nil, 64)
	ws = fleetWatermarks(2, 64)
	copies, err := EmbedBatch(host, ws, real, BatchOptions{
		EmbedOptions: EmbedOptions{Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	decoyCipher, err := NewKey(nil, feistel.KeyFromUint64(1, 2), 64)
	if err != nil {
		t.Fatal(err)
	}
	decoyInput, err := NewKey([]int64{5, 6}, testCipher, 64)
	if err != nil {
		t.Fatal(err)
	}
	suspects = []*vm.Program{copies[0].Program, copies[1].Program, host}
	keys = []*Key{real, decoyCipher, decoyInput}
	return suspects, keys, ws
}

// sameRecognition compares every field of two Recognition results,
// including the big.Int fields (nil-safe).
func sameRecognition(a, b *Recognition) error {
	if (a.Watermark == nil) != (b.Watermark == nil) {
		return fmt.Errorf("Watermark nil-ness differs: %v vs %v", a.Watermark, b.Watermark)
	}
	if a.Watermark != nil && a.Watermark.Cmp(b.Watermark) != 0 {
		return fmt.Errorf("Watermark %v vs %v", a.Watermark, b.Watermark)
	}
	if (a.Modulus == nil) != (b.Modulus == nil) {
		return fmt.Errorf("Modulus nil-ness differs: %v vs %v", a.Modulus, b.Modulus)
	}
	if a.Modulus != nil && a.Modulus.Cmp(b.Modulus) != 0 {
		return fmt.Errorf("Modulus %v vs %v", a.Modulus, b.Modulus)
	}
	if a.FullCoverage != b.FullCoverage {
		return fmt.Errorf("FullCoverage %v vs %v", a.FullCoverage, b.FullCoverage)
	}
	type counters struct{ w, v, u, vo, s, t int }
	ca := counters{a.Windows, a.ValidStatements, a.UniqueStatements, a.VotedOut, a.Survivors, a.TraceBits}
	cb := counters{b.Windows, b.ValidStatements, b.UniqueStatements, b.VotedOut, b.Survivors, b.TraceBits}
	if ca != cb {
		return fmt.Errorf("counters %+v vs %+v", ca, cb)
	}
	return nil
}

// TestRecognizeCorpusIdentifiesFleet: at serial and parallel corpus
// worker counts, each fingerprinted copy resolves to its own watermark,
// and a suspect's traces are shared by the keys with its secret input.
func TestRecognizeCorpusIdentifiesFleet(t *testing.T) {
	suspects, keys, ws := corpusFixture(t)
	for _, workers := range []int{1, 4, 0} {
		res, err := RecognizeCorpus(suspects, keys, CorpusOpts{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Fleet identification: each fingerprinted copy resolves to its own
		// watermark under the real key and to nothing under the decoys; the
		// unmarked host matches nobody.
		expect := []*big.Int{ws[0], nil, nil}
		for s, wantW := range expect {
			rec := res.Recognitions[s][0]
			if s == 1 {
				wantW = ws[1]
			}
			if wantW != nil && !rec.Matches(wantW) {
				t.Errorf("workers=%d: suspect %d not identified by the real key", workers, s)
			}
			if s == 2 && (rec.Matches(ws[0]) || rec.Matches(ws[1])) {
				t.Errorf("workers=%d: unmarked host falsely identified", workers)
			}
			// The wrong-cipher decoy never matches. The wrong-input key
			// DOES match here: the host ignores its input, so the trace —
			// and with the shared cipher, everything downstream — is
			// identical. Input secrecy only bites on input-sensitive hosts.
			if res.Recognitions[s][1].Matches(ws[0]) || res.Recognitions[s][1].Matches(ws[1]) {
				t.Errorf("workers=%d: suspect %d matched the wrong-cipher decoy", workers, s)
			}
			if s < 2 && !res.Recognitions[s][2].Matches(ws[s]) {
				t.Errorf("workers=%d: input-insensitive host should match under the shared cipher", workers)
			}
		}
		// Trace amortization: 3 suspects × 2 distinct secret inputs = 6
		// traces for 9 pairs.
		if res.TraceStats.Misses != 6 {
			t.Errorf("workers=%d: ran %d traces, want 6", workers, res.TraceStats.Misses)
		}
		if res.TraceStats.Hits != 3 {
			t.Errorf("workers=%d: trace hits %d, want 3", workers, res.TraceStats.Hits)
		}
	}
}

// TestRecognizeCorpusCappedCaches is the bounded-memory regression test:
// a trace cache squeezed far below the working set (1 entry) must churn —
// evictions observable via cache.Stats — while every cell of the
// CorpusResult stays bit-identical to the unbounded run. Eviction may
// only cost recomputation, never correctness.
func TestRecognizeCorpusCappedCaches(t *testing.T) {
	suspects, keys, _ := corpusFixture(t)
	base, err := RecognizeCorpus(suspects, keys, CorpusOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		fc := NewFleetCaches(1, 0)
		res, err := RecognizeCorpus(suspects, keys, CorpusOpts{Workers: workers, Caches: fc})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for s := range suspects {
			for k := range keys {
				if err := sameRecognition(base.Recognitions[s][k], res.Recognitions[s][k]); err != nil {
					t.Errorf("workers=%d: capped pair (%d,%d) diverges: %v", workers, s, k, err)
				}
			}
		}
		// The fixture's 9 grades look up 6 distinct (suspect, input)
		// traces in a single-entry cache. How many evict depends on the
		// schedule at workers > 1: a lookup that finds the one entry
		// still computing bypasses the cache instead of evicting it. The
		// accounting does not: every lookup is a hit, miss or bypass,
		// every distinct trace is computed, and with one resident entry
		// every miss but the first evicts. Serially no entry is ever
		// mid-compute, so nothing bypasses and evictions must show up.
		ts := fc.TraceStats()
		if lookups := int64(len(suspects) * len(keys)); ts.Lookups() != lookups ||
			ts.Misses+ts.Bypassed < 6 || ts.Evictions != ts.Misses-1 {
			t.Errorf("workers=%d: single-entry trace cache accounting %+v; want %d lookups, >= 6 computed, evictions = misses-1",
				workers, ts, lookups)
		}
		if workers == 1 && (ts.Bypassed != 0 || ts.Evictions == 0) {
			t.Errorf("workers=1: serial single-entry trace cache bypassed or recorded no evictions: %+v", ts)
		}
		if n := fc.traces.Len(); n > 1 {
			t.Errorf("workers=%d: capped trace cache holds %d entries", workers, n)
		}
	}
}

// TestPrefilterBandEdges is the regression test for the popcount
// prefilter: pieces whose ciphertexts sit exactly at the band edges are
// kept (the band is inclusive), tightening the band past an edge rejects
// them, and the rejection is visible in PrefilterRejected instead of
// silent. A band excluding every piece defeats recognition entirely.
// Each case runs a popcount-only stack (transitions and phase wide open)
// so the popcount band alone decides.
func TestPrefilterBandEdges(t *testing.T) {
	p := workloads.RandomProgram(workloads.RandProgOptions{Seed: 7600})
	key := testKey(t, nil, 64)
	w := RandomWatermark(64, 55)
	marked, report, err := Embed(p, w, key, EmbedOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	minPc, maxPc := 64, 0
	for _, piece := range report.Pieces {
		pc := mathbits.OnesCount64(piece.Encrypted)
		if pc < minPc {
			minPc = pc
		}
		if pc > maxPc {
			maxPc = pc
		}
	}
	if def := DefaultFilters.Popcount; minPc < def.Lo || maxPc > def.Hi {
		t.Fatalf("fixture pieces (popcounts %d..%d) escape the default band", minPc, maxPc)
	}

	popcountOnly := func(lo, hi int) *FilterStack {
		f := NoFilters
		f.Popcount = Band{Lo: lo, Hi: hi}
		return &f
	}
	recognize := func(f *FilterStack, reg *obs.Registry) *Recognition {
		t.Helper()
		rec, err := RecognizeWithOpts(marked, key, RecognizeOpts{Workers: 1, Filters: f, Obs: reg})
		if err != nil {
			t.Fatalf("filters %+v: %v", *f, err)
		}
		return rec
	}

	// Exact band: both edge pieces survive (edges are inclusive).
	exact := recognize(popcountOnly(minPc, maxPc), nil)
	if !exact.Matches(w) {
		t.Errorf("band [%d,%d] hugging the pieces lost the watermark", minPc, maxPc)
	}
	// No filter: nothing rejected, still matches.
	open := recognize(&NoFilters, nil)
	if !open.Matches(w) || open.PrefilterRejected != 0 {
		t.Errorf("NoFilters: matches=%v rejected=%d", open.Matches(w), open.PrefilterRejected)
	}
	// Tightening past either edge rejects strictly more windows — the
	// edge pieces' occurrences among them — and the rejections are
	// counted, not silent.
	if minPc > 0 {
		tight := recognize(popcountOnly(minPc+1, maxPc), nil)
		if tight.PrefilterRejected <= exact.PrefilterRejected {
			t.Errorf("raising Lo past the lightest piece rejected nothing extra (%d vs %d)",
				tight.PrefilterRejected, exact.PrefilterRejected)
		}
	}
	if maxPc < 64 && maxPc > minPc {
		tight := recognize(popcountOnly(minPc, maxPc-1), nil)
		if tight.PrefilterRejected <= exact.PrefilterRejected {
			t.Errorf("lowering Hi past the heaviest piece rejected nothing extra (%d vs %d)",
				tight.PrefilterRejected, exact.PrefilterRejected)
		}
	}
	// A band excluding every piece defeats recognition and accounts for
	// the loss in the counter.
	none := recognize(popcountOnly(maxPc+1, 64), nil)
	if none.Matches(w) {
		t.Error("band excluding every piece still matched")
	}
	if none.PrefilterRejected == 0 {
		t.Error("band excluding every piece reported zero rejections")
	}

	// The counter reaches the obs registry under scan.prefilter_rejected.
	reg := obs.NewRegistry()
	recognize(popcountOnly(maxPc+1, 64), reg)
	found := false
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "scan.prefilter_rejected" && c.Value == int64(none.PrefilterRejected) {
			found = true
		}
	}
	if !found {
		t.Errorf("scan.prefilter_rejected counter missing or wrong (want %d)", none.PrefilterRejected)
	}
}

// BenchmarkEmbedBatch quantifies the batch amortization the acceptance
// criteria demand: embedding 16 fingerprints in one batch versus 16
// standalone Embed calls (per-copy time reported for both). Two piece
// budgets are measured: the minimum prime-cover (r-1 pieces — the lean
// fingerprinting config, where the shared trace/analysis dominates and
// the batch must come in well under 4× a single Embed) and the default
// full pair redundancy (where per-copy codegen is the legitimate bulk of
// the work and amortization buys proportionally less).
func BenchmarkEmbedBatch(b *testing.B) {
	prog := workloads.JessLike(workloads.JessLikeOptions{Seed: 8, Methods: 60, BlockSize: 150})
	key, err := NewKey(nil, testCipher, 128)
	if err != nil {
		b.Fatal(err)
	}
	ws := fleetWatermarks(16, 128)
	minPieces := len(key.Params.Primes()) - 1
	for _, cfg := range []struct {
		name   string
		pieces int
	}{
		{fmt.Sprintf("pieces=%d", minPieces), minPieces},
		{"pieces=default", 0},
	} {
		opts := EmbedOptions{Seed: 11, Policy: GenLoopOnly, Pieces: cfg.pieces}
		b.Run(cfg.name+"/single-embed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Embed(prog, ws[0], key, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/batch16/workers=%d", cfg.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := EmbedBatch(prog, ws, key, BatchOptions{
						EmbedOptions: opts, Workers: workers,
					}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(b.Elapsed().Seconds()/float64(b.N*len(ws))*1e3, "ms/copy")
			})
		}
	}
}

// BenchmarkRecognizeCorpus compares cold, warm, and cache-free corpus
// recognition on a small fleet.
func BenchmarkRecognizeCorpus(b *testing.B) {
	host := workloads.JessLike(workloads.JessLikeOptions{Seed: 8, Methods: 40, BlockSize: 120})
	key, err := NewKey(nil, testCipher, 128)
	if err != nil {
		b.Fatal(err)
	}
	ws := fleetWatermarks(4, 128)
	copies, err := EmbedBatch(host, ws, key, BatchOptions{
		EmbedOptions: EmbedOptions{Seed: 11, Policy: GenLoopOnly},
	})
	if err != nil {
		b.Fatal(err)
	}
	suspects := make([]*vm.Program, len(copies))
	for i, c := range copies {
		suspects[i] = c.Program
	}
	decoy, err := NewKey(nil, feistel.KeyFromUint64(3, 4), 128)
	if err != nil {
		b.Fatal(err)
	}
	keys := []*Key{key, decoy}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RecognizeCorpus(suspects, keys, CorpusOpts{Workers: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		fc := NewFleetCaches(0, 0)
		if _, err := RecognizeCorpus(suspects, keys, CorpusOpts{Workers: 4, Caches: fc}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RecognizeCorpus(suspects, keys, CorpusOpts{Workers: 4, Caches: fc}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
