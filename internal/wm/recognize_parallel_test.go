package wm

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"pathmark/internal/obs"
	"pathmark/internal/workloads"
)

// deterministicMetrics runs fn against a fresh registry and returns the
// deterministic JSONL stream (wall times and timing histograms omitted)
// — the metric content that must be byte-identical at every worker count.
func deterministicMetrics(t *testing.T, fn func(reg *obs.Registry) error) []byte {
	t.Helper()
	reg := obs.NewRegistry()
	if err := fn(reg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf, obs.JSONLOptions{Deterministic: true}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

// TestRecognizeWorkerEquivalence is the determinism property of the
// parallel scan: for random host programs, Recognize returns an identical
// Recognition struct (all counters, watermark, modulus) at every worker
// count, and the auto path agrees with the serial one.
func TestRecognizeWorkerEquivalence(t *testing.T) {
	key := testKey(t, nil, 64)
	for seed := int64(0); seed < 5; seed++ {
		p := workloads.RandomProgram(workloads.RandProgOptions{Seed: seed + 4100})
		w := RandomWatermark(64, uint64(seed)+31)
		marked, _, err := Embed(p, w, key, EmbedOptions{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: embed: %v", seed, err)
		}
		var serial *Recognition
		serialMetrics := deterministicMetrics(t, func(reg *obs.Registry) error {
			var err error
			serial, err = RecognizeWithOpts(marked, key, RecognizeOpts{Workers: 1, Obs: reg})
			return err
		})
		if !serial.Matches(w) {
			t.Errorf("seed %d: serial recognition failed to recover the watermark", seed)
		}
		for _, workers := range []int{2, 8, 0} {
			workers := workers
			var par *Recognition
			parMetrics := deterministicMetrics(t, func(reg *obs.Registry) error {
				var err error
				par, err = RecognizeWithOpts(marked, key, RecognizeOpts{Workers: workers, Obs: reg})
				return err
			})
			if err := sameRecognition(serial, par); err != nil {
				t.Errorf("seed %d: workers=%d diverges from serial: %v", seed, workers, err)
			}
			// The merged per-worker scan counters — and every other metric
			// — must be byte-identical to the serial path's.
			if !bytes.Equal(serialMetrics, parMetrics) {
				t.Errorf("seed %d: workers=%d metrics diverge from serial:\n%s\nvs\n%s",
					seed, workers, serialMetrics, parMetrics)
			}
		}
	}
}

// TestRecognizeWorkerEquivalenceUnmarked covers the degenerate paths
// (no valid statements, tiny traces) at several worker counts.
func TestRecognizeWorkerEquivalenceUnmarked(t *testing.T) {
	key := testKey(t, nil, 64)
	p := workloads.RandomProgram(workloads.RandProgOptions{Seed: 4999})
	serial, err := RecognizeWithOpts(p, key, RecognizeOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := RecognizeWithOpts(p, key, RecognizeOpts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRecognition(serial, par); err != nil {
			t.Errorf("unmarked program: workers=%d diverges: %v", workers, err)
		}
	}
}

// TestScanOnlyMatchesRecognizeBits pins ScanOnly to RecognizeBits' scan
// configuration: with Workers left at 0 it fans out over GOMAXPROCS
// workers (the scan hook sees more than one worker id) and its counters
// equal the Recognition's. The hook holds chunk 0 until another worker
// has taken a chunk, so a serial scan shows up as a single worker id
// after the timeout instead of passing by luck of scheduling.
func TestScanOnlyMatchesRecognizeBits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	bits, key, _ := markedTraceBits(t, 0)
	if n := bits.NumWindows64(); n < 2*scanChunkWindows {
		t.Fatalf("trace has %d raw windows, want at least two chunks (test premise)", n)
	}
	var mu sync.Mutex
	seen := map[int]bool{}
	other := make(chan struct{})
	var once sync.Once
	record := func(worker, chunk int) {
		mu.Lock()
		seen[worker] = true
		n := len(seen)
		mu.Unlock()
		if n > 1 {
			once.Do(func() { close(other) })
		}
		if chunk == 0 {
			select {
			case <-other:
			case <-time.After(5 * time.Second):
			}
		}
	}
	st, err := ScanOnly(bits, key, RecognizeOpts{ScanHook: record})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 2 {
		t.Errorf("ScanOnly with Workers=0 ran %d scan worker(s), want GOMAXPROCS fan-out", len(seen))
	}
	rec, err := RecognizeBits(bits, key, RecognizeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := ScanStats{Windows: rec.Windows, Decrypted: rec.Decrypted,
		Valid: rec.ValidStatements, Rejected: rec.RejectedByLayer}
	if st != want {
		t.Errorf("ScanOnly stats %+v, want RecognizeBits counters %+v", st, want)
	}
}
