package wm

import (
	"flag"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"pathmark/internal/bitstring"
	"pathmark/internal/feistel"
	"pathmark/internal/vm"
	"pathmark/internal/workloads"
)

var scanGate = flag.Bool("scan-gate", false, "time the production scan stage against the reference kernel (CI hook)")

// scanGateRecord is the median reference_ns/production_ns that
// TestScanStageSpeed reads for one decryptor, and the fraction of it
// below which the gate fails.
type scanGateRecord struct {
	ratio, floor float64
}

var (
	// avx2ScanGate is the AVX2 kernel's record: 20 runs of 61 pairs on a
	// shared 2-vCPU Intel Xeon host (AVX2) read medians of 10.00–10.89,
	// 10.44 in the median. The gate fails below 9.45.
	avx2ScanGate = scanGateRecord{ratio: 10.5, floor: 0.9}
	// genericScanGate is the portable kernel's record (-tags purego, or
	// a CPU without AVX2): 20 runs on the same host read medians of
	// 1.42–1.77, 1.66 in the median. That spread is about three times the
	// AVX2 one, so the gate fails only below 0.8 of it (1.33).
	genericScanGate = scanGateRecord{ratio: 1.66, floor: 0.8}
)

// scanGatePairs is the number of interleaved reference/production
// timing pairs whose median ratio TestScanStageSpeed gates on.
const scanGatePairs = 61

// scanGateReps is the number of production scans in one timed sample.
const scanGateReps = 10

// scanGateSuspect is the scan stage's fixed workload: a 60-method
// Jess-like host carrying a full 128-piece embedding under the CLI's demo
// cipher, traced to its §3.1 bit-string. Its 51 717 windows are the
// EXPERIMENTS.md "batched scan kernel" table.
func scanGateSuspect(t testing.TB) (*bitstring.Bits, *Key) {
	t.Helper()
	host := workloads.JessLike(workloads.JessLikeOptions{Seed: 8, Methods: 60, BlockSize: 150})
	key, err := NewKey(nil, feistel.KeyFromUint64(0x6b72616d68746170, 0x504c444932303034), 128)
	if err != nil {
		t.Fatal(err)
	}
	marked, _, err := Embed(host, RandomWatermark(128, 2000), key, EmbedOptions{Seed: 1, Pieces: 128})
	if err != nil {
		t.Fatal(err)
	}
	bits, _, err := vm.CollectBits(marked, vm.RunOptions{Input: key.Input})
	if err != nil {
		t.Fatal(err)
	}
	return bits, key
}

// TestScanStageWork pins the scan stage's work on the gate's suspect
// exactly: windows visited, windows each filter layer rejected, windows
// decrypted and statements decoded. Any change to the filters, the word
// screen, the framing check or the stride handling moves these counts;
// the reference kernel must agree with them too.
func TestScanStageWork(t *testing.T) {
	bits, key := scanGateSuspect(t)
	want := ScanStats{
		Windows:   51717,
		Decrypted: 21513,
		Valid:     128,
		Rejected:  LayerRejects{Popcount: 21120, Transitions: 4196, Phase: 4888, Framing: 21385},
	}
	for _, workers := range []int{1, 0} {
		got, err := ScanOnly(bits, key, RecognizeOpts{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("workers=%d: scan stats\n got %+v\nwant %+v", workers, got, want)
		}
	}
	ref := referenceScan(bits, key, nil)
	got := ScanStats{Windows: ref.windows, Decrypted: ref.decrypted, Valid: ref.valid, Rejected: ref.rej}
	if got != want {
		t.Errorf("reference kernel: scan stats\n got %+v\nwant %+v", got, want)
	}
}

// TestScanStageSpeed is the scan kernel's regression gate, run only with
// -scan-gate: it times the production serial scan (ScanOnly, Workers 1)
// and the scalar reference kernel on the same bits in interleaved pairs,
// and fails if the median reference/production ratio falls below the
// floor of the record of the decryptor that ran (avx2ScanGate or
// genericScanGate, by feistel.HasAVX2). The ratio cancels machine speed;
// it does not cancel the kernel choice, which is why each decryptor has
// its own record.
func TestScanStageSpeed(t *testing.T) {
	if !*scanGate {
		t.Skip("no -scan-gate given")
	}
	bits, key := scanGateSuspect(t)
	rec := genericScanGate
	if feistel.HasAVX2() {
		rec = avx2ScanGate
	}
	t.Logf("feistel.HasAVX2() = %v", feistel.HasAVX2())
	// One production sample is scanGateReps serial scans, so both legs of
	// a pair run for about the same wall time against the AVX2 kernel
	// (the reference kernel is ~10x slower) and host drift within a pair
	// hits both alike. The collector stays off while timing: the
	// reference kernel allocates more, and a collection landing in one
	// leg would skew that pair.
	production := func() time.Duration {
		t0 := time.Now()
		for r := 0; r < scanGateReps; r++ {
			if _, err := ScanOnly(bits, key, RecognizeOpts{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(t0) / scanGateReps
	}
	reference := func() time.Duration {
		t0 := time.Now()
		referenceScan(bits, key, nil)
		return time.Since(t0)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	production()
	reference()
	ratios := make([]float64, scanGatePairs)
	for i := range ratios {
		runtime.GC()
		var ref, prod time.Duration
		if i%2 == 0 {
			ref, prod = reference(), production()
		} else {
			prod, ref = production(), reference()
		}
		ratios[i] = float64(ref) / float64(prod)
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	t.Logf("reference/production: median %.2f (min %.2f, max %.2f) over %d pairs; recorded %.2f",
		median, ratios[0], ratios[len(ratios)-1], len(ratios), rec.ratio)
	if median < rec.floor*rec.ratio {
		t.Fatalf("scan stage regressed: median reference/production ratio %.2f is below %.1f x recorded %.2f",
			median, rec.floor, rec.ratio)
	}
}
