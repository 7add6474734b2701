package wm

import (
	"math/rand"
	"reflect"
	"testing"

	"pathmark/internal/bitstring"
	"pathmark/internal/feistel"
	"pathmark/internal/vm"
	"pathmark/internal/workloads"
)

// equivTraces builds the bit-strings the kernel-equivalence tests scan:
// a genuinely watermarked trace (real structure, real pieces), a
// pseudorandom string (worst case for the prefilters), a heavily
// structured string (best case), and short edge-length strings.
func equivTraces(t testing.TB, key *Key) map[string]*bitstring.Bits {
	t.Helper()
	prog := workloads.JessLike(workloads.JessLikeOptions{Seed: 3, Methods: 20, BlockSize: 80})
	w := RandomWatermark(64, 77)
	marked, _, err := Embed(prog, w, key, EmbedOptions{Pieces: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := vm.Collect(marked, key.Input, 1)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(41))
	randomBits := func(n int) *bitstring.Bits {
		words := make([]uint64, (n+63)/64)
		for i := range words {
			words[i] = rng.Uint64()
		}
		b, err := bitstring.FromWords(words, n)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	structured := bitstring.New(3000)
	for i := 0; i < 3000; i++ {
		structured.Append(i%2 == 0 || i%97 < 11)
	}
	return map[string]*bitstring.Bits{
		"marked-trace": tr.DecodeBits(),
		"random-5000":  randomBits(5000),
		"random-4097":  randomBits(4097),
		"structured":   structured,
		"len-64":       randomBits(64),
		"len-65":       randomBits(65),
		"len-129":      randomBits(129),
		"len-63":       randomBits(63), // below one window: scan is empty
	}
}

// The scalar reference kernel: one window, one filter evaluation, one
// cipher call at a time, with the stride-2 phases read through the
// strided window iterator over the raw string rather than packed. It
// shares the filter statistics and the statement codec with production
// but none of the kernel's restructuring — word screen, incremental
// statistics, AVX2 gather, block decryption, batched framing check —
// which the equivalence tests below pin against it.

// decode runs the post-decrypt layers on one decrypted window: the
// lossless framing check (structural reject, counted per layer) and the
// statement codec.
func (a *scanAccum) decode(env *scanEnv, dec uint64) {
	enc, ok := env.params.Unframe(dec)
	if !ok {
		a.rej.Framing++
		return
	}
	if st, ok := env.params.Decode(enc); ok {
		a.valid++
		a.counts[st]++
	}
}

// scanRange scans windows [lo, hi) of b at the given stride and phase
// (stride 1 = the raw string), filtering, decrypting, and decoding one
// window at a time.
func (a *scanAccum) scanRange(b *bitstring.Bits, stride, phase, lo, hi int, env *scanEnv) {
	f := env.filters
	visit := func(_ int, w uint64) bool {
		a.windows++
		pc, tr, ev := windowStats(w)
		switch {
		case f.Popcount.rejects(pc):
			a.rej.Popcount++
		case f.Transitions.rejects(tr):
			a.rej.Transitions++
		case f.Phase.rejects(ev):
			a.rej.Phase++
		default:
			a.decrypted++
			a.decode(env, env.cipher.Decrypt(w))
		}
		return true
	}
	if stride == 1 {
		b.Windows64Range(lo, hi, visit)
	} else {
		b.StrideWindows64Range(stride, phase, lo, hi, visit)
	}
}

// referenceScan is scanBits with the scalar reference kernel: a serial
// scan of the raw string and both stride-2 phases. filters nil means
// DefaultFilters.
func referenceScan(b *bitstring.Bits, key *Key, filters *FilterStack) *scanAccum {
	f := DefaultFilters
	if filters != nil {
		f = *filters
	}
	env := getScanEnv(key, scanConfig{filters: f})
	defer putScanEnv(env)
	acc := newScanAccum()
	acc.scanRange(b, 1, 0, 0, b.NumWindows64(), env)
	if b.Len() >= 2 {
		for phase := 0; phase < 2; phase++ {
			acc.scanRange(b, 2, phase, 0, b.StrideNumWindows64(2, phase), env)
		}
	}
	return acc
}

// referenceRecognize is RecognizeBits with the scalar reference kernel:
// referenceScan, then the production vote tail.
func referenceRecognize(b *bitstring.Bits, key *Key, filters *FilterStack) *Recognition {
	acc := referenceScan(b, key, filters)
	rec := acc.recognition(b.Len())
	for st, n := range acc.counts {
		acc.counts[st] = min(n, countCap)
	}
	if len(acc.counts) > 0 {
		resolveStatements(nil, rec, acc.counts, key)
	}
	return rec
}

// TestKernelEquivalence is the scan kernel's core property: the
// production scan (packed strides, incremental filters, block
// decryption, sharded workers) produces a Recognition bit-identical to
// the scalar reference kernel, for every trace shape, filter
// configuration (including a popcount-only band and no filtering at
// all), and worker count.
func TestKernelEquivalence(t *testing.T) {
	key, err := NewKey(nil, feistel.KeyFromUint64(21, 34), 64)
	if err != nil {
		t.Fatal(err)
	}
	traces := equivTraces(t, key)

	popcountOnly := NoFilters
	popcountOnly.Popcount = Band{Lo: 24, Hi: 40}
	customStack := FilterStack{
		Popcount:    Band{Lo: 10, Hi: 54},
		Transitions: Band{Lo: 16, Hi: 48},
		Phase:       Band{Lo: 7, Hi: 25},
	}
	filterCases := []struct {
		name    string
		filters *FilterStack
	}{
		{"default", nil},
		{"no-filters", &NoFilters},
		{"legacy-no-prefilter", &NoFilters},
		{"legacy-band", &popcountOnly},
		{"custom-stack", &customStack},
	}

	for name, b := range traces {
		for _, fc := range filterCases {
			want := referenceRecognize(b, key, fc.filters)
			for _, workers := range []int{1, 4, 8} {
				got, err := RecognizeBits(b, key, RecognizeOpts{Workers: workers, Filters: fc.filters})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", name, fc.name, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s workers=%d: Recognition diverged\n got %+v\nwant %+v",
						name, fc.name, workers, got, want)
				}
			}
		}
	}
}

// TestKernelEquivalenceBounded scans a pseudorandom trace long enough to
// span several chunks per source: results must stay bit-identical across
// kernels and worker counts when workers split the chunk grid.
func TestKernelEquivalenceBounded(t *testing.T) {
	key, err := NewKey(nil, feistel.KeyFromUint64(5, 6), 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	words := make([]uint64, 120)
	for i := range words {
		words[i] = rng.Uint64()
	}
	b, err := bitstring.FromWords(words, len(words)*64)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceRecognize(b, key, nil)
	for _, workers := range []int{1, 4} {
		got, err := RecognizeBits(b, key, RecognizeOpts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: Recognition diverged", workers)
		}
	}
}

// TestEmbeddedPiecesSurviveFilters pins the lossless half of the filter
// contract end to end: every piece actually embedded by Embed passes the
// default filter stack and the framing check, so recognition with
// defaults recovers the watermark exactly (ValidStatements > 0, full
// coverage) — on the production path and the scalar reference alike.
func TestEmbeddedPiecesSurviveFilters(t *testing.T) {
	key, err := NewKey(nil, feistel.KeyFromUint64(21, 34), 96)
	if err != nil {
		t.Fatal(err)
	}
	prog := workloads.JessLike(workloads.JessLikeOptions{Seed: 12, Methods: 24, BlockSize: 90})
	w := RandomWatermark(96, 13)
	marked, _, err := Embed(prog, w, key, EmbedOptions{Pieces: 48, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecognizeWithOpts(marked, key, RecognizeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := vm.Collect(marked, key.Input, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceRecognize(tr.DecodeBits(), key, nil)
	for name, r := range map[string]*Recognition{"production": rec, "reference": ref} {
		if !r.Matches(w) {
			t.Fatalf("%s: watermark not recovered: %+v", name, r)
		}
		if r.ValidStatements == 0 || r.Decrypted == 0 {
			t.Fatalf("%s: no statements decoded (valid=%d decrypted=%d)",
				name, r.ValidStatements, r.Decrypted)
		}
	}
	if !reflect.DeepEqual(rec, ref) {
		t.Errorf("production and reference recognitions diverged\n got %+v\nwant %+v", rec, ref)
	}
}

// BenchmarkRecognizeKernels measures RecognizeBits (scan + vote) over a
// densely marked trace with the production kernel and default stack,
// serial. TestScanStageSpeed times the scan stage alone against the
// reference kernel.
func BenchmarkRecognizeKernels(b *testing.B) {
	key, err := NewKey(nil, feistel.KeyFromUint64(21, 34), 128)
	if err != nil {
		b.Fatal(err)
	}
	prog := workloads.JessLike(workloads.JessLikeOptions{Seed: 8, Methods: 60, BlockSize: 150})
	w := RandomWatermark(128, 23)
	marked, _, err := Embed(prog, w, key, EmbedOptions{Pieces: 128, Seed: 11, Policy: GenLoopOnly})
	if err != nil {
		b.Fatal(err)
	}
	tr, _, err := vm.Collect(marked, key.Input, 1)
	if err != nil {
		b.Fatal(err)
	}
	bits := tr.DecodeBits()
	b.Run("batched-stack", func(b *testing.B) {
		var windows int
		for i := 0; i < b.N; i++ {
			rec, err := RecognizeBits(bits, key, RecognizeOpts{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			windows = rec.Windows
		}
		b.ReportMetric(float64(windows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mwindows/s")
	})
}
