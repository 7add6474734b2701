package wm

import (
	mathbits "math/bits"

	"pathmark/internal/bitstring"
	"pathmark/internal/feistel"
)

// The fleet benchmark's old/new scan legs. The repo's speedup claims are
// measured against the scan kernel as it shipped before the batched
// rework (PR 5): that kernel is gone from the production path, so a
// frozen replica lives here, used only as the benchmark baseline. The
// new leg is the production scan stage, callable without the trace and
// vote stages so the comparison isolates kernel throughput.

// ScanStats summarizes one scan-stage run for benchmarking and
// reporting: window positions visited, windows submitted to the
// decrypt layer, and windows decoding to an in-range statement.
type ScanStats struct {
	Windows   int
	Decrypted int
	Valid     int
	Rejected  LayerRejects
}

// ScanBaselinePR5 replays the pre-batching scan kernel exactly as it
// shipped: closure-driven window iteration over the raw bit-string and
// its two stride-2 phases, a fresh popcount per window against the
// historic [8, 56] band, one bound-method cipher call per surviving
// window, and the binary-search statement decode on every decrypted
// window — framing and the transition/phase filters did not exist yet,
// so every decryption paid the full codec. Serial, uncached, matching
// the original's single-worker path.
//
// The replica is the benchmark's control group and must stay frozen:
// improving it would silently deflate every recorded speedup, so it
// shares no code with the production kernel.
func ScanBaselinePR5(b *bitstring.Bits, key *Key) ScanStats {
	cipher := feistel.New(key.Cipher)
	decrypt := cipher.Decrypt
	params := key.Params
	band := Band{Lo: 8, Hi: 56}
	var st ScanStats
	visit := func(_ int, w uint64) bool {
		st.Windows++
		if band.rejects(mathbits.OnesCount64(w)) {
			st.Rejected.Popcount++
			return true
		}
		st.Decrypted++
		dec := decrypt(w)
		if _, ok := params.Decode(dec); ok {
			st.Valid++
		}
		return true
	}
	b.Windows64Range(0, b.NumWindows64(), visit)
	if b.Len() >= 2 {
		for phase := 0; phase < 2; phase++ {
			b.StrideWindows64Range(2, phase, 0, b.StrideNumWindows64(2, phase), visit)
		}
	}
	return st
}

// ScanOnly runs just the scan stage of RecognizeBits — the window
// filter/decrypt/decode pipeline over the bit-string and its stride-2
// phases — without the vote and CRT stages, so benchmarks can measure
// kernel throughput in isolation. Worker count, filters, scan hook, and
// cache come from opts exactly as in RecognizeBits.
func ScanOnly(b *bitstring.Bits, key *Key, opts RecognizeOpts) (ScanStats, error) {
	if err := b.Validate(); err != nil {
		return ScanStats{}, err
	}
	acc, _, err := scanBits(b, key, opts)
	if err != nil {
		return ScanStats{}, err
	}
	return ScanStats{
		Windows:   acc.windows,
		Decrypted: acc.decrypted,
		Valid:     acc.valid,
		Rejected:  acc.rej,
	}, nil
}
