package wm

import (
	"testing"

	"pathmark/internal/bitstring"
	"pathmark/internal/vm"
	"pathmark/internal/workloads"
)

// markedTraceBits embeds a watermark into a random program and returns
// the decoded trace bit-string of the marked program under the key's
// secret input, plus the key.
func markedTraceBits(t *testing.T, seed int64) (*bitstring.Bits, *Key) {
	t.Helper()
	key := testKey(t, nil, 64)
	p := workloads.RandomProgram(workloads.RandProgOptions{Seed: seed + 500})
	w := RandomWatermark(64, uint64(seed)+1)
	marked, _, err := Embed(p, w, key, EmbedOptions{Seed: seed})
	if err != nil {
		t.Fatalf("embed: %v", err)
	}
	tr, _, err := vm.CollectWith(marked, vm.RunOptions{
		Input: key.Input, SnapshotLimit: 1, StepLimit: 100_000_000,
	})
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	return tr.DecodeBits(), key
}

// sliceBits returns bits [lo, hi) of b as a fresh vector.
func sliceBits(b *bitstring.Bits, lo, hi int) *bitstring.Bits {
	out := bitstring.New(hi - lo)
	for i := lo; i < hi; i++ {
		out.Append(b.Bit(i))
	}
	return out
}

// TestStreamRecognizerEarlyExit pins the online payoff: on a marked
// trace the stream settles (full prime-basis coverage) strictly before
// the last chunk is appended, and the settled verdict already matches
// the embedded watermark.
func TestStreamRecognizerEarlyExit(t *testing.T) {
	bits, key := markedTraceBits(t, 1)
	r := NewStreamRecognizer(key, StreamOpts{Workers: 1, CheckEvery: 1024})
	const chunk = 2048
	settledAt := -1
	for lo := 0; lo < bits.Len(); lo += chunk {
		hi := lo + chunk
		if hi > bits.Len() {
			hi = bits.Len()
		}
		if err := r.AppendBits(sliceBits(bits, lo, hi)); err != nil {
			t.Fatalf("append: %v", err)
		}
		if r.Settled() && settledAt < 0 {
			settledAt = hi
		}
	}
	if settledAt < 0 {
		t.Fatalf("stream never settled over %d bits", bits.Len())
	}
	if settledAt >= bits.Len() {
		t.Fatalf("settled only at end of trace (%d of %d bits)", settledAt, bits.Len())
	}
	v := r.Verdict()
	if v == nil || !v.FullCoverage {
		t.Fatalf("settled without a full-coverage verdict: %+v", v)
	}
	final, err := r.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if final.Watermark.Cmp(v.Watermark) != 0 {
		t.Fatalf("early verdict %v != final %v", v.Watermark, final.Watermark)
	}
	t.Logf("settled after %d of %d bits (%.1f%%), %d probes",
		settledAt, bits.Len(), 100*float64(settledAt)/float64(bits.Len()), r.Probes())
}

// TestStreamRecognizerBoundedMemory pins the memory claim: the tail
// buffer's high-water mark depends on the append chunk size, not on the
// cumulative trace length — doubling the trace leaves the peak where it
// was.
func TestStreamRecognizerBoundedMemory(t *testing.T) {
	bits, key := markedTraceBits(t, 0)
	const chunk = 512
	feed := func(repeats int) int {
		r := NewStreamRecognizer(key, StreamOpts{Workers: 1, CheckEvery: -1})
		for rep := 0; rep < repeats; rep++ {
			for lo := 0; lo < bits.Len(); lo += chunk {
				hi := lo + chunk
				if hi > bits.Len() {
					hi = bits.Len()
				}
				if err := r.AppendBits(sliceBits(bits, lo, hi)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if r.TotalBits() != repeats*bits.Len() {
			t.Fatalf("total %d != %d", r.TotalBits(), repeats*bits.Len())
		}
		return r.PeakBufferedBits()
	}
	peak1, peak4 := feed(1), feed(4)
	// The even-base compaction rounding admits ±2 bits of alignment
	// jitter; anything beyond that would mean growth with trace length.
	if peak4 > peak1+2 {
		t.Fatalf("peak buffer grew with trace length: %d bits at 1x, %d at 4x", peak1, peak4)
	}
	// The documented bound: chunk + deferred-compaction slack + widest
	// window span.
	if bound := chunk + compactMinDrop + maxWindowSpan + 64; peak1 > bound {
		t.Fatalf("peak buffer %d exceeds documented bound %d", peak1, bound)
	}
}

// TestStreamRecognizerRefusesAppendAfterFlush pins the lifecycle: Flush
// latches and later appends fail loudly instead of silently skewing a
// finalized verdict.
func TestStreamRecognizerRefusesAppendAfterFlush(t *testing.T) {
	key := testKey(t, nil, 64)
	r := NewStreamRecognizer(key, StreamOpts{Workers: 1})
	if err := r.AppendBits(bitstring.FromUint64(0xdeadbeef)); err != nil {
		t.Fatal(err)
	}
	first, err := r.Flush()
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.Flush()
	if err != nil || again != first {
		t.Fatalf("Flush not idempotent: %v %v", again, err)
	}
	if err := r.AppendBits(bitstring.FromUint64(1)); err == nil {
		t.Fatal("append after Flush succeeded")
	}
}
