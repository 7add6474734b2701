package bitstring

// Stride-2 packing for the recognizer's batched scan kernel. Rather than
// gathering every stride-2 window bit-by-bit (StrideWindows64Range, the
// reference form), the kernel materializes each phase once as a
// contiguous bit vector (one word-parallel pass over the trace) and then
// scans it stride-1, which lets the same incremental window roll and
// block-gather code serve all three scan tasks.

// Words exposes the backing words of the vector: bit i of the vector is
// bit i%64 of Words()[i/64], and bits at or beyond Len() in the last
// word are zero (the package invariant). The slice is shared, not
// copied — callers must treat it as read-only. It exists for scan
// kernels that stream whole words instead of per-bit accessors.
func (b *Bits) Words() []uint64 { return b.words }

// compactEven compresses the 32 even-position bits of x (bits 0, 2, ...,
// 62) into the low 32 bits, preserving order — the classic parallel
// bit-extract ladder for the 0x5555... mask.
func compactEven(x uint64) uint64 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	return x
}

// PackStride2Into materializes the stride-2, phase-p subsequence,
// equivalent to Stride(2, phase) but word-parallel: every output word
// packs the even-position bits of two input words (shifted by the phase),
// so the pass costs a few ALU ops per 64 trace bits instead of a per-bit
// Append. phase must be 0 or 1. It recycles dst's storage when its word
// capacity suffices (a nil dst allocates fresh). Every output word is
// fully overwritten, so a recycled vector carries no state from its
// previous contents; scan callers that repack phases per call pool the
// vectors through this to keep the pack pass allocation-free.
func (b *Bits) PackStride2Into(dst *Bits, phase int) *Bits {
	outN := b.StrideLen(2, phase) // panics on invalid phase
	nw := (outN + 63) / 64
	out := dst
	if out == nil {
		out = &Bits{}
	}
	if cap(out.words) < nw {
		out.words = make([]uint64, nw)
	}
	out.words = out.words[:nw]
	out.n = outN
	for k := range out.words {
		// Output bits 64k..64k+63 are input bits phase+2(64k)..phase+2(64k)+127,
		// i.e. the even positions of input words 2k and 2k+1 after the
		// phase shift.
		var w uint64
		if i := 2 * k; i < len(b.words) {
			w = compactEven(b.words[i] >> uint(phase))
		}
		if i := 2*k + 1; i < len(b.words) {
			w |= compactEven(b.words[i]>>uint(phase)) << 32
		}
		out.words[k] = w
	}
	// The zero-tail invariant already holds (input tails are zero), but
	// mask defensively so a future invariant change cannot leak bits.
	if off := uint(outN % 64); off != 0 {
		out.words[len(out.words)-1] &= (1 << off) - 1
	}
	return out
}
