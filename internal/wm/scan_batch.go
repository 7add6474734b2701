package wm

import (
	mathbits "math/bits"

	"pathmark/internal/bitstring"
)

// The scan kernel, the one inner loop of batch and stream recognition.
// Evaluated naively, each window would pay a filter evaluation built
// from three fresh popcounts and — for survivors — one cipher call. The
// kernel restructures the chunk into three passes:
//
//  1. gather: slide the window over the source words, maintaining the
//     three filter statistics incrementally (O(1) shift/mask updates per
//     position instead of three popcounts), and append survivors to a
//     contiguous buffer;
//  2. decrypt: run the whole survivor buffer through
//     feistel.DecryptBlocks in one call;
//  3. decode: apply the framing check and statement codec to each
//     decrypted block.
//
// The passes preserve the naive per-window decisions exactly — same
// filter order, same decode — so a
// Recognition is bit-identical to the one-window-at-a-time scalar
// reference kept in kernel_equiv_test.go; only the grouping of work
// changes. Stride-2 phases arrive pre-packed (bitstring.PackStride2Into),
// so every chunk scans a stride-1 window sequence.

// bandsPackable reports whether a filter stack fits the AVX2 kernel's
// byte arithmetic: each band's Lo in [0, 64] and width in [0, 127]. In
// that regime the byte-wrapped unsigned range check agrees with the
// int-width check in Band.rejects for every statistic value the scan
// can produce (popcount <= 64, transitions <= 63, phase <= 32). Every
// stack the package ships qualifies; a hand-built stack that does not
// simply runs the portable loop.
func bandsPackable(f FilterStack) bool {
	for _, b := range [...]Band{f.Popcount, f.Transitions, f.Phase} {
		if b.Lo < 0 || b.Lo > 64 || b.Hi < b.Lo || b.Hi-b.Lo > 127 {
			return false
		}
	}
	return true
}

// packBands encodes a packable stack as the six bytes the AVX2 kernel
// broadcasts: (lo, width) per band, popcount/transitions/phase order.
func packBands(f FilterStack) uint64 {
	return uint64(f.Popcount.Lo) | uint64(f.Popcount.Hi-f.Popcount.Lo)<<8 |
		uint64(f.Transitions.Lo)<<16 | uint64(f.Transitions.Hi-f.Transitions.Lo)<<24 |
		uint64(f.Phase.Lo)<<32 | uint64(f.Phase.Hi-f.Phase.Lo)<<40
}

// gatherRun evaluates the filter stack over windows [lo, hi) — a
// maximal run the word screen could not reject — appending survivors to
// wins and bumping the per-layer reject counters. The AVX2 kernel
// covers aligned blocks of 32 windows; the incremental rolling loop
// covers the tail, runs whose final words would take the kernel's
// three-word load out of bounds, and every non-amd64 build.
func (env *scanEnv) gatherRun(words []uint64, src *bitstring.Bits, lo, hi int, wins []uint64, rejPC, rejTR, rejPH *int) []uint64 {
	if env.useGather {
		asmHi := hi
		if limit := (len(words) - 2) << 6; asmHi > limit {
			asmHi = limit
		}
		if n := (asmHi - lo) &^ 31; n >= 32 {
			// Spare capacity is always sufficient: survivors so far plus
			// the n windows this call can add never exceed the chunk's
			// window count, and winBuf is sized to the chunk granularity.
			spare := wins[len(wins):cap(wins)]
			var res gatherCounts
			gatherFilterAVX2(&words[0], int64(lo), int64(n), env.gatherBands, &spare[0], &res)
			wins = wins[:len(wins)+int(res.n)]
			*rejPC += int(res.pc)
			*rejTR += int(res.tr)
			*rejPH += int(res.ph)
			lo += n
			if lo >= hi {
				return wins
			}
		}
	}

	// Portable rolling loop: dropping bit 0 and admitting a new bit 63
	// updates popcount, transition count, and even-phase count in a
	// handful of ALU ops. Shifting right by one swaps the parity of
	// every surviving bit, so the new even-phase count is the old
	// odd-phase count and the new odd count is the old even count minus
	// the dropped bit 0 plus the admitted bit.
	f := env.filters
	w := src.Word64(lo)
	pc, tr, ev := windowStats(w)
	od := pc - ev
	nPC, nTR, nPH := 0, 0, 0
	for start := lo; ; {
		switch {
		case f.Popcount.rejects(pc):
			nPC++
		case f.Transitions.rejects(tr):
			nTR++
		case f.Phase.rejects(ev):
			nPH++
		default:
			wins = append(wins, w)
		}
		start++
		if start >= hi {
			break
		}
		i := start + 63
		in := int(words[i>>6] >> (uint(i) & 63) & 1)
		b0 := int(w & 1)
		b1 := int(w >> 1 & 1)
		top := int(w >> 63)
		ev, od = od, ev-b0+in
		pc = ev + od
		tr += (top ^ in) - (b0 ^ b1)
		w = w>>1 | uint64(in)<<63
	}
	*rejPC += nPC
	*rejTR += nTR
	*rejPH += nPH
	return wins
}

// scanRangeBatched scans windows [lo, hi) of a stride-1 source using the
// gather/decrypt/decode structure. hi > lo and hi <= src.NumWindows64()
// are guaranteed by the chunk grid.
func (a *scanAccum) scanRangeBatched(src *bitstring.Bits, lo, hi int, env *scanEnv) {
	words := src.Words()
	f := env.filters

	// Pass 1: gather. The windows are walked one word-group at a time —
	// all starts inside source word k, whose windows lie entirely within
	// words k and k+1 — so a two-word popcount can prove, before looking
	// at any individual window, that every window in the group fails the
	// popcount band: a window's popcount is bounded by [sum2-64, sum2].
	// Popcount is the first filter in the short-circuit order, so the
	// whole group is rejected with exactly the per-window accounting a
	// window-by-window evaluation would produce, at ~2 instructions per
	// 64 windows.
	// Degenerate trace regions (constant runs from the generators'
	// priming passes) are precisely the ones this screen eats.
	//
	// Maximal runs of groups the screen cannot reject go to gatherRun,
	// which evaluates the filter stack per window: 32 windows per
	// iteration on the AVX2 kernel, an incremental rolling loop for
	// tails and portable builds.
	a.windows += hi - lo
	var rejPC, rejTR, rejPH int
	wins := env.winBuf[:0]
	runLo := -1
	for start := lo; start < hi; {
		k := start >> 6
		gEnd := (k + 1) << 6
		if gEnd > hi {
			gEnd = hi
		}
		sum2 := mathbits.OnesCount64(words[k])
		if k+1 < len(words) {
			sum2 += mathbits.OnesCount64(words[k+1])
		}
		if sum2 < f.Popcount.Lo || sum2-64 > f.Popcount.Hi {
			if runLo >= 0 {
				wins = env.gatherRun(words, src, runLo, start, wins, &rejPC, &rejTR, &rejPH)
				runLo = -1
			}
			rejPC += gEnd - start
			start = gEnd
			continue
		}
		if runLo < 0 {
			runLo = start
		}
		start = gEnd
	}
	if runLo >= 0 {
		wins = env.gatherRun(words, src, runLo, hi, wins, &rejPC, &rejTR, &rejPH)
	}
	a.rej.Popcount += rejPC
	a.rej.Transitions += rejTR
	a.rej.Phase += rejPH
	env.winBuf = wins // chunk <= cap, so the buffer never reallocates
	if len(wins) == 0 {
		return
	}
	a.decrypted += len(wins)

	// Pass 2: decrypt the survivor batch, zero-padded to the block
	// kernel's 16-block granularity so the scalar tail loop never runs
	// (the padding decryptions land beyond dec's live region and are
	// never read). The chunk granularity is itself a multiple of 16, so
	// padding always fits the scratch buffers.
	padded := (len(wins) + 15) &^ 15
	w := wins[:padded]
	for i := len(wins); i < padded; i++ {
		w[i] = 0
	}
	env.cipher.DecryptBlocks(env.decBuf[:padded], w)
	dec := env.decBuf[:len(wins)]

	// Pass 3: decode. Same decisions as a per-window decode, with the
	// framing rejections — the overwhelmingly common outcome for windows
	// that survived the statistical filters — tallied in bulk. On AVX2
	// the framing check runs four windows per iteration and hands back
	// only the indices that pass (true pieces plus ~capacity/2^64
	// noise); those few re-run the scalar Unframe on their way into the
	// statement codec, so the kernel only decides accept/reject.
	framing := 0
	rest := dec
	if env.useUnframe {
		if n4 := len(dec) &^ 3; n4 >= 4 {
			npass := unframeScanAVX2(&dec[0], int64(n4), &env.frameConsts, &env.passBuf[0])
			framing += n4 - int(npass)
			for _, i := range env.passBuf[:npass] {
				a.decodeFramed(env, dec[i], &framing)
			}
			rest = dec[n4:]
		}
	}
	for _, d := range rest {
		a.decodeFramed(env, d, &framing)
	}
	a.rej.Framing += framing
}

// decodeFramed runs the scalar framing check and statement codec on one
// decrypted window, bumping *framing on a structural reject.
func (a *scanAccum) decodeFramed(env *scanEnv, d uint64, framing *int) {
	enc, ok := env.params.Unframe(d)
	if !ok {
		*framing++
		return
	}
	if st, ok := env.params.Decode(enc); ok {
		a.valid++
		a.counts[st]++
	}
}
