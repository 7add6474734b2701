package wm

import "math/bits"

// The scan stage's stacked prefilters. A genuine watermark piece is the
// Feistel encryption of a framed CRT statement, i.e. computationally
// pseudorandom: its popcount concentrates around 32, its adjacent-bit
// transition count around 31.5, and the popcount of its even bit
// positions around 16, all with binomial tails. Trace garbage is the
// opposite — priming runs, loop-control interleavings, and counter
// patterns are heavily structured — so three cheap statistics reject the
// vast majority of windows before the 32-round cipher ever runs:
//
//	popcount    OnesCount64(w)                      ~ Bin(64, ½)
//	transitions OnesCount64((w ^ w>>1) low 63 bits) ~ Bin(63, ½)
//	phase       OnesCount64(w & 0x5555…)            ~ Bin(32, ½)
//
// The scan kernel maintains all three statistics incrementally (O(1)
// per slid window) and applies them in a fixed order (popcount, then
// transitions, then phase) with short-circuiting, so each window is
// charged to exactly one layer and the per-layer rejection counters are
// worker-count-independent.
//
// The stack is lossy by construction, like the original popcount band:
// each band clips two binomial tails, and the default stack rejects a
// genuine encrypted piece with probability ~4e-5 — small against the
// redundancy of the embedding (every piece appears at multiple window
// positions and the statement basis is redundant), and recoverable by
// retrying with NoFilters. The post-decrypt framing check (see
// crt.Params.Unframe) is the lossless fourth layer: it never rejects a
// genuine piece.

// Band is an inclusive acceptance interval [Lo, Hi] for one window
// statistic; values outside it reject the window.
type Band struct {
	Lo, Hi int
}

// rejects reports whether the band drops a window whose statistic is v.
// Written branchless-friendly: one unsigned compare after normalization.
func (b Band) rejects(v int) bool { return uint(v-b.Lo) > uint(b.Hi-b.Lo) }

// FilterStack is the full pre-decrypt filter configuration, one Band per
// statistic.
type FilterStack struct {
	// Popcount bounds OnesCount64(window).
	Popcount Band
	// Transitions bounds the number of adjacent bit positions that
	// differ (0 for constant runs, 63 for 0101… patterns — both
	// degenerate shapes real traces produce in bulk).
	Transitions Band
	// Phase bounds the popcount of the window's even bit positions,
	// which catches stride-patterned garbage (constant-in-one-phase
	// interleavings) that total popcount and transitions both miss.
	Phase Band
}

// DefaultFilters is the stack used when RecognizeOpts.Filters is nil,
// and by every caller that has no filter option. The popcount band is
// the historic default; the transition and phase bands clip at ≈±3.9σ,
// adding ~3e-5 to the false-reject probability while roughly
// quadrupling the rejection rate on structured trace garbage.
var DefaultFilters = FilterStack{
	Popcount:    Band{Lo: 8, Hi: 56},
	Transitions: Band{Lo: 13, Hi: 51},
	Phase:       Band{Lo: 5, Hi: 27},
}

// NoFilters accepts every window on every statistic; use it to rule the
// lossy filters out when hunting for lost pieces. The lossless framing
// check still applies.
var NoFilters = FilterStack{
	Popcount:    Band{Lo: 0, Hi: 64},
	Transitions: Band{Lo: 0, Hi: 63},
	Phase:       Band{Lo: 0, Hi: 32},
}

// LayerRejects breaks the scan's rejections down by filter layer. The
// first three layers run before decryption (their sum is
// Recognition.PrefilterRejected); Framing counts windows that were
// decrypted but failed the structural check of the statement codec.
// Every count is a sum over disjoint scan shards — identical at every
// worker count.
type LayerRejects struct {
	Popcount    int
	Transitions int
	Phase       int
	Framing     int
}

// preDecrypt returns the number of windows the lossy pre-decrypt layers
// dropped.
func (l LayerRejects) preDecrypt() int { return l.Popcount + l.Transitions + l.Phase }

func (l *LayerRejects) add(o LayerRejects) {
	l.Popcount += o.Popcount
	l.Transitions += o.Transitions
	l.Phase += o.Phase
	l.Framing += o.Framing
}

// windowStats computes the three filter statistics of one window from
// scratch: the seed values of the kernel's incremental updates.
func windowStats(w uint64) (pc, tr, ev int) {
	pc = bits.OnesCount64(w)
	tr = bits.OnesCount64((w ^ (w >> 1)) & (1<<63 - 1))
	ev = bits.OnesCount64(w & evenMask)
	return
}

const evenMask = 0x5555555555555555
