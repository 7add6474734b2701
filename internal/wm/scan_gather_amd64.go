//go:build amd64 && !purego

package wm

import (
	"pathmark/internal/crt"
	"pathmark/internal/feistel"
)

// gatherAvailable gates the AVX2 gather/filter kernel behind the same
// CPU probe as the feistel batch decryptor.
var gatherAvailable = feistel.HasAVX2()

// gatherCounts receives the assembly kernel's tallies: survivors
// written, and per-layer rejections in the filter stack's short-circuit
// order (popcount first, then transitions, then phase).
type gatherCounts struct {
	n, pc, tr, ph int64
}

// gatherFilterAVX2 evaluates the filter stack over n consecutive 64-bit
// windows of words starting at bit index lo, writing survivors to out in
// window order and filling res. Implemented in scan_gather_amd64.s.
//
// Contract (checked by the caller, not the kernel):
//   - n is a positive multiple of 32;
//   - every block's three word loads stay in bounds:
//     (lo+n-1)>>6 + 2 < len(words);
//   - out has room for n values (the worst case: everything survives);
//   - bands is packBands of a stack for which bandsPackable is true.
//
//go:noescape
func gatherFilterAVX2(words *uint64, lo, n int64, bands uint64, out *uint64, res *gatherCounts)

// unframeScanAVX2 evaluates the framing accept condition (see
// crt.Params.Unframe) over n decrypted windows, four per iteration,
// writing the index of each passing window to passIdx and returning how
// many passed. n must be a positive multiple of 4; passIdx must have
// room for n indices. Implemented in scan_gather_amd64.s.
//
//go:noescape
func unframeScanAVX2(dec *uint64, n int64, fc *crt.FrameConsts, passIdx *int32) int64
