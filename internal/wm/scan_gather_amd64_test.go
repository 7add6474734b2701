//go:build amd64 && !purego

package wm

import (
	"math/rand"
	"testing"

	"pathmark/internal/feistel"
)

// gatherRef recomputes the kernel's contract from scratch (fresh window
// extraction and popcounts per position, no incremental rolling), so a
// shared bug in the rolling loop cannot mask an assembly bug.
func gatherRef(words []uint64, lo, n int, f FilterStack) (out []uint64, pc, tr, ph int) {
	bit := func(i int) int { return int(words[i>>6] >> (uint(i) & 63) & 1) }
	for s := lo; s < lo+n; s++ {
		var w uint64
		for i := 0; i < 64; i++ {
			w |= uint64(bit(s+i)) << uint(i)
		}
		wpc, wtr, wev := windowStats(w)
		switch {
		case f.Popcount.rejects(wpc):
			pc++
		case f.Transitions.rejects(wtr):
			tr++
		case f.Phase.rejects(wev):
			ph++
		default:
			out = append(out, w)
		}
	}
	return out, pc, tr, ph
}

func checkGather(t *testing.T, words []uint64, lo, n int, f FilterStack) {
	t.Helper()
	refOut, refPC, refTR, refPH := gatherRef(words, lo, n, f)
	out := make([]uint64, n)
	var res gatherCounts
	gatherFilterAVX2(&words[0], int64(lo), int64(n), packBands(f), &out[0], &res)
	if int(res.pc) != refPC || int(res.tr) != refTR || int(res.ph) != refPH {
		t.Fatalf("lo=%d n=%d bands=%+v: rejects (%d,%d,%d), want (%d,%d,%d)",
			lo, n, f, res.pc, res.tr, res.ph, refPC, refTR, refPH)
	}
	if int(res.n) != len(refOut) {
		t.Fatalf("lo=%d n=%d bands=%+v: %d survivors, want %d", lo, n, f, res.n, len(refOut))
	}
	for i, w := range refOut {
		if out[i] != w {
			t.Fatalf("lo=%d n=%d bands=%+v: survivor %d = %#x, want %#x", lo, n, f, i, out[i], w)
		}
	}
}

var gatherTestStacks = []FilterStack{
	DefaultFilters,
	NoFilters,
	{Popcount: Band{8, 56}, Transitions: Band{0, 63}, Phase: Band{0, 32}},
	{Popcount: Band{30, 34}, Transitions: Band{28, 35}, Phase: Band{14, 18}},
	{Popcount: Band{0, 64}, Transitions: Band{13, 51}, Phase: Band{0, 32}},
	{Popcount: Band{64, 64}, Transitions: Band{0, 0}, Phase: Band{32, 32}},
}

// TestGatherFilterAVX2 differential-tests the assembly kernel against a
// from-scratch reference over random words, every shipped filter stack,
// and every bit offset within the leading word.
func TestGatherFilterAVX2(t *testing.T) {
	if !gatherAvailable {
		t.Skip("AVX2 gather kernel unavailable on this machine")
	}
	rng := rand.New(rand.NewSource(41))
	mix := func(i int, w uint64) uint64 {
		switch i % 5 {
		case 0:
			return 0 // constant runs: exercises band edges
		case 1:
			return ^uint64(0)
		case 2:
			return 0x5555555555555555 // max transitions, one-sided phase
		default:
			return w
		}
	}
	for trial := 0; trial < 50; trial++ {
		words := make([]uint64, 40)
		for i := range words {
			words[i] = mix(trial+i, rng.Uint64())
		}
		maxLo := (len(words)-2)<<6 - 1
		for _, f := range gatherTestStacks {
			lo := rng.Intn(64)
			n := 32 * (1 + rng.Intn((maxLo-lo)/32/4))
			checkGather(t, words, lo, n, f)
		}
	}
	// Pin every offset of the funnel shift with a fixed block count.
	words := make([]uint64, 8)
	for i := range words {
		words[i] = rng.Uint64()
	}
	for lo := 0; lo < 64; lo++ {
		checkGather(t, words, lo, 32*8, DefaultFilters)
	}
}

// TestUnframeScanAVX2 differential-tests the batched framing check
// against crt.Params.Unframe over random windows — which almost always
// reject — salted with genuinely framed statements, which never may.
func TestUnframeScanAVX2(t *testing.T) {
	if !gatherAvailable {
		t.Skip("AVX2 gather kernel unavailable on this machine")
	}
	key, err := NewKey(nil, feistel.KeyFromUint64(77, 31), 64)
	if err != nil {
		t.Fatal(err)
	}
	params := key.Params
	fc := params.FrameConstants()
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 200; trial++ {
		n := 4 * (1 + rng.Intn(64))
		dec := make([]uint64, n)
		for i := range dec {
			switch rng.Intn(4) {
			case 0: // a real framed piece: must always pass
				dec[i] = params.Frame(rng.Uint64() % params.Capacity())
			case 1: // in-capacity payload, random check bits: usually rejects
				dec[i] = rng.Uint64()%params.Capacity() | rng.Uint64()<<fc.Shift
			default:
				dec[i] = rng.Uint64()
			}
		}
		var want []int32
		for i, d := range dec {
			if _, ok := params.Unframe(d); ok {
				want = append(want, int32(i))
			}
		}
		idx := make([]int32, n)
		npass := unframeScanAVX2(&dec[0], int64(n), &fc, &idx[0])
		if int(npass) != len(want) {
			t.Fatalf("trial %d: %d passers, want %d", trial, npass, len(want))
		}
		for i, w := range want {
			if idx[i] != w {
				t.Fatalf("trial %d: passer %d at index %d, want %d", trial, i, idx[i], w)
			}
		}
	}
}

// FuzzGatherFilterAVX2 fuzzes the kernel against the reference with
// fuzzer-chosen word contents, offset, and (sanitized) bands.
func FuzzGatherFilterAVX2(f *testing.F) {
	if !gatherAvailable {
		f.Skip("AVX2 gather kernel unavailable on this machine")
	}
	f.Add(uint64(0xdeadbeefcafef00d), uint8(3), uint8(8), uint8(48), uint8(13), uint8(38), uint8(5), uint8(22))
	f.Add(uint64(0), uint8(63), uint8(0), uint8(64), uint8(0), uint8(63), uint8(0), uint8(32))
	f.Fuzz(func(t *testing.T, seed uint64, loB, pcLo, pcW, trLo, trW, phLo, phW uint8) {
		stack := FilterStack{
			Popcount:    Band{int(pcLo % 65), int(pcLo%65) + int(pcW%128)},
			Transitions: Band{int(trLo % 65), int(trLo%65) + int(trW%128)},
			Phase:       Band{int(phLo % 65), int(phLo%65) + int(phW%128)},
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		words := make([]uint64, 12)
		for i := range words {
			words[i] = rng.Uint64()
		}
		checkGather(t, words, int(loB%64), 64, stack)
	})
}
