// Package branchfn synthesizes branch functions (paper §4.1, Figure 7)
// for the native substrate: a function that is called normally but
// rewrites its own stacked return address through a perfect-hash-indexed
// XOR table in the data section, so that "returning" transfers control to
// an address unrelated to the call site. The package also implements the
// §4.3 tamper-proofing slots: each branch-function invocation additionally
// fixes up one indirect-jump cell M elsewhere in memory, making the branch
// function's execution essential to the program.
//
// Construction is two-phase, because the table contents depend on final
// code addresses while the code must be emitted before assembly:
//
//  1. Reserve appends the branch-function code (with fresh labels) and
//     reserves data-section space sized for n call sites.
//  2. After the final instruction stream is frozen, PatchAddrs rewrites
//     the data-section base addresses baked into the emitted code, the
//     unit is assembled, and Finalize fills the seed words, displacement
//     table, XOR table and tamper slots using the now-known addresses.
package branchfn

import (
	"fmt"
	"math/rand"

	"pathmark/internal/isa"
	"pathmark/internal/perfecthash"
)

// CallLen is the encoded size of a call instruction; a call site's hash
// key (the return address it pushes) is its own address plus CallLen.
const CallLen = 5

// Options configures synthesis.
type Options struct {
	// LabelPrefix makes the function's labels unique (required when a unit
	// carries several branch functions, e.g. after double watermarking).
	LabelPrefix string
	// HelperDepth inserts a chain of helper functions f -> f1 -> ... so
	// the return-address manipulation happens several frames deep
	// (§4.1's countermeasure against spotting functions that modify
	// their own return address). 0..4.
	HelperDepth int
	// Rng drives the randomized helper frame sizes.
	Rng *rand.Rand
}

// BranchFunc describes a reserved branch function awaiting finalization.
type BranchFunc struct {
	// Entry is the label call sites must target.
	Entry string
	// N is the call-site capacity.
	N int
	// NB is the first-level bucket count of the perfect hash.
	NB int

	opts Options
	// Data-section byte offsets.
	seed1Off, seed2Off, nbOff, nOff int
	dispOff, tableOff, slotsOff     int
	// retDepth is the byte offset from ESP to the stacked return address
	// inside the innermost helper.
	retDepth int
	// frame sizes per helper.
	frames []int
	// indices of emitted instructions that reference data addresses as
	// placeholder offsets (PatchAddrs rewrites them).
	patchIdx []int
}

// dataRefMarker tags immediates that hold data-section *offsets* until
// PatchAddrs converts them to absolute addresses.
const dataRefMarker = int64(1) << 40

// Reserve emits the branch-function code at the end of the unit and
// reserves its data. n is the number of call sites the function must
// dispatch (one XOR-table and tamper-slot entry each).
func Reserve(u *isa.Unit, n int, opts Options) (*BranchFunc, error) {
	if n <= 0 {
		return nil, fmt.Errorf("branchfn: need at least one call site, got %d", n)
	}
	if opts.Rng == nil {
		opts.Rng = rand.New(rand.NewSource(1))
	}
	if opts.HelperDepth < 0 || opts.HelperDepth > 4 {
		return nil, fmt.Errorf("branchfn: helper depth %d out of range [0,4]", opts.HelperDepth)
	}
	bf := &BranchFunc{
		Entry: opts.LabelPrefix + "bf_entry",
		N:     n,
		NB:    n/2 + 1,
		opts:  opts,
	}

	// Data reservations (all 32-bit words; displacements stored widened).
	alloc := func(words int) int {
		off := len(u.Data)
		u.Data = append(u.Data, make([]byte, 4*words)...)
		return off
	}
	bf.seed1Off = alloc(1)
	bf.seed2Off = alloc(1)
	bf.nbOff = alloc(1)
	bf.nOff = alloc(1)
	bf.dispOff = alloc(bf.NB)
	bf.tableOff = alloc(n)
	bf.slotsOff = alloc(2 * n) // {Maddr, xorval} pairs

	// 7 saved words (flags + eax..edx + esi + edi) above the return
	// address, plus 4 per helper frame return address, plus helper frames.
	bf.retDepth = 7 * 4
	for d := 0; d < opts.HelperDepth; d++ {
		frame := 4 * opts.Rng.Intn(5) // 0..16 bytes of random frame
		bf.frames = append(bf.frames, frame)
		bf.retDepth += 4 + frame
	}

	emit := func(in isa.Ins) {
		if in.Imm >= dataRefMarker {
			bf.patchIdx = append(bf.patchIdx, len(u.Instrs))
		}
		u.Instrs = append(u.Instrs, in)
	}
	dref := func(off int) int64 { return dataRefMarker + int64(off) }
	label := func(s string) string { return opts.LabelPrefix + s }

	// Entry: save registers and flags, then descend through the helpers.
	emit(isa.Ins{Op: isa.OPushF, Label: bf.Entry})
	for _, r := range []byte{isa.EAX, isa.EBX, isa.ECX, isa.EDX, isa.ESI, isa.EDI} {
		emit(isa.Ins{Op: isa.OPush, R1: r})
	}
	if opts.HelperDepth > 0 {
		emit(isa.Ins{Op: isa.OCall, Target: label("bf_h0")})
	} else {
		emit(isa.Ins{Op: isa.OCall, Target: label("bf_body")})
	}
	for _, r := range []byte{isa.EDI, isa.ESI, isa.EDX, isa.ECX, isa.EBX, isa.EAX} {
		emit(isa.Ins{Op: isa.OPop, R1: r})
	}
	emit(isa.Ins{Op: isa.OPopF})
	emit(isa.Ins{Op: isa.ORet})

	// Helper chain: each helper allocates a random frame and calls deeper.
	for d := 0; d < opts.HelperDepth; d++ {
		next := label("bf_body")
		if d+1 < opts.HelperDepth {
			next = label(fmt.Sprintf("bf_h%d", d+1))
		}
		emit(isa.Ins{Op: isa.OSubImm, R1: isa.ESP, Imm: int64(bf.frames[d]), Label: label(fmt.Sprintf("bf_h%d", d))})
		emit(isa.Ins{Op: isa.OCall, Target: next})
		emit(isa.Ins{Op: isa.OAddImm, R1: isa.ESP, Imm: int64(bf.frames[d])})
		emit(isa.Ins{Op: isa.ORet})
	}

	// Body: the original return address (the hash key) sits retDepth bytes
	// above the body's own return address, i.e. at [esp + retDepth + 4].
	depth := int64(bf.retDepth + 4)

	// eax := original return address (the hash key).
	emit(isa.Ins{Op: isa.OLoad, R1: isa.EAX, R2: isa.ESP, Imm: depth, Label: label("bf_body")})

	emitMix := func(dst byte, seedOff int) {
		// dst := mix(eax, mem[seed]) — clobbers ecx, edx.
		emit(isa.Ins{Op: isa.OLoadAbs, R1: isa.ECX, Imm: dref(seedOff)})
		emit(isa.Ins{Op: isa.OMovReg, R1: dst, R2: isa.EAX})
		emit(isa.Ins{Op: isa.OXor, R1: dst, R2: isa.ECX})
		emit(isa.Ins{Op: isa.OMovReg, R1: isa.EDX, R2: dst})
		emit(isa.Ins{Op: isa.OShrImm, R1: isa.EDX, Imm: 16})
		emit(isa.Ins{Op: isa.OXor, R1: dst, R2: isa.EDX})
		emit(isa.Ins{Op: isa.OMulImm, R1: dst, Imm: int64(uint32(0x85ebca6b))})
		emit(isa.Ins{Op: isa.OMovReg, R1: isa.EDX, R2: dst})
		emit(isa.Ins{Op: isa.OShrImm, R1: isa.EDX, Imm: 13})
		emit(isa.Ins{Op: isa.OXor, R1: dst, R2: isa.EDX})
		emit(isa.Ins{Op: isa.OMulImm, R1: dst, Imm: int64(uint32(0xc2b2ae35))})
		emit(isa.Ins{Op: isa.OMovReg, R1: isa.EDX, R2: dst})
		emit(isa.Ins{Op: isa.OShrImm, R1: isa.EDX, Imm: 16})
		emit(isa.Ins{Op: isa.OXor, R1: dst, R2: isa.EDX})
	}

	// esi := disp[mix(key, seed1) % nb]
	emitMix(isa.ESI, bf.seed1Off)
	emit(isa.Ins{Op: isa.OLoadAbs, R1: isa.ECX, Imm: dref(bf.nbOff)})
	emit(isa.Ins{Op: isa.OUMod, R1: isa.ESI, R2: isa.ECX})
	emit(isa.Ins{Op: isa.OLoadIdx, R1: isa.ESI, R2: isa.ESI, Scale: 4, Imm: dref(bf.dispOff)})
	// ebx := (mix(key, seed2) + esi) % n  — the perfect-hash index.
	emitMix(isa.EBX, bf.seed2Off)
	emit(isa.Ins{Op: isa.OAdd, R1: isa.EBX, R2: isa.ESI})
	emit(isa.Ins{Op: isa.OLoadAbs, R1: isa.ECX, Imm: dref(bf.nOff)})
	emit(isa.Ins{Op: isa.OUMod, R1: isa.EBX, R2: isa.ECX})
	// edx := T[ebx]; fix the stacked return address: ret ^= edx.
	emit(isa.Ins{Op: isa.OLoadIdx, R1: isa.EDX, R2: isa.EBX, Scale: 4, Imm: dref(bf.tableOff)})
	emit(isa.Ins{Op: isa.OLoad, R1: isa.ECX, R2: isa.ESP, Imm: depth})
	emit(isa.Ins{Op: isa.OXor, R1: isa.ECX, R2: isa.EDX})
	emit(isa.Ins{Op: isa.OStore, R1: isa.ESP, R2: isa.ECX, Imm: depth})
	// Tamper-proofing slot (Figure 7's "begin tamper-proofing"):
	//   ecx := slots[ebx].M; if ecx != 0 { *ecx ^= slots[ebx].val; slots[ebx].M = 0 }
	emit(isa.Ins{Op: isa.OLoadIdx, R1: isa.ECX, R2: isa.EBX, Scale: 8, Imm: dref(bf.slotsOff)})
	emit(isa.Ins{Op: isa.OCmpImm, R1: isa.ECX, Imm: 0})
	emit(isa.Ins{Op: isa.OJe, Target: label("bf_cleanup")})
	emit(isa.Ins{Op: isa.OLoadIdx, R1: isa.EDX, R2: isa.EBX, Scale: 8, Imm: dref(bf.slotsOff + 4)})
	emit(isa.Ins{Op: isa.OLoad, R1: isa.EDI, R2: isa.ECX, Imm: 0})
	emit(isa.Ins{Op: isa.OXor, R1: isa.EDI, R2: isa.EDX})
	emit(isa.Ins{Op: isa.OStore, R1: isa.ECX, R2: isa.EDI, Imm: 0})
	emit(isa.Ins{Op: isa.OMovImm, R1: isa.EDI, Imm: 0})
	emit(isa.Ins{Op: isa.OStoreIdx, R1: isa.EDI, R2: isa.EBX, Scale: 8, Imm: dref(bf.slotsOff)})
	emit(isa.Ins{Op: isa.ORet, Label: label("bf_cleanup")})

	return bf, nil
}

// PatchAddrs converts the data-offset placeholders baked into the emitted
// code to absolute data addresses. It must run after the unit's
// instruction stream is final (data addresses depend on total text size)
// and before assembly.
func (bf *BranchFunc) PatchAddrs(u *isa.Unit) {
	for _, idx := range bf.patchIdx {
		off := u.Instrs[idx].Imm - dataRefMarker
		u.Instrs[idx].Imm = int64(isa.DataAddr(u, int(off)))
	}
}

// TamperSlot assigns one §4.3 tamper-proofing slot: when the branch
// function handles the call site hashing to index Idx, it XORs Val into
// the word at M (fixing an indirect-jump cell), then clears the slot.
type TamperSlot struct {
	Idx  uint32
	M    uint32
	XVal uint32
}

// Finalize fills the branch function's data tables. keys[i] must be the
// return address of call site i (site address + CallLen) and targets[i]
// the address the branch function must transfer that call to.
func (bf *BranchFunc) Finalize(u *isa.Unit, keys, targets []uint32, slots []TamperSlot) error {
	if len(keys) != bf.N || len(targets) != bf.N {
		return fmt.Errorf("branchfn: got %d keys / %d targets, want %d", len(keys), len(targets), bf.N)
	}
	ph, err := perfecthash.Build(keys)
	if err != nil {
		return fmt.Errorf("branchfn: perfect hash: %w", err)
	}
	if err := ph.Verify(keys); err != nil {
		return err
	}
	if int(ph.N) != bf.N || len(ph.Displacements) != bf.NB {
		return fmt.Errorf("branchfn: hash shape mismatch (n=%d nb=%d, want %d/%d)",
			ph.N, len(ph.Displacements), bf.N, bf.NB)
	}
	putWord := func(off int, v uint32) {
		u.Data[off] = byte(v)
		u.Data[off+1] = byte(v >> 8)
		u.Data[off+2] = byte(v >> 16)
		u.Data[off+3] = byte(v >> 24)
	}
	putWord(bf.seed1Off, ph.Seed1)
	putWord(bf.seed2Off, ph.Seed2)
	putWord(bf.nbOff, uint32(bf.NB))
	putWord(bf.nOff, uint32(bf.N))
	for i, d := range ph.Displacements {
		putWord(bf.dispOff+4*i, uint32(d))
	}
	for i, key := range keys {
		idx := ph.Lookup(key)
		putWord(bf.tableOff+4*int(idx), key^targets[i])
	}
	for _, s := range slots {
		if int(s.Idx) >= bf.N {
			return fmt.Errorf("branchfn: tamper slot index %d out of range", s.Idx)
		}
		putWord(bf.slotsOff+8*int(s.Idx), s.M)
		putWord(bf.slotsOff+8*int(s.Idx)+4, s.XVal)
	}
	return nil
}
