package isa

import "encoding/binary"

// Builder provides a fluent API for authoring Units (the native workload
// kernels and test programs are written with it).
type Builder struct {
	u         *Unit
	nextLabel string
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{u: &Unit{}} }

// Unit finalizes and returns the built unit.
func (b *Builder) Unit() *Unit { return b.u }

// Label attaches a name to the next emitted instruction.
func (b *Builder) Label(name string) *Builder {
	b.nextLabel = name
	return b
}

// Raw appends an arbitrary instruction.
func (b *Builder) Raw(in Ins) *Builder {
	if b.nextLabel != "" {
		in.Label = b.nextLabel
		b.nextLabel = ""
	}
	b.u.Instrs = append(b.u.Instrs, in)
	return b
}

// AllocWords reserves n 32-bit words of data section, returning the byte
// offset.
func (b *Builder) AllocWords(n int) int {
	off := len(b.u.Data)
	b.u.Data = append(b.u.Data, make([]byte, 4*n)...)
	return off
}

// SetDataWord patches a word into the data image at a byte offset.
func (b *Builder) SetDataWord(off int, v uint32) {
	binary.LittleEndian.PutUint32(b.u.Data[off:], v)
}

func (b *Builder) Nop() *Builder   { return b.Raw(Ins{Op: ONop}) }
func (b *Builder) Hlt() *Builder   { return b.Raw(Ins{Op: OHlt}) }
func (b *Builder) Ret() *Builder   { return b.Raw(Ins{Op: ORet}) }
func (b *Builder) PushF() *Builder { return b.Raw(Ins{Op: OPushF}) }
func (b *Builder) PopF() *Builder  { return b.Raw(Ins{Op: OPopF}) }

func (b *Builder) MovImm(r byte, v uint32) *Builder {
	return b.Raw(Ins{Op: OMovImm, R1: r, Imm: int64(v)})
}
func (b *Builder) MovReg(dst, src byte) *Builder {
	return b.Raw(Ins{Op: OMovReg, R1: dst, R2: src})
}
func (b *Builder) Load(dst, base byte, disp int32) *Builder {
	return b.Raw(Ins{Op: OLoad, R1: dst, R2: base, Imm: int64(disp)})
}
func (b *Builder) Store(base byte, disp int32, src byte) *Builder {
	return b.Raw(Ins{Op: OStore, R1: base, R2: src, Imm: int64(disp)})
}
func (b *Builder) LoadAbs(dst byte, addr uint32) *Builder {
	return b.Raw(Ins{Op: OLoadAbs, R1: dst, Imm: int64(addr)})
}
func (b *Builder) StoreAbs(addr uint32, src byte) *Builder {
	return b.Raw(Ins{Op: OStoreAbs, R1: src, Imm: int64(addr)})
}
func (b *Builder) LoadIdx(dst byte, base uint32, idx byte, scale byte) *Builder {
	return b.Raw(Ins{Op: OLoadIdx, R1: dst, R2: idx, Scale: scale, Imm: int64(base)})
}
func (b *Builder) StoreIdx(base uint32, idx byte, scale byte, src byte) *Builder {
	return b.Raw(Ins{Op: OStoreIdx, R1: src, R2: idx, Scale: scale, Imm: int64(base)})
}

func (b *Builder) Push(r byte) *Builder { return b.Raw(Ins{Op: OPush, R1: r}) }
func (b *Builder) Pop(r byte) *Builder  { return b.Raw(Ins{Op: OPop, R1: r}) }

func (b *Builder) Add(dst, src byte) *Builder  { return b.Raw(Ins{Op: OAdd, R1: dst, R2: src}) }
func (b *Builder) Sub(dst, src byte) *Builder  { return b.Raw(Ins{Op: OSub, R1: dst, R2: src}) }
func (b *Builder) And(dst, src byte) *Builder  { return b.Raw(Ins{Op: OAnd, R1: dst, R2: src}) }
func (b *Builder) Xor(dst, src byte) *Builder  { return b.Raw(Ins{Op: OXor, R1: dst, R2: src}) }
func (b *Builder) Mul(dst, src byte) *Builder  { return b.Raw(Ins{Op: OMul, R1: dst, R2: src}) }
func (b *Builder) UDiv(dst, src byte) *Builder { return b.Raw(Ins{Op: OUDiv, R1: dst, R2: src}) }
func (b *Builder) UMod(dst, src byte) *Builder { return b.Raw(Ins{Op: OUMod, R1: dst, R2: src}) }
func (b *Builder) Cmp(a, c byte) *Builder      { return b.Raw(Ins{Op: OCmp, R1: a, R2: c}) }

func (b *Builder) AddImm(r byte, v uint32) *Builder {
	return b.Raw(Ins{Op: OAddImm, R1: r, Imm: int64(v)})
}
func (b *Builder) SubImm(r byte, v uint32) *Builder {
	return b.Raw(Ins{Op: OSubImm, R1: r, Imm: int64(v)})
}
func (b *Builder) AndImm(r byte, v uint32) *Builder {
	return b.Raw(Ins{Op: OAndImm, R1: r, Imm: int64(v)})
}
func (b *Builder) OrImm(r byte, v uint32) *Builder {
	return b.Raw(Ins{Op: OOrImm, R1: r, Imm: int64(v)})
}
func (b *Builder) XorImm(r byte, v uint32) *Builder {
	return b.Raw(Ins{Op: OXorImm, R1: r, Imm: int64(v)})
}
func (b *Builder) MulImm(r byte, v uint32) *Builder {
	return b.Raw(Ins{Op: OMulImm, R1: r, Imm: int64(v)})
}
func (b *Builder) CmpImm(r byte, v uint32) *Builder {
	return b.Raw(Ins{Op: OCmpImm, R1: r, Imm: int64(v)})
}
func (b *Builder) ShlImm(r byte, v byte) *Builder {
	return b.Raw(Ins{Op: OShlImm, R1: r, Imm: int64(v)})
}
func (b *Builder) ShrImm(r byte, v byte) *Builder {
	return b.Raw(Ins{Op: OShrImm, R1: r, Imm: int64(v)})
}
func (b *Builder) Neg(r byte) *Builder { return b.Raw(Ins{Op: ONeg, R1: r}) }
func (b *Builder) Not(r byte) *Builder { return b.Raw(Ins{Op: ONot, R1: r}) }

func (b *Builder) Jmp(target string) *Builder { return b.Raw(Ins{Op: OJmp, Target: target}) }
func (b *Builder) Je(target string) *Builder  { return b.Raw(Ins{Op: OJe, Target: target}) }
func (b *Builder) Jne(target string) *Builder { return b.Raw(Ins{Op: OJne, Target: target}) }
func (b *Builder) Jl(target string) *Builder  { return b.Raw(Ins{Op: OJl, Target: target}) }
func (b *Builder) Jge(target string) *Builder { return b.Raw(Ins{Op: OJge, Target: target}) }
func (b *Builder) Jg(target string) *Builder  { return b.Raw(Ins{Op: OJg, Target: target}) }
func (b *Builder) Jle(target string) *Builder { return b.Raw(Ins{Op: OJle, Target: target}) }
func (b *Builder) Call(target string) *Builder {
	return b.Raw(Ins{Op: OCall, Target: target})
}
func (b *Builder) JmpInd(addr uint32) *Builder { return b.Raw(Ins{Op: OJmpInd, Imm: int64(addr)}) }
func (b *Builder) JmpReg(r byte) *Builder      { return b.Raw(Ins{Op: OJmpReg, R1: r}) }

func (b *Builder) In(r byte) *Builder  { return b.Raw(Ins{Op: OIn, R1: r}) }
func (b *Builder) Out(r byte) *Builder { return b.Raw(Ins{Op: OOut, R1: r}) }
