// Package isa implements the IA-32-flavored native substrate for the
// paper's §4: a 32-bit byte-addressed machine with variable-length
// instruction encodings, a stack-based call/ret discipline that passes the
// return address on the stack (the property branch functions exploit), a
// data section for the perfect-hash and XOR tables, indirect jumps through
// memory (the tamper-proofing hook), an assembler that resolves symbolic
// labels to relative displacements, a disassembler, a single-stepping CPU
// simulator, and an execution profiler.
//
// Programs are authored and transformed as Units — instruction lists with
// symbolic branch targets, the representation a binary rewriter like PLTO
// works on — and assembled into Images with concrete addresses. Attacks
// reassemble Units: like a real rewriter they fix every *visible* relative
// target but cannot know that words in the data section encode text
// addresses, which is exactly why address-shifting attacks break
// branch-function watermarks (§4.3, §5.2.2).
package isa

import "fmt"

// Op is a native opcode.
type Op byte

// The native instruction set. Loads and stores move 32-bit little-endian
// words. Conditions use the ZF/LT flags set by Cmp/CmpImm (and by
// arithmetic ops, which set them from their result).
const (
	ONop Op = iota
	OHlt

	OMovImm // R1 <- Imm
	OMovReg // R1 <- R2
	OLoad   // R1 <- mem[R2 + Imm]
	OStore  // mem[R1 + Imm] <- R2
	OLoadAbs
	OStoreAbs
	OLoadIdx  // R1 <- mem[Imm + R2*Scale]
	OStoreIdx // mem[Imm + R2*Scale] <- R1

	OPush
	OPop
	OPushF
	OPopF

	OAdd
	OSub
	OAnd
	OOr
	OXor
	OMul
	OUDiv
	OUMod
	OCmp
	OAddImm
	OSubImm
	OAndImm
	OOrImm
	OXorImm
	OMulImm
	OCmpImm
	OShlImm
	OShrImm
	ONeg
	ONot

	OJmp
	OJe
	OJne
	OJl
	OJge
	OJg
	OJle
	OCall
	ORet
	OJmpInd // jmp through mem[Imm]
	OJmpReg // jmp through R1

	OIn  // R1 <- next input value (0 when exhausted)
	OOut // append R1 to the program output

	opCount
)

var opNames = [...]string{
	ONop: "nop", OHlt: "hlt",
	OMovImm: "mov", OMovReg: "movr", OLoad: "load", OStore: "store",
	OLoadAbs: "loadabs", OStoreAbs: "storeabs", OLoadIdx: "loadidx", OStoreIdx: "storeidx",
	OPush: "push", OPop: "pop", OPushF: "pushf", OPopF: "popf",
	OAdd: "add", OSub: "sub", OAnd: "and", OOr: "or", OXor: "xor",
	OMul: "mul", OUDiv: "udiv", OUMod: "umod", OCmp: "cmp",
	OAddImm: "addi", OSubImm: "subi", OAndImm: "andi", OOrImm: "ori",
	OXorImm: "xori", OMulImm: "muli", OCmpImm: "cmpi",
	OShlImm: "shl", OShrImm: "shr", ONeg: "neg", ONot: "not",
	OJmp: "jmp", OJe: "je", OJne: "jne", OJl: "jl", OJge: "jge",
	OJg: "jg", OJle: "jle", OCall: "call", ORet: "ret",
	OJmpInd: "jmpind", OJmpReg: "jmpreg",
	OIn: "in", OOut: "out",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// IsJcc reports whether the opcode is a conditional jump.
func (o Op) IsJcc() bool { return o >= OJe && o <= OJle }

// IsUncond reports whether the opcode unconditionally leaves the
// instruction (no fall-through): jmp, ret, hlt, indirect jumps.
func (o Op) IsUncond() bool {
	switch o {
	case OJmp, ORet, OHlt, OJmpInd, OJmpReg:
		return true
	}
	return false
}

// HasRelTarget reports whether the opcode encodes a label-relative target.
func (o Op) HasRelTarget() bool { return o.IsJcc() || o == OJmp || o == OCall }

// NegateJcc flips a conditional jump's sense.
func NegateJcc(o Op) Op {
	switch o {
	case OJe:
		return OJne
	case OJne:
		return OJe
	case OJl:
		return OJge
	case OJge:
		return OJl
	case OJg:
		return OJle
	case OJle:
		return OJg
	}
	panic("isa: NegateJcc on non-conditional opcode")
}

// Registers.
const (
	EAX byte = iota
	EBX
	ECX
	EDX
	ESI
	EDI
	EBP
	ESP
	numRegs
)

var regNames = [...]string{"eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp"}

// RegName returns the register's assembly name.
func RegName(r byte) string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r%d", r)
}

// Ins is one instruction in Unit (pre-assembly) form. Branch-type
// instructions carry a symbolic Target resolved at assembly time; Label
// optionally names the instruction's own position.
type Ins struct {
	Op     Op
	R1, R2 byte
	Scale  byte
	Imm    int64  // immediate / displacement / absolute address
	Target string // symbolic target for jmp/jcc/call
	Label  string // symbolic name of this instruction's address
}

func (in Ins) String() string {
	switch in.Op {
	case ONop, OHlt, ORet, OPushF, OPopF:
		return in.Op.String()
	case OMovImm, OAddImm, OSubImm, OAndImm, OOrImm, OXorImm, OMulImm, OCmpImm, OShlImm, OShrImm:
		return fmt.Sprintf("%s %s, %d", in.Op, RegName(in.R1), in.Imm)
	case OMovReg, OAdd, OSub, OAnd, OOr, OXor, OMul, OUDiv, OUMod, OCmp:
		return fmt.Sprintf("%s %s, %s", in.Op, RegName(in.R1), RegName(in.R2))
	case OLoad:
		return fmt.Sprintf("load %s, [%s%+d]", RegName(in.R1), RegName(in.R2), in.Imm)
	case OStore:
		return fmt.Sprintf("store [%s%+d], %s", RegName(in.R1), in.Imm, RegName(in.R2))
	case OLoadAbs:
		return fmt.Sprintf("loadabs %s, [%#x]", RegName(in.R1), uint32(in.Imm))
	case OStoreAbs:
		return fmt.Sprintf("storeabs [%#x], %s", uint32(in.Imm), RegName(in.R1))
	case OLoadIdx:
		return fmt.Sprintf("loadidx %s, [%#x + %s*%d]", RegName(in.R1), uint32(in.Imm), RegName(in.R2), in.Scale)
	case OStoreIdx:
		return fmt.Sprintf("storeidx [%#x + %s*%d], %s", uint32(in.Imm), RegName(in.R2), in.Scale, RegName(in.R1))
	case OPush, OPop, ONeg, ONot, OIn, OOut, OJmpReg:
		return fmt.Sprintf("%s %s", in.Op, RegName(in.R1))
	case OJmpInd:
		return fmt.Sprintf("jmpind [%#x]", uint32(in.Imm))
	case OJmp, OJe, OJne, OJl, OJge, OJg, OJle, OCall:
		if in.Target != "" {
			return fmt.Sprintf("%s %s", in.Op, in.Target)
		}
		return fmt.Sprintf("%s %+d", in.Op, in.Imm)
	}
	return in.Op.String()
}

// Size returns the encoded byte length of the instruction — variable by
// opcode, so code insertion shifts the addresses of everything after it.
func (in Ins) Size() uint32 {
	switch in.Op {
	case ONop, OHlt, ORet, OPushF, OPopF:
		return 1
	case OPush, OPop, ONeg, ONot, OIn, OOut, OJmpReg:
		return 2
	case OMovReg, OAdd, OSub, OAnd, OOr, OXor, OMul, OUDiv, OUMod, OCmp, OShlImm, OShrImm:
		return 3
	case OJmp, OJe, OJne, OJl, OJge, OJg, OJle, OCall:
		return 5
	case OMovImm, OLoadAbs, OStoreAbs, OJmpInd:
		return 6
	case OLoad, OStore, OAddImm, OSubImm, OAndImm, OOrImm, OXorImm, OMulImm, OCmpImm:
		return 7
	case OLoadIdx, OStoreIdx:
		return 8
	}
	panic(fmt.Sprintf("isa: Size of invalid opcode %d", in.Op))
}

// Unit is a relocatable program: instructions with symbolic targets plus
// an initial data-section image. This is the representation transformers
// (the watermark embedder and the attack suite) operate on.
type Unit struct {
	Instrs []Ins
	Data   []byte
}

// Clone deep-copies the unit.
func (u *Unit) Clone() *Unit {
	return &Unit{
		Instrs: append([]Ins(nil), u.Instrs...),
		Data:   append([]byte(nil), u.Data...),
	}
}

// FindLabel returns the index of the instruction carrying the label, or -1.
func (u *Unit) FindLabel(label string) int {
	for i, in := range u.Instrs {
		if in.Label == label {
			return i
		}
	}
	return -1
}

// TextSize returns the total encoded size of the instruction stream.
func (u *Unit) TextSize() uint32 {
	var n uint32
	for _, in := range u.Instrs {
		n += in.Size()
	}
	return n
}
