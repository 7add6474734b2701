// Package vm implements the Java-bytecode-like stack virtual machine that
// plays the role of the JVM in this reproduction (paper §3). It provides:
//
//   - an integer stack ISA with locals, static fields, arrays, method
//     calls, and the conditional branches the watermark lives in,
//   - a program/method model designed for code insertion (the embedder) and
//     semantics-preserving transformation (the attack suite),
//   - a textual assembler and disassembler,
//   - a structural + stack-discipline verifier,
//   - basic-block CFGs,
//   - an interpreter with step accounting and an execution tracer that
//     records block entries, conditional-branch executions, and variable
//     snapshots (the information SandMark's tracing phase collects), and
//     a bit-sink mode that yields only the §3.1 bit-string.
package vm

import "fmt"

// Op is an instruction opcode.
type Op uint8

// The instruction set. Conditional branches pop one value (IfXX) or two
// values (IfCmpXX, comparing a OP b where b is on top) and transfer to
// Instr.Target when the condition holds; execution otherwise falls through.
const (
	OpNop Op = iota

	// Stack and data movement.
	OpConst     // push A
	OpLoad      // push locals[A]
	OpStore     // locals[A] = pop
	OpGetStatic // push statics[A]
	OpPutStatic // statics[A] = pop
	OpDup       // duplicate top of stack
	OpPop       // discard top of stack
	OpSwap      // swap the two topmost values

	// Arithmetic and logic. Binary ops pop b then a, push a OP b.
	OpAdd
	OpSub
	OpMul
	OpDiv // traps on division by zero
	OpRem // traps on division by zero
	OpNeg // unary negate
	OpAnd
	OpOr
	OpXor
	OpShl // a << (b & 63)
	OpShr // arithmetic a >> (b & 63)

	// Single-operand conditional branches: pop v, branch if v OP 0.
	OpIfEq
	OpIfNe
	OpIfLt
	OpIfGe
	OpIfGt
	OpIfLe

	// Two-operand conditional branches: pop b, pop a, branch if a OP b.
	OpIfCmpEq
	OpIfCmpNe
	OpIfCmpLt
	OpIfCmpGe
	OpIfCmpGt
	OpIfCmpLe

	// Unconditional control flow.
	OpGoto
	OpCall // invoke method A: pops NArgs arguments (last on top), pushes the return value
	OpRet  // return pop() to the caller

	// Arrays. References are opaque non-zero handles; index errors trap.
	OpNewArr // pop n, allocate array of n zeros, push ref
	OpALoad  // pop i, pop ref, push ref[i]
	OpAStore // pop v, pop i, pop ref, ref[i] = v
	OpArrLen // pop ref, push length

	// Environment.
	OpIn    // push the next value of the (secret) input sequence; 0 when exhausted
	OpPrint // pop v, append v to the program output

	opCount // sentinel
)

var opNames = [...]string{
	OpNop:       "nop",
	OpConst:     "const",
	OpLoad:      "load",
	OpStore:     "store",
	OpGetStatic: "getstatic",
	OpPutStatic: "putstatic",
	OpDup:       "dup",
	OpPop:       "pop",
	OpSwap:      "swap",
	OpAdd:       "add",
	OpSub:       "sub",
	OpMul:       "mul",
	OpDiv:       "div",
	OpRem:       "rem",
	OpNeg:       "neg",
	OpAnd:       "and",
	OpOr:        "or",
	OpXor:       "xor",
	OpShl:       "shl",
	OpShr:       "shr",
	OpIfEq:      "ifeq",
	OpIfNe:      "ifne",
	OpIfLt:      "iflt",
	OpIfGe:      "ifge",
	OpIfGt:      "ifgt",
	OpIfLe:      "ifle",
	OpIfCmpEq:   "ifcmpeq",
	OpIfCmpNe:   "ifcmpne",
	OpIfCmpLt:   "ifcmplt",
	OpIfCmpGe:   "ifcmpge",
	OpIfCmpGt:   "ifcmpgt",
	OpIfCmpLe:   "ifcmple",
	OpGoto:      "goto",
	OpCall:      "call",
	OpRet:       "ret",
	OpNewArr:    "newarr",
	OpALoad:     "aload",
	OpAStore:    "astore",
	OpArrLen:    "arrlen",
	OpIn:        "in",
	OpPrint:     "print",
}

// String returns the assembler mnemonic of the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsCondBranch reports whether the opcode is a conditional branch — the
// instructions whose dynamic behavior carries the watermark.
func (o Op) IsCondBranch() bool {
	return o >= OpIfEq && o <= OpIfCmpLe
}

// IsBranch reports whether the opcode transfers control via Instr.Target.
func (o Op) IsBranch() bool { return o.IsCondBranch() || o == OpGoto }

// IsBlockEnd reports whether the opcode terminates a basic block.
func (o Op) IsBlockEnd() bool { return o.IsBranch() || o == OpRet }

// NegateCond returns the conditional branch with the opposite condition
// (ifeq <-> ifne, iflt <-> ifge, ...). It panics for non-conditional ops.
func NegateCond(o Op) Op {
	switch o {
	case OpIfEq:
		return OpIfNe
	case OpIfNe:
		return OpIfEq
	case OpIfLt:
		return OpIfGe
	case OpIfGe:
		return OpIfLt
	case OpIfGt:
		return OpIfLe
	case OpIfLe:
		return OpIfGt
	case OpIfCmpEq:
		return OpIfCmpNe
	case OpIfCmpNe:
		return OpIfCmpEq
	case OpIfCmpLt:
		return OpIfCmpGe
	case OpIfCmpGe:
		return OpIfCmpLt
	case OpIfCmpGt:
		return OpIfCmpLe
	case OpIfCmpLe:
		return OpIfCmpGt
	}
	panic(fmt.Sprintf("vm: NegateCond(%v) on non-conditional opcode", o))
}

// StackEffect returns the (pops, pushes) stack effect of an opcode. OpCall
// is the one opcode whose pop count depends on context (the callee's
// NArgs); for it this function reports the push count only and 0 pops.
// Exported for transformation passes that do their own stack analysis.
func StackEffect(o Op) (pops, pushes int) {
	if o == OpCall {
		return 0, 1
	}
	return stackEffect(o)
}

// stackEffect returns (pops, pushes) for the opcode, with call handled
// separately by the verifier.
func stackEffect(o Op) (pops, pushes int) {
	switch o {
	case OpNop, OpGoto:
		return 0, 0
	case OpConst, OpLoad, OpGetStatic, OpIn:
		return 0, 1
	case OpStore, OpPutStatic, OpPop, OpPrint, OpRet:
		return 1, 0
	case OpDup:
		return 1, 2
	case OpSwap:
		return 2, 2
	case OpNeg, OpNewArr, OpArrLen:
		return 1, 1
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr, OpALoad:
		return 2, 1
	case OpIfEq, OpIfNe, OpIfLt, OpIfGe, OpIfGt, OpIfLe:
		return 1, 0
	case OpIfCmpEq, OpIfCmpNe, OpIfCmpLt, OpIfCmpGe, OpIfCmpGt, OpIfCmpLe:
		return 2, 0
	case OpAStore:
		return 3, 0
	}
	panic(fmt.Sprintf("vm: stackEffect(%v) unhandled", o))
}
