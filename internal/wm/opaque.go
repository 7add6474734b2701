package wm

import (
	"math/rand"

	"pathmark/internal/vm"
)

// Opaque predicates (paper §3.2.1, citing Collberg-Thomborson-Low). An
// opaquely false predicate guards the never-executed live-variable update
// appended after each piece generator, defeating naive dead-code
// elimination without affecting semantics.
//
// Each template synthesizes an instruction sequence that *pushes a value
// that is always zero* for every possible int64 input, after which the
// caller branches with ifeq (always taken) around the guarded code. All
// templates are overflow-safe: they rely only on properties preserved by
// two's-complement wraparound (divisibility by powers of two).

// opaqueZero is one "always pushes 0" template. src yields instructions
// pushing the input value x.
type opaqueZero struct {
	name string
	gen  func(src []vm.Instr) []vm.Instr
}

var opaqueZeroTemplates = []opaqueZero{
	{
		// x*(x+1) is even: (x*(x+1)) & 1 == 0. The paper's example
		// predicate x(x-1) ≡ 0 (mod 2) in bitwise form.
		name: "consecutive-product-even",
		gen: func(src []vm.Instr) []vm.Instr {
			out := append([]vm.Instr{}, src...)
			out = append(out, vm.Instr{Op: vm.OpDup},
				vm.Instr{Op: vm.OpConst, A: 1}, vm.Instr{Op: vm.OpAdd},
				vm.Instr{Op: vm.OpMul},
				vm.Instr{Op: vm.OpConst, A: 1}, vm.Instr{Op: vm.OpAnd})
			return out
		},
	},
	{
		// x² mod 4 ∈ {0,1}: ((x*x) & 3) >> 1 == 0.
		name: "square-mod-four",
		gen: func(src []vm.Instr) []vm.Instr {
			out := append([]vm.Instr{}, src...)
			out = append(out, vm.Instr{Op: vm.OpDup}, vm.Instr{Op: vm.OpMul},
				vm.Instr{Op: vm.OpConst, A: 3}, vm.Instr{Op: vm.OpAnd},
				vm.Instr{Op: vm.OpConst, A: 1}, vm.Instr{Op: vm.OpShr})
			return out
		},
	},
	{
		// One of x, x+1 has a zero low bit: (x & 1) & ((x+1) & 1) == 0.
		name: "parity-pair",
		gen: func(src []vm.Instr) []vm.Instr {
			out := append([]vm.Instr{}, src...)
			out = append(out, vm.Instr{Op: vm.OpDup},
				vm.Instr{Op: vm.OpConst, A: 1}, vm.Instr{Op: vm.OpAnd},
				vm.Instr{Op: vm.OpSwap},
				vm.Instr{Op: vm.OpConst, A: 1}, vm.Instr{Op: vm.OpAdd},
				vm.Instr{Op: vm.OpConst, A: 1}, vm.Instr{Op: vm.OpAnd},
				vm.Instr{Op: vm.OpAnd})
			return out
		},
	},
	{
		// x²+x ≡ 0 (mod 2), via shifted mask: ((x*x + x) & 1) == 0.
		name: "square-plus-x-even",
		gen: func(src []vm.Instr) []vm.Instr {
			out := append([]vm.Instr{}, src...)
			out = append(out, vm.Instr{Op: vm.OpDup}, vm.Instr{Op: vm.OpDup},
				vm.Instr{Op: vm.OpMul}, vm.Instr{Op: vm.OpAdd},
				vm.Instr{Op: vm.OpConst, A: 1}, vm.Instr{Op: vm.OpAnd})
			return out
		},
	},
	{
		// With t = x*(x+1) (always even, t = 2m), t*(t+2) = 4m(m+1) is
		// divisible by 8, so (t*(t+2) & 4) >> 2 == 0 — and divisibility by
		// powers of two survives two's-complement wraparound.
		name: "even-product-chain",
		gen: func(src []vm.Instr) []vm.Instr {
			out := append([]vm.Instr{}, src...)
			out = append(out,
				vm.Instr{Op: vm.OpDup}, vm.Instr{Op: vm.OpConst, A: 1}, vm.Instr{Op: vm.OpAdd},
				vm.Instr{Op: vm.OpMul},
				vm.Instr{Op: vm.OpDup}, vm.Instr{Op: vm.OpConst, A: 2}, vm.Instr{Op: vm.OpAdd},
				vm.Instr{Op: vm.OpMul},
				vm.Instr{Op: vm.OpConst, A: 4}, vm.Instr{Op: vm.OpAnd},
				vm.Instr{Op: vm.OpConst, A: 2}, vm.Instr{Op: vm.OpShr})
			return out
		},
	},
}

// OpaqueFalseGuard emits instructions that evaluate an opaquely false
// predicate on the value produced by src and, when (never) true, execute
// the guarded instructions. Layout, with `at` the method-relative index of
// the first emitted instruction:
//
//	<zero-producing predicate over src>
//	ifeq END     ; always taken
//	<guarded>    ; never executed, defeats naive liveness-based removal
//	END:
//
// The ifeq is a conditional branch and therefore emits trace bits, but
// always in the same direction, contributing constant 0s after the piece.
func OpaqueFalseGuard(rng *rand.Rand, at int, src, guarded []vm.Instr) []vm.Instr {
	tmpl := opaqueZeroTemplates[rng.Intn(len(opaqueZeroTemplates))]
	pred := tmpl.gen(src)
	out := append([]vm.Instr{}, pred...)
	end := at + len(pred) + 1 + len(guarded)
	out = append(out, vm.Instr{Op: vm.OpIfEq, Target: int32(end)})
	out = append(out, guarded...)
	return out
}

// opaqueZeroValue mirrors each template in Go for the property tests: the
// value the emitted code would push for input x. Kept in lockstep with
// opaqueZeroTemplates by index.
func opaqueZeroValue(template int, x int64) int64 {
	switch template {
	case 0:
		return (x * (x + 1)) & 1
	case 1:
		return ((x * x) & 3) >> 1
	case 2:
		return (x & 1) & ((x + 1) & 1)
	case 3:
		return (x*x + x) & 1
	case 4:
		t := x * (x + 1)
		return (t * (t + 2) & 4) >> 2
	default:
		panic("wm: unknown opaque template")
	}
}
