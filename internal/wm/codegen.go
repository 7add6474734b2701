package wm

import (
	"math/rand"

	"pathmark/internal/vm"
)

// GeneratorKind identifies which §3.2 code generator produced a piece.
type GeneratorKind int

const (
	// GenLoop is the loop code generator (§3.2.1) in its rolled form — the
	// paper's ~25-60 bytes per piece: a two-pass loop over 64 iterations
	// whose single inner test emits one payload bit per iteration. The
	// loop-control branch interleaves a constant bit between payload bits,
	// so the piece appears contiguously in one of the bit-string's two
	// stride-2 phases, which the recognizer scans alongside the full
	// string.
	GenLoop GeneratorKind = iota
	// GenLoopUnrolled is the same two-pass scheme with the 64 tests fully
	// unrolled into straight-line code: larger footprint, but the piece is
	// contiguous in the plain (stride-1) bit-string. Kept as an alternate
	// shape per §3.2's "several methods of generating code should be
	// available to prevent pattern matching attacks".
	GenLoopUnrolled
	// GenCondition is the condition code generator (§3.2.2): straight-line
	// predicates over traced program variables at a location executed at
	// least twice on the secret input; the first execution primes, the
	// second emits the piece.
	GenCondition
)

func (g GeneratorKind) String() string {
	switch g {
	case GenLoop:
		return "loop"
	case GenLoopUnrolled:
		return "loop-unrolled"
	default:
		return "condition"
	}
}

// hostEnv describes the insertion site's surrounding method and program,
// plus the variable snapshots the tracer captured there.
type hostEnv struct {
	prog   *vm.Program
	method *vm.Method
	// original sizes, before the embedder added its own variables: only
	// variables below these bounds belong to the host program.
	origLocals  int
	origStatics int
	snaps       []vm.Snapshot // first and second execution, if available
}

// pickLiveTarget returns instructions performing "live += delta" against a
// host variable (for the opaquely-false guard). loadDelta pushes the delta.
func pickLiveTarget(rng *rand.Rand, env *hostEnv, loadDelta []vm.Instr) []vm.Instr {
	if env.origLocals > 0 {
		idx := int64(rng.Intn(env.origLocals))
		out := []vm.Instr{{Op: vm.OpLoad, A: idx}}
		out = append(out, loadDelta...)
		return append(out, vm.Instr{Op: vm.OpAdd}, vm.Instr{Op: vm.OpStore, A: idx})
	}
	if env.origStatics > 0 {
		idx := int64(rng.Intn(env.origStatics))
		out := []vm.Instr{{Op: vm.OpGetStatic, A: idx}}
		out = append(out, loadDelta...)
		return append(out, vm.Instr{Op: vm.OpAdd}, vm.Instr{Op: vm.OpPutStatic, A: idx})
	}
	// Degenerate host with no variables at all: self-assignment.
	out := append([]vm.Instr{}, loadDelta...)
	return append(out, vm.Instr{Op: vm.OpPop})
}

// opaqueSrc returns instructions pushing an arbitrary host value for the
// opaque predicate input.
func opaqueSrc(rng *rand.Rand, env *hostEnv) []vm.Instr {
	if env.origLocals > 0 {
		return []vm.Instr{{Op: vm.OpLoad, A: int64(rng.Intn(env.origLocals))}}
	}
	if env.origStatics > 0 {
		return []vm.Instr{{Op: vm.OpGetStatic, A: int64(rng.Intn(env.origStatics))}}
	}
	return []vm.Instr{{Op: vm.OpConst, A: int64(rng.Intn(1 << 16))}}
}

// genRolledLoopPiece emits the rolled loop generator (§3.2.1) at
// method-relative index `at`:
//
//	v, i, s, j := fresh locals
//	  v = 0; i = 0; s = 0
//	L:
//	  if (v & 1) == 0 goto SK   ; the payload branch: pass 1 primes (v=0),
//	  j++                       ; pass 2 follows the bits of the piece
//	SK:
//	  v >>= 1; i++
//	  if i < 64 goto L          ; loop control: constant direction + exit
//	  v = piece; i = 0; s++
//	  if s < 2 goto L
//	  if OPAQUELY_FALSE { live += j }
//
// The taken and fall-through arms must stay distinct blocks for the trace
// decode rule to see the branch direction, so the fall-through arm does
// real work (j++) whose result the opaquely-false guard keeps live — a
// peephole pass can neither delete the arm as a no-op nor dead-code-
// eliminate j.
//
// Per iteration the trace gains [payload bit, control bit]; pass 2's 64
// payload bits therefore occupy one stride-2 phase of the decoded
// bit-string contiguously.
func genRolledLoopPiece(rng *rand.Rand, env *hostEnv, at int, piece uint64) []vm.Instr {
	v := int64(env.method.AllocLocal())
	i := int64(env.method.AllocLocal())
	s := int64(env.method.AllocLocal())
	j := int64(env.method.AllocLocal())

	var code []vm.Instr
	emit := func(ins ...vm.Instr) { code = append(code, ins...) }

	emit(vm.Instr{Op: vm.OpConst, A: 0}, vm.Instr{Op: vm.OpStore, A: v})
	emit(vm.Instr{Op: vm.OpConst, A: 0}, vm.Instr{Op: vm.OpStore, A: i})
	emit(vm.Instr{Op: vm.OpConst, A: 0}, vm.Instr{Op: vm.OpStore, A: s})
	loopHead := at + len(code)
	// if (v & 1) == 0 goto SK ; j++ ; SK:
	skip := loopHead + 8
	emit(vm.Instr{Op: vm.OpLoad, A: v},
		vm.Instr{Op: vm.OpConst, A: 1},
		vm.Instr{Op: vm.OpAnd},
		vm.Instr{Op: vm.OpIfEq, Target: int32(skip)},
		vm.Instr{Op: vm.OpLoad, A: j},
		vm.Instr{Op: vm.OpConst, A: 1},
		vm.Instr{Op: vm.OpAdd},
		vm.Instr{Op: vm.OpStore, A: j})
	// SK: v >>= 1; i++
	emit(vm.Instr{Op: vm.OpLoad, A: v},
		vm.Instr{Op: vm.OpConst, A: 1},
		vm.Instr{Op: vm.OpShr},
		vm.Instr{Op: vm.OpStore, A: v})
	emit(vm.Instr{Op: vm.OpLoad, A: i},
		vm.Instr{Op: vm.OpConst, A: 1},
		vm.Instr{Op: vm.OpAdd},
		vm.Instr{Op: vm.OpStore, A: i})
	// if i < 64 goto L
	emit(vm.Instr{Op: vm.OpLoad, A: i},
		vm.Instr{Op: vm.OpConst, A: 64},
		vm.Instr{Op: vm.OpIfCmpLt, Target: int32(loopHead)})
	// v = piece; i = 0; s++
	emit(vm.Instr{Op: vm.OpConst, A: int64(piece)}, vm.Instr{Op: vm.OpStore, A: v})
	emit(vm.Instr{Op: vm.OpConst, A: 0}, vm.Instr{Op: vm.OpStore, A: i})
	emit(vm.Instr{Op: vm.OpLoad, A: s},
		vm.Instr{Op: vm.OpConst, A: 1},
		vm.Instr{Op: vm.OpAdd},
		vm.Instr{Op: vm.OpStore, A: s})
	// if s < 2 goto L
	emit(vm.Instr{Op: vm.OpLoad, A: s},
		vm.Instr{Op: vm.OpConst, A: 2},
		vm.Instr{Op: vm.OpIfCmpLt, Target: int32(loopHead)})

	guarded := pickLiveTarget(rng, env, []vm.Instr{{Op: vm.OpLoad, A: j}})
	code = append(code, OpaqueFalseGuard(rng, at+len(code), opaqueSrc(rng, env), guarded)...)
	return code
}

// genLoopPiece emits the unrolled loop generator for the encrypted piece
// value at method-relative insertion index `at`. Layout:
//
//	v, s, j := fresh locals (zero on frame entry; explicitly reset so the
//	           emission replays identically if the host block re-executes)
//	  v = 0; s = 0
//	L:
//	  64 × { if v&1 == 0 goto skip_t   ; pass 1 primes: always taken
//	         j++                        ; pass 2: runs when piece bit is 1
//	  skip_t: v >>= 1 }
//	  v = piece; s++
//	  if s < 2 goto L
//	  if OPAQUELY_FALSE { live += j }
//
// Pass 1 (v = 0) establishes every test's first-occurrence successor; the
// trace decode rule therefore maps pass 2's directions to exactly the 64
// piece bits, least significant first, contiguously (no other conditional
// branch executes between the tests of one pass).
func genLoopPiece(rng *rand.Rand, env *hostEnv, at int, piece uint64) []vm.Instr {
	v := int64(env.method.AllocLocal())
	s := int64(env.method.AllocLocal())
	j := int64(env.method.AllocLocal())

	// Sized for the 64 unrolled bit tests and what surrounds them.
	code := make([]vm.Instr, 0, 64*12+64)
	emit := func(ins ...vm.Instr) { code = append(code, ins...) }

	// v = 0; s = 0
	emit(vm.Instr{Op: vm.OpConst, A: 0}, vm.Instr{Op: vm.OpStore, A: v})
	emit(vm.Instr{Op: vm.OpConst, A: 0}, vm.Instr{Op: vm.OpStore, A: s})
	loopHead := at + len(code)
	for t := 0; t < 64; t++ {
		// if (v & 1) == 0 goto skip  (3 + 1 instrs), then j++ (4), skip: v >>= 1 (4)
		testStart := at + len(code)
		skip := testStart + 8
		emit(vm.Instr{Op: vm.OpLoad, A: v},
			vm.Instr{Op: vm.OpConst, A: 1},
			vm.Instr{Op: vm.OpAnd},
			vm.Instr{Op: vm.OpIfEq, Target: int32(skip)})
		emit(vm.Instr{Op: vm.OpLoad, A: j},
			vm.Instr{Op: vm.OpConst, A: 1},
			vm.Instr{Op: vm.OpAdd},
			vm.Instr{Op: vm.OpStore, A: j})
		// skip:
		emit(vm.Instr{Op: vm.OpLoad, A: v},
			vm.Instr{Op: vm.OpConst, A: 1},
			vm.Instr{Op: vm.OpShr},
			vm.Instr{Op: vm.OpStore, A: v})
	}
	// v = piece; s++; if s < 2 goto L
	emit(vm.Instr{Op: vm.OpConst, A: int64(piece)}, vm.Instr{Op: vm.OpStore, A: v})
	emit(vm.Instr{Op: vm.OpLoad, A: s},
		vm.Instr{Op: vm.OpConst, A: 1},
		vm.Instr{Op: vm.OpAdd},
		vm.Instr{Op: vm.OpStore, A: s})
	emit(vm.Instr{Op: vm.OpLoad, A: s},
		vm.Instr{Op: vm.OpConst, A: 2},
		vm.Instr{Op: vm.OpIfCmpLt, Target: int32(loopHead)})

	guarded := pickLiveTarget(rng, env, []vm.Instr{{Op: vm.OpLoad, A: j}})
	code = append(code, OpaqueFalseGuard(rng, at+len(code), opaqueSrc(rng, env), guarded)...)
	return code
}

// genConditionPiece emits the condition generator at a site whose traced
// block executed at least twice. For each piece bit it synthesizes a
// predicate whose truth value differs between the first and second
// execution exactly when the bit is 1:
//
//   - from a traced host variable whose first/second snapshot values allow
//     it (`if var == firstValue`), preferred for stealth, or
//   - from a fresh static pass counter c (incremented at the end of the
//     inserted code): `if c == 0` flips, `if c >= 0` stays.
//
// The first execution primes every test; the second emits the piece bits
// contiguously (all tests are straight-line). Later executions re-emit
// whatever the predicates evaluate to — garbage for the recognizer's
// window scan, which simply ignores it.
func genConditionPiece(rng *rand.Rand, env *hostEnv, at int, piece uint64) []vm.Instr {
	c := int64(env.prog.AllocStatic())
	tmp := int64(env.method.AllocLocal())

	type hostPred struct {
		load vm.Instr // pushes the variable
		val  int64    // its value at the first execution
	}
	var flipping, stable []hostPred
	if len(env.snaps) >= 2 {
		s1, s2 := env.snaps[0], env.snaps[1]
		for i := 0; i < env.origLocals && i < len(s1.Locals) && i < len(s2.Locals); i++ {
			p := hostPred{load: vm.Instr{Op: vm.OpLoad, A: int64(i)}, val: s1.Locals[i]}
			if s1.Locals[i] != s2.Locals[i] {
				flipping = append(flipping, p)
			} else {
				stable = append(stable, p)
			}
		}
		for i := 0; i < env.origStatics && i < len(s1.Statics) && i < len(s2.Statics); i++ {
			p := hostPred{load: vm.Instr{Op: vm.OpGetStatic, A: int64(i)}, val: s1.Statics[i]}
			if s1.Statics[i] != s2.Statics[i] {
				flipping = append(flipping, p)
			} else {
				stable = append(stable, p)
			}
		}
	}

	var code []vm.Instr
	emit := func(ins ...vm.Instr) { code = append(code, ins...) }

	for t := 0; t < 64; t++ {
		bit := piece>>uint(t)&1 == 1
		// Choose the predicate: host variable when available (and chosen),
		// else the counter fallback.
		useHost := false
		if bit && len(flipping) > 0 {
			useHost = rng.Intn(2) == 0
		} else if !bit && len(stable) > 0 {
			useHost = rng.Intn(2) == 0
		}
		var pred []vm.Instr // ends with a conditional branch; Target patched below
		if useHost && bit {
			p := flipping[rng.Intn(len(flipping))]
			pred = []vm.Instr{p.load, {Op: vm.OpConst, A: p.val}, {Op: vm.OpIfCmpEq}}
		} else if useHost {
			p := stable[rng.Intn(len(stable))]
			pred = []vm.Instr{p.load, {Op: vm.OpConst, A: p.val}, {Op: vm.OpIfCmpEq}}
		} else if bit {
			pred = []vm.Instr{{Op: vm.OpGetStatic, A: c}, {Op: vm.OpIfEq}}
		} else {
			pred = []vm.Instr{{Op: vm.OpGetStatic, A: c}, {Op: vm.OpIfGe}}
		}
		// Layout: <pred branch -> skip>  tmp++  skip:
		branchAt := at + len(code) + len(pred) - 1
		pred[len(pred)-1].Target = int32(branchAt + 1 + 4)
		emit(pred...)
		emit(vm.Instr{Op: vm.OpLoad, A: tmp},
			vm.Instr{Op: vm.OpConst, A: 1},
			vm.Instr{Op: vm.OpAdd},
			vm.Instr{Op: vm.OpStore, A: tmp})
	}
	// c++
	emit(vm.Instr{Op: vm.OpGetStatic, A: c},
		vm.Instr{Op: vm.OpConst, A: 1},
		vm.Instr{Op: vm.OpAdd},
		vm.Instr{Op: vm.OpPutStatic, A: c})
	guarded := pickLiveTarget(rng, env, []vm.Instr{{Op: vm.OpLoad, A: tmp}})
	code = append(code, OpaqueFalseGuard(rng, at+len(code), opaqueSrc(rng, env), guarded)...)
	return code
}
