package attacks

import (
	"math/rand"

	"pathmark/internal/vm"
)

// controlFlowFlattening rewrites every eligible method into dispatch-loop
// form: a state variable selects the next basic block through a chain of
// comparisons, and every original control transfer becomes a state update
// plus a jump back to the dispatcher.
//
// This is the repository's analog of the paper's *class encryption* attack
// (§5.1.2): class encryption hides the real bytecode from the instrumenter
// so the collected trace no longer reflects the program's branching;
// flattening achieves the equivalent effect on our VM — the trace becomes
// dominated by dispatcher comparisons interleaved between all original
// branches, so no watermark piece survives contiguously. Like class
// encryption, it destroys the watermark while preserving semantics.
//
// Methods whose flattened form would not verify (e.g. a block boundary is
// reached with operands on the evaluation stack) are left unchanged.
func controlFlowFlattening(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	for _, m := range q.Methods {
		saved := append([]vm.Instr(nil), m.Code...)
		savedLocals := m.NLocals
		if !flattenMethod(m, rng) {
			continue
		}
		if vm.Verify(q) != nil {
			m.Code = saved
			m.NLocals = savedLocals
		}
	}
	return mustVerify(q)
}

// flattenMethod rewrites m in place; it reports false when the method is
// too small to bother with.
func flattenMethod(m *vm.Method, rng *rand.Rand) bool {
	cfg := vm.BuildCFG(m)
	nb := cfg.NumBlocks()
	if nb < 2 {
		return false
	}
	state := int64(m.AllocLocal())
	// Shuffle case order so the dispatcher does not reveal block order.
	order := rng.Perm(nb)

	var code []vm.Instr
	code = append(code,
		vm.Instr{Op: vm.OpConst, A: 0},
		vm.Instr{Op: vm.OpStore, A: state})
	dispatch := len(code)
	type patch struct {
		pos   int
		block int
	}
	var patches []patch
	for _, bi := range order {
		code = append(code, vm.Instr{Op: vm.OpLoad, A: state})
		code = append(code, vm.Instr{Op: vm.OpConst, A: int64(bi)})
		patches = append(patches, patch{pos: len(code), block: bi})
		code = append(code, vm.Instr{Op: vm.OpIfCmpEq})
	}
	// Fallback (unreachable in practice): spin on the dispatcher.
	code = append(code, vm.Instr{Op: vm.OpGoto, Target: int32(dispatch)})

	setStateAndDispatch := func(next int) []vm.Instr {
		return []vm.Instr{
			{Op: vm.OpConst, A: int64(next)},
			{Op: vm.OpStore, A: state},
			{Op: vm.OpGoto, Target: int32(dispatch)},
		}
	}

	blockStart := make([]int, nb)
	for _, bi := range order {
		b := cfg.Blocks[bi]
		blockStart[bi] = len(code)
		last := m.Code[b.End-1]
		bodyEnd := b.End
		if last.Op.IsBranch() {
			bodyEnd-- // the terminator is rewritten below
		}
		for pc := b.Start; pc < bodyEnd; pc++ {
			code = append(code, m.Code[pc])
		}
		switch {
		case last.Op == vm.OpRet:
			// Emitted with the body; blocks ending in ret need no rewrite.
		case last.Op == vm.OpGoto:
			code = append(code, setStateAndDispatch(cfg.BlockOf(int(last.Target)))...)
		case last.Op.IsCondBranch():
			c := last
			takenPos := len(code) + 1 + 3 // cond, then 3-instr fallthrough arm
			c.Target = int32(takenPos)
			code = append(code, c)
			code = append(code, setStateAndDispatch(cfg.BlockOf(b.End))...)
			code = append(code, setStateAndDispatch(cfg.BlockOf(int(last.Target)))...)
		default:
			code = append(code, setStateAndDispatch(cfg.BlockOf(b.End))...)
		}
	}
	for _, pt := range patches {
		code[pt.pos].Target = int32(blockStart[pt.block])
	}
	m.Code = code
	return true
}
