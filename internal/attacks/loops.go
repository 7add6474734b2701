package attacks

import (
	"math/rand"

	"pathmark/internal/vm"
)

// loopPeeling implements the "loop unrolling" family of transformations
// the paper's introduction lists among the branch-structure-modifying
// attacks: `while(c){B}` becomes `if(c){B}; while(c){B}` by duplicating
// one loop body ahead of the loop. Peeling is unconditionally
// semantics-preserving and perturbs the dynamic branch identity of the
// peeled iteration — a watermark piece whose emission loop is peeled is
// damaged, and the redundancy of the remaining pieces must carry the mark.
//
// A region [head, back] qualifies when:
//   - the instruction at `back` is `goto head` with head < back,
//   - every branch inside the region targets inside [head, back+1] or the
//     region's exits, where "exit" is any target outside the region,
//   - no branch from outside the region targets strictly inside it
//     (entering mid-loop would bypass the peeled copy harmlessly, but we
//     keep the pattern simple and safe), and
//   - the region contains no ret (a peeled ret would duplicate returns,
//     which is fine semantically but complicates stack-height reasoning).
func loopPeeling(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	for _, m := range q.Methods {
		peelMethodLoops(m, rng, 3)
	}
	return mustVerify(q)
}

func peelMethodLoops(m *vm.Method, rng *rand.Rand, maxPeels int) {
	peeled := 0
	// Scan for backedges; after each peel the code shifts, so restart the
	// scan (bounded by maxPeels).
	for peeled < maxPeels {
		back := findPeelableLoop(m, rng)
		if back < 0 {
			return
		}
		head := int(m.Code[back].Target)
		region := append([]vm.Instr(nil), m.Code[head:back+1]...)
		n := len(region)
		// Remap the copy's targets: intra-region targets move with the
		// copy (which will sit at [head, head+n)); the copy's backedge
		// must fall through into the original loop head (post-insertion
		// position head+n), so it becomes a goto there — equivalently,
		// retarget it to the shifted original head.
		for i := range region {
			if !region[i].Op.IsBranch() {
				continue
			}
			t := int(region[i].Target)
			switch {
			case i == n-1: // the backedge: continue with the original loop
				region[i].Target = int32(head + n)
			case t >= head && t <= back:
				region[i].Target = int32(t - head + head) // same offset within the copy
			default:
				// Exit target: will be shifted by InsertAt along with the
				// original; compensate by pre-shifting when past head.
				if t > head {
					region[i].Target = int32(t + n)
				}
			}
		}
		m.InsertAt(head, region)
		peeled++
	}
}

// findPeelableLoop returns the index of a qualifying backedge, or -1.
func findPeelableLoop(m *vm.Method, rng *rand.Rand) int {
	var cands []int
	for back, in := range m.Code {
		if in.Op != vm.OpGoto || int(in.Target) >= back {
			continue
		}
		head := int(in.Target)
		if back-head > 400 || back-head < 2 {
			continue
		}
		ok := true
		for pc := head; pc <= back && ok; pc++ {
			if m.Code[pc].Op == vm.OpRet {
				ok = false
			}
		}
		// No external branch may enter the region's interior.
		for pc, other := range m.Code {
			if !ok {
				break
			}
			if !other.Op.IsBranch() || (pc >= head && pc <= back) {
				continue
			}
			if int(other.Target) > head && int(other.Target) <= back {
				ok = false
			}
		}
		// No interior branch may target the backedge-goto's interior
		// crossing weirdly; interior targets within [head, back+1] are
		// fine, as are exits.
		if ok {
			cands = append(cands, back)
		}
	}
	if len(cands) == 0 {
		return -1
	}
	return cands[rng.Intn(len(cands))]
}

// peepholeOptimization models an optimizing binary rewriter (the paper
// cites link-time optimizers as the canonical distortive attack): it
// removes no-ops and folds constant arithmetic. Both rewrites preserve
// semantics exactly; the watermark must not depend on such artifacts.
func peepholeOptimization(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	for _, m := range q.Methods {
		removeNops(m)
		foldConstants(m)
	}
	_ = rng
	return mustVerify(q)
}

// removeNops deletes OpNop instructions, fixing branch targets.
func removeNops(m *vm.Method) {
	for pc := len(m.Code) - 1; pc >= 0; pc-- {
		if m.Code[pc].Op != vm.OpNop {
			continue
		}
		// The final instruction must remain ret/goto; a trailing nop
		// cannot exist in verified code, but guard anyway.
		if pc == len(m.Code)-1 {
			continue
		}
		deleteInstr(m, pc)
	}
}

// deleteInstr removes the instruction at pc, retargeting branches: targets
// past pc shift down; targets at pc move to the following instruction.
func deleteInstr(m *vm.Method, pc int) {
	for i := range m.Code {
		if m.Code[i].Op.IsBranch() && int(m.Code[i].Target) > pc {
			m.Code[i].Target--
		}
	}
	m.Code = append(m.Code[:pc], m.Code[pc+1:]...)
}

// foldConstants rewrites `const a; const b; <binop>` into a single const
// when no branch enters the middle of the pattern.
func foldConstants(m *vm.Method) {
	for pc := 0; pc+2 < len(m.Code); pc++ {
		a, b, op := m.Code[pc], m.Code[pc+1], m.Code[pc+2]
		if a.Op != vm.OpConst || b.Op != vm.OpConst {
			continue
		}
		var v int64
		switch op.Op {
		case vm.OpAdd:
			v = a.A + b.A
		case vm.OpSub:
			v = a.A - b.A
		case vm.OpMul:
			v = a.A * b.A
		case vm.OpAnd:
			v = a.A & b.A
		case vm.OpOr:
			v = a.A | b.A
		case vm.OpXor:
			v = a.A ^ b.A
		default:
			continue
		}
		if branchTargetsInto(m, pc+1, pc+2) {
			continue
		}
		m.Code[pc] = vm.Instr{Op: vm.OpConst, A: v}
		deleteInstr(m, pc+1)
		deleteInstr(m, pc+1)
		pc-- // the fold may enable another fold ending here
		if pc < -1 {
			pc = -1
		}
	}
}

func branchTargetsInto(m *vm.Method, lo, hi int) bool {
	for _, in := range m.Code {
		if in.Op.IsBranch() && int(in.Target) >= lo && int(in.Target) <= hi {
			return true
		}
	}
	return false
}
