package attacks

import (
	"math/rand"

	"pathmark/internal/vm"
)

// replaceInstrAt substitutes the single instruction at pc with seq,
// adjusting branch targets: targets past pc shift by len(seq)-1, targets
// equal to pc keep pointing at the replacement's first instruction.
func replaceInstrAt(m *vm.Method, pc int, seq []vm.Instr) {
	delta := len(seq) - 1
	for i := range m.Code {
		if m.Code[i].Op.IsBranch() && int(m.Code[i].Target) > pc {
			m.Code[i].Target += int32(delta)
		}
	}
	newCode := make([]vm.Instr, 0, len(m.Code)+delta)
	newCode = append(newCode, m.Code[:pc]...)
	newCode = append(newCode, seq...)
	newCode = append(newCode, m.Code[pc+1:]...)
	m.Code = newCode
}

// nopInsertion inserts no-ops before a random fraction of instructions.
func nopInsertion(fraction float64) func(*vm.Program, *rand.Rand) *vm.Program {
	return func(p *vm.Program, rng *rand.Rand) *vm.Program {
		q := p.Clone()
		for _, m := range q.Methods {
			var positions []int
			for pc := range m.Code {
				if rng.Float64() < fraction {
					positions = append(positions, pc)
				}
			}
			for i := len(positions) - 1; i >= 0; i-- {
				m.InsertAt(positions[i], []vm.Instr{{Op: vm.OpNop}})
			}
		}
		return mustVerify(q)
	}
}

// deadCodeInsertion inserts stack-neutral computations on fresh locals.
func deadCodeInsertion(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	for _, m := range q.Methods {
		scratch := int64(m.AllocLocal())
		var positions []int
		for pc := range m.Code {
			if rng.Float64() < 0.15 {
				positions = append(positions, pc)
			}
		}
		for i := len(positions) - 1; i >= 0; i-- {
			k := rng.Int63n(1000)
			m.InsertAt(positions[i], []vm.Instr{
				{Op: vm.OpConst, A: k},
				{Op: vm.OpStore, A: scratch},
				{Op: vm.OpLoad, A: scratch},
				{Op: vm.OpConst, A: k / 2},
				{Op: vm.OpAdd},
				{Op: vm.OpStore, A: scratch},
			})
		}
	}
	return mustVerify(q)
}

// blockSplit cuts basic blocks by inserting jumps to the next instruction.
func blockSplit(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	for _, m := range q.Methods {
		var positions []int
		for pc := 1; pc < len(m.Code); pc++ {
			if rng.Float64() < 0.1 {
				positions = append(positions, pc)
			}
		}
		for i := len(positions) - 1; i >= 0; i-- {
			pc := positions[i]
			// goto pc+1, where pc+1 is the original instruction at pc
			// after insertion.
			m.InsertAt(pc, []vm.Instr{{Op: vm.OpGoto, Target: int32(pc + 1)}})
		}
	}
	return mustVerify(q)
}

// gotoChaining reroutes branches through trampolines appended at the end
// of the method (the "branch chaining" transformation of §1).
func gotoChaining(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	for _, m := range q.Methods {
		n := len(m.Code)
		for pc := 0; pc < n; pc++ {
			in := m.Code[pc]
			if !in.Op.IsBranch() || rng.Float64() > 0.5 {
				continue
			}
			tramp := len(m.Code)
			m.Code = append(m.Code, vm.Instr{Op: vm.OpGoto, Target: in.Target})
			m.Code[pc].Target = int32(tramp)
		}
	}
	return mustVerify(q)
}

// branchSenseInversion negates conditional branches and restores semantics
// with a goto: `if c -> T; F:` becomes `if !c -> F; goto T; F:`.
func branchSenseInversion(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	for _, m := range q.Methods {
		var positions []int
		for pc, in := range m.Code {
			if in.Op.IsCondBranch() && rng.Float64() < 0.7 {
				positions = append(positions, pc)
			}
		}
		for i := len(positions) - 1; i >= 0; i-- {
			pc := positions[i]
			m.InsertAfter(pc, []vm.Instr{{Op: vm.OpGoto, Target: 0}}) // target patched below
			t := m.Code[pc].Target                                    // already adjusted by InsertAfter
			m.Code[pc+1].Target = t
			m.Code[pc].Op = vm.NegateCond(m.Code[pc].Op)
			m.Code[pc].Target = int32(pc + 2)
		}
	}
	return mustVerify(q)
}

// blockReordering permutes the basic blocks of every method, preserving
// flow with explicit jumps.
func blockReordering(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	for _, m := range q.Methods {
		reorderBlocks(m, rng)
	}
	return mustVerify(q)
}

func reorderBlocks(m *vm.Method, rng *rand.Rand) {
	cfg := vm.BuildCFG(m)
	nb := cfg.NumBlocks()
	if nb < 3 {
		return
	}
	order := rng.Perm(nb)
	var newCode []vm.Instr
	// Leading jump to the entry block's new home.
	newCode = append(newCode, vm.Instr{Op: vm.OpGoto})
	newStart := make([]int, nb)
	type fix struct {
		pos      int
		oldTgt   int // original target pc (a leader) — -1 when tgtBlock used
		tgtBlock int
	}
	var fixes []fix
	for _, bi := range order {
		b := cfg.Blocks[bi]
		newStart[bi] = len(newCode)
		for pc := b.Start; pc < b.End; pc++ {
			in := m.Code[pc]
			if in.Op.IsBranch() {
				fixes = append(fixes, fix{pos: len(newCode), oldTgt: int(in.Target), tgtBlock: -1})
			}
			newCode = append(newCode, in)
		}
		// Restore the fall-through edge with an explicit goto.
		last := m.Code[b.End-1]
		if last.Op != vm.OpGoto && last.Op != vm.OpRet && b.End < len(m.Code) {
			fixes = append(fixes, fix{pos: len(newCode), oldTgt: -1, tgtBlock: cfg.BlockOf(b.End)})
			newCode = append(newCode, vm.Instr{Op: vm.OpGoto})
		}
	}
	fixes = append(fixes, fix{pos: 0, oldTgt: -1, tgtBlock: 0})
	// The method must still end in ret or goto; the reordering may have
	// placed a fall-through block last, but we always appended a goto for
	// those, so only a cond-branch-final block could violate it — such
	// blocks also got a goto (b.End < len) or ended the method originally.
	for _, f := range fixes {
		tb := f.tgtBlock
		if tb < 0 {
			tb = cfg.BlockOf(f.oldTgt)
		}
		newCode[f.pos].Target = int32(newStart[tb])
	}
	m.Code = newCode
}

// blockCopying duplicates blocks and redirects a subset of their incoming
// branches to the copy (SandMark's "basic block copying").
func blockCopying(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	for _, m := range q.Methods {
		cfg := vm.BuildCFG(m)
		if cfg.NumBlocks() < 2 {
			continue
		}
		// Copy up to 3 randomly chosen blocks per method.
		for c := 0; c < 3; c++ {
			bi := rng.Intn(cfg.NumBlocks())
			b := cfg.Blocks[bi]
			if b.Start == 0 {
				continue // entry block needs no incoming branch
			}
			// Find branches targeting the block leader.
			var preds []int
			for pc, in := range m.Code {
				if in.Op.IsBranch() && int(in.Target) == b.Start {
					preds = append(preds, pc)
				}
			}
			if len(preds) == 0 {
				continue
			}
			copyStart := len(m.Code)
			for pc := b.Start; pc < b.End; pc++ {
				m.Code = append(m.Code, m.Code[pc])
			}
			last := m.Code[len(m.Code)-1]
			if last.Op != vm.OpGoto && last.Op != vm.OpRet {
				// Restore the fall-through edge (also for cond branches).
				m.Code = append(m.Code, vm.Instr{Op: vm.OpGoto, Target: int32(b.End)})
			}
			// Redirect one predecessor to the copy.
			m.Code[preds[rng.Intn(len(preds))]].Target = int32(copyStart)
			cfg = vm.BuildCFG(m)
		}
	}
	return mustVerify(q)
}

// statementReordering swaps adjacent independent const/store statement
// pairs: `const a; store i; const b; store j` with i != j.
func statementReordering(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	for _, m := range q.Methods {
		cfg := vm.BuildCFG(m)
		for pc := 0; pc+3 < len(m.Code); pc++ {
			i0, i1, i2, i3 := m.Code[pc], m.Code[pc+1], m.Code[pc+2], m.Code[pc+3]
			if i0.Op == vm.OpConst && i1.Op == vm.OpStore &&
				i2.Op == vm.OpConst && i3.Op == vm.OpStore &&
				i1.A != i3.A && rng.Float64() < 0.8 &&
				sameBlock(cfg, pc, pc+3) && noBranchInto(m, pc+1, pc+3) {
				m.Code[pc], m.Code[pc+1], m.Code[pc+2], m.Code[pc+3] = i2, i3, i0, i1
				pc += 3
			}
		}
	}
	return mustVerify(q)
}

func sameBlock(cfg *vm.CFG, a, b int) bool { return cfg.BlockOf(a) == cfg.BlockOf(b) }

func noBranchInto(m *vm.Method, lo, hi int) bool {
	for _, in := range m.Code {
		if in.Op.IsBranch() && int(in.Target) > lo && int(in.Target) <= hi {
			return false
		}
	}
	return true
}

// constantObfuscation rewrites `const k` as `const a; const b; xor`.
func constantObfuscation(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	for _, m := range q.Methods {
		var positions []int
		for pc, in := range m.Code {
			if in.Op == vm.OpConst && rng.Float64() < 0.3 {
				positions = append(positions, pc)
			}
		}
		for i := len(positions) - 1; i >= 0; i-- {
			pc := positions[i]
			k := m.Code[pc].A
			mask := rng.Int63()
			replaceInstrAt(m, pc, []vm.Instr{
				{Op: vm.OpConst, A: k ^ mask},
				{Op: vm.OpConst, A: mask},
				{Op: vm.OpXor},
			})
		}
	}
	return mustVerify(q)
}

// arithmeticIdentity appends neutral operations after loads: x+0, x^0.
func arithmeticIdentity(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	ident := [][]vm.Instr{
		{{Op: vm.OpConst, A: 0}, {Op: vm.OpAdd}},
		{{Op: vm.OpConst, A: 0}, {Op: vm.OpXor}},
		{{Op: vm.OpConst, A: 0}, {Op: vm.OpOr}},
		{{Op: vm.OpConst, A: 0}, {Op: vm.OpSub}},
	}
	for _, m := range q.Methods {
		var positions []int
		for pc, in := range m.Code {
			if in.Op == vm.OpLoad && rng.Float64() < 0.2 {
				positions = append(positions, pc)
			}
		}
		for i := len(positions) - 1; i >= 0; i-- {
			m.InsertAfter(positions[i], ident[rng.Intn(len(ident))])
		}
	}
	return mustVerify(q)
}

// strengthSubstitution replaces multiplications/divisions by powers of two
// with shifts where the pattern `const 2^k; mul` occurs.
func strengthSubstitution(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	for _, m := range q.Methods {
		for pc := 0; pc+1 < len(m.Code); pc++ {
			c, op := m.Code[pc], m.Code[pc+1]
			if c.Op != vm.OpConst || op.Op != vm.OpMul {
				continue
			}
			k := c.A
			if k <= 0 || k&(k-1) != 0 {
				continue
			}
			shift := int64(0)
			for v := k; v > 1; v >>= 1 {
				shift++
			}
			if noBranchInto(m, pc, pc+1) {
				m.Code[pc] = vm.Instr{Op: vm.OpConst, A: shift}
				m.Code[pc+1] = vm.Instr{Op: vm.OpShl}
			}
		}
	}
	return mustVerify(q)
}

// localRenumbering permutes non-argument local slots (the analog of
// register reallocation).
func localRenumbering(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	for _, m := range q.Methods {
		nFree := m.NLocals - m.NArgs
		if nFree < 2 {
			continue
		}
		perm := rng.Perm(nFree)
		remap := func(idx int64) int64 {
			if idx < int64(m.NArgs) {
				return idx
			}
			return int64(m.NArgs + perm[idx-int64(m.NArgs)])
		}
		for i := range m.Code {
			if m.Code[i].Op == vm.OpLoad || m.Code[i].Op == vm.OpStore {
				m.Code[i].A = remap(m.Code[i].A)
			}
		}
	}
	return mustVerify(q)
}

// staticRenumbering permutes the program's static slots.
func staticRenumbering(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	if q.NStatics < 2 {
		return mustVerify(q)
	}
	perm := rng.Perm(q.NStatics)
	for _, m := range q.Methods {
		for i := range m.Code {
			if m.Code[i].Op == vm.OpGetStatic || m.Code[i].Op == vm.OpPutStatic {
				m.Code[i].A = int64(perm[m.Code[i].A])
			}
		}
	}
	return mustVerify(q)
}

// methodReordering permutes the method table.
func methodReordering(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	n := len(q.Methods)
	if n < 2 {
		return mustVerify(q)
	}
	perm := rng.Perm(n) // perm[old] = new
	newMethods := make([]*vm.Method, n)
	for old, m := range q.Methods {
		newMethods[perm[old]] = m
	}
	q.Methods = newMethods
	q.Entry = perm[q.Entry]
	for _, m := range q.Methods {
		for i := range m.Code {
			if m.Code[i].Op == vm.OpCall {
				m.Code[i].A = int64(perm[m.Code[i].A])
			}
		}
	}
	return mustVerify(q)
}
