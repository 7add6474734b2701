package attacks

import (
	"fmt"
	"math/rand"

	"pathmark/internal/vm"
)

// methodWrapping replaces up to two non-entry methods with forwarder
// wrappers: callers now reach `m` through `m` (the wrapper) -> `m$impl`
// (the original body), SandMark's "method splitting" in its simplest form.
func methodWrapping(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	candidates := rng.Perm(len(q.Methods))
	wrapped := 0
	for _, mi := range candidates {
		if mi == q.Entry || wrapped >= 2 {
			continue
		}
		orig := q.Methods[mi]
		impl := &vm.Method{
			Name:    orig.Name + "$impl",
			NArgs:   orig.NArgs,
			NLocals: orig.NLocals,
			Code:    append([]vm.Instr(nil), orig.Code...),
		}
		implIdx := len(q.Methods)
		q.Methods = append(q.Methods, impl)
		var fwd []vm.Instr
		for i := 0; i < orig.NArgs; i++ {
			fwd = append(fwd, vm.Instr{Op: vm.OpLoad, A: int64(i)})
		}
		fwd = append(fwd, vm.Instr{Op: vm.OpCall, A: int64(implIdx)}, vm.Instr{Op: vm.OpRet})
		orig.Code = fwd
		if orig.NLocals < orig.NArgs {
			orig.NLocals = orig.NArgs
		}
		wrapped++
	}
	return mustVerify(q)
}

// callIndirection reroutes a fraction of call sites through fresh stub
// methods that simply forward to the original callee.
func callIndirection(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	stubFor := make(map[int]int)
	nOrig := len(q.Methods)
	for mi := 0; mi < nOrig; mi++ {
		m := q.Methods[mi]
		for pc := range m.Code {
			if m.Code[pc].Op != vm.OpCall || rng.Float64() > 0.5 {
				continue
			}
			callee := int(m.Code[pc].A)
			stub, ok := stubFor[callee]
			if !ok {
				target := q.Methods[callee]
				var code []vm.Instr
				for i := 0; i < target.NArgs; i++ {
					code = append(code, vm.Instr{Op: vm.OpLoad, A: int64(i)})
				}
				code = append(code, vm.Instr{Op: vm.OpCall, A: int64(callee)}, vm.Instr{Op: vm.OpRet})
				stub = len(q.Methods)
				q.Methods = append(q.Methods, &vm.Method{
					Name:    fmt.Sprintf("%s$stub", target.Name),
					NArgs:   target.NArgs,
					NLocals: target.NArgs,
					Code:    code,
				})
				stubFor[callee] = stub
			}
			m.Code[pc].A = int64(stub)
		}
	}
	return mustVerify(q)
}

// retHeightsUniform reports whether every OpRet in the method executes at
// abstract stack height exactly 1 and returns false for methods whose
// heights cannot be computed; required for inlining.
func retHeightsUniform(p *vm.Program, m *vm.Method) bool {
	const unknown = -1
	height := make([]int, len(m.Code))
	for i := range height {
		height[i] = unknown
	}
	type item struct{ pc, h int }
	work := []item{{0, 0}}
	height[0] = 0
	ok := true
	push := func(pc, h int) {
		if height[pc] == unknown {
			height[pc] = h
			work = append(work, item{pc, h})
		} else if height[pc] != h {
			ok = false
		}
	}
	for len(work) > 0 && ok {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		in := m.Code[it.pc]
		var pops, pushes int
		if in.Op == vm.OpCall {
			pops, pushes = p.Methods[in.A].NArgs, 1
		} else {
			pops, pushes = vm.StackEffect(in.Op)
		}
		if it.h < pops {
			return false
		}
		next := it.h - pops + pushes
		switch {
		case in.Op == vm.OpRet:
			if it.h != 1 {
				return false
			}
		case in.Op == vm.OpGoto:
			push(int(in.Target), next)
		case in.Op.IsCondBranch():
			push(int(in.Target), next)
			if it.pc+1 < len(m.Code) {
				push(it.pc+1, next)
			}
		default:
			if it.pc+1 < len(m.Code) {
				push(it.pc+1, next)
			}
		}
	}
	return ok
}

// methodInlining inlines small leaf methods (no calls, uniform return
// height) into their call sites.
func methodInlining(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	isLeaf := func(m *vm.Method) bool {
		if len(m.Code) > 60 {
			return false
		}
		for _, in := range m.Code {
			if in.Op == vm.OpCall {
				return false
			}
		}
		return retHeightsUniform(q, m)
	}
	for _, m := range q.Methods {
		for pc := 0; pc < len(m.Code); pc++ {
			in := m.Code[pc]
			if in.Op != vm.OpCall || rng.Float64() > 0.6 {
				continue
			}
			callee := q.Methods[in.A]
			if callee == m || !isLeaf(callee) {
				continue
			}
			base := int64(m.NLocals)
			m.NLocals += callee.NLocals
			var seq []vm.Instr
			// Pop arguments into the inlined locals (top of stack is the
			// last argument).
			for i := callee.NArgs - 1; i >= 0; i-- {
				seq = append(seq, vm.Instr{Op: vm.OpStore, A: base + int64(i)})
			}
			bodyStart := pc + len(seq)
			endTarget := bodyStart + len(callee.Code)
			for _, cin := range callee.Code {
				c := cin
				switch c.Op {
				case vm.OpLoad, vm.OpStore:
					c.A += base
				case vm.OpRet:
					// Return value stays on the stack; jump to the end.
					c = vm.Instr{Op: vm.OpGoto, Target: int32(endTarget)}
				default:
					if c.Op.IsBranch() {
						c.Target += int32(bodyStart)
					}
				}
				seq = append(seq, c)
			}
			replaceInstrAt(m, pc, seq)
			pc += len(seq) - 1
		}
	}
	return mustVerify(q)
}

// methodMerging merges two non-entry methods into one with a selector
// argument (SandMark's method merging). Call sites pad missing arguments
// with zeros and pass the selector.
func methodMerging(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	// Pick two distinct non-entry methods.
	var cands []int
	for i := range q.Methods {
		if i != q.Entry {
			cands = append(cands, i)
		}
	}
	if len(cands) < 2 {
		return mustVerify(q)
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	ai, bi := cands[0], cands[1]
	a, b := q.Methods[ai], q.Methods[bi]

	maxArgs := a.NArgs
	if b.NArgs > maxArgs {
		maxArgs = b.NArgs
	}
	sel := maxArgs // local index of the selector argument
	aExtra := a.NLocals - a.NArgs
	bExtra := b.NLocals - b.NArgs
	merged := &vm.Method{
		Name:    a.Name + "+" + b.Name,
		NArgs:   maxArgs + 1,
		NLocals: maxArgs + 1 + aExtra + bExtra,
	}
	remap := func(idx int64, nargs, extraBase int) int64 {
		if idx < int64(nargs) {
			return idx
		}
		return int64(maxArgs + 1 + extraBase + (int(idx) - nargs))
	}
	// Prologue: if sel != 0 goto bStart.
	prologue := []vm.Instr{
		{Op: vm.OpLoad, A: int64(sel)},
		{Op: vm.OpIfNe}, // target patched below
	}
	aStart := len(prologue)
	bStart := aStart + len(a.Code)
	prologue[1].Target = int32(bStart)
	merged.Code = append(merged.Code, prologue...)
	for _, in := range a.Code {
		c := in
		if c.Op == vm.OpLoad || c.Op == vm.OpStore {
			c.A = remap(c.A, a.NArgs, 0)
		}
		if c.Op.IsBranch() {
			c.Target += int32(aStart)
		}
		merged.Code = append(merged.Code, c)
	}
	for _, in := range b.Code {
		c := in
		if c.Op == vm.OpLoad || c.Op == vm.OpStore {
			c.A = remap(c.A, b.NArgs, aExtra)
		}
		if c.Op.IsBranch() {
			c.Target += int32(bStart)
		}
		merged.Code = append(merged.Code, c)
	}
	mergedIdx := len(q.Methods)
	q.Methods = append(q.Methods, merged)

	// Rewrite every call site (including within the merged body).
	rewrite := func(m *vm.Method) {
		for pc := 0; pc < len(m.Code); pc++ {
			in := m.Code[pc]
			if in.Op != vm.OpCall || (int(in.A) != ai && int(in.A) != bi) {
				continue
			}
			var nargs int
			var selVal int64
			if int(in.A) == ai {
				nargs, selVal = a.NArgs, 0
			} else {
				nargs, selVal = b.NArgs, 1
			}
			var seq []vm.Instr
			for i := nargs; i < maxArgs; i++ {
				seq = append(seq, vm.Instr{Op: vm.OpConst, A: 0})
			}
			seq = append(seq,
				vm.Instr{Op: vm.OpConst, A: selVal},
				vm.Instr{Op: vm.OpCall, A: int64(mergedIdx)})
			replaceInstrAt(m, pc, seq)
			pc += len(seq) - 1
		}
	}
	for _, m := range q.Methods {
		rewrite(m)
	}
	// Remove the merged-away methods, remapping call indices.
	newIndex := make([]int64, len(q.Methods))
	var kept []*vm.Method
	for i, m := range q.Methods {
		if i == ai || i == bi {
			newIndex[i] = -1
			continue
		}
		newIndex[i] = int64(len(kept))
		kept = append(kept, m)
	}
	for _, m := range kept {
		for pc := range m.Code {
			if m.Code[pc].Op == vm.OpCall {
				m.Code[pc].A = newIndex[m.Code[pc].A]
			}
		}
	}
	q.Entry = int(newIndex[q.Entry])
	q.Methods = kept
	return mustVerify(q)
}

// deadMethodInsertion appends unreachable decoy methods.
func deadMethodInsertion(p *vm.Program, rng *rand.Rand) *vm.Program {
	q := p.Clone()
	n := 2 + rng.Intn(3)
	for i := 0; i < n; i++ {
		q.Methods = append(q.Methods, &vm.Method{
			Name:    fmt.Sprintf("decoy%d_%d", i, rng.Intn(1<<20)),
			NArgs:   1,
			NLocals: 2,
			Code: []vm.Instr{
				{Op: vm.OpLoad, A: 0},
				{Op: vm.OpConst, A: rng.Int63n(100)},
				{Op: vm.OpAdd},
				{Op: vm.OpStore, A: 1},
				{Op: vm.OpLoad, A: 1},
				{Op: vm.OpRet},
			},
		})
	}
	return mustVerify(q)
}
