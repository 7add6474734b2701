package vm

import "fmt"

// Verify checks structural well-formedness and stack discipline of every
// method, in the spirit of the JVM bytecode verifier:
//
//   - operand indices (locals, statics, callees, branch targets) in range,
//   - no fall-through off the end of a method,
//   - every instruction reachable with a single consistent stack height,
//   - no operand-stack underflow,
//   - ret with exactly one value available.
//
// Both the embedder's code generators and every attack transformation must
// produce programs that pass Verify; the property tests rely on this.
func Verify(p *Program) error {
	if len(p.Methods) == 0 {
		return fmt.Errorf("vm: program has no methods")
	}
	if p.Entry < 0 || p.Entry >= len(p.Methods) {
		return fmt.Errorf("vm: entry index %d out of range", p.Entry)
	}
	names := make(map[string]bool, len(p.Methods))
	var sv stackVerifier
	for _, m := range p.Methods {
		if names[m.Name] {
			return fmt.Errorf("vm: duplicate method name %q", m.Name)
		}
		names[m.Name] = true
		if err := sv.verifyMethod(p, m); err != nil {
			return fmt.Errorf("vm: method %s: %w", m.Name, err)
		}
	}
	return nil
}

// VerifyMethod re-checks a single method against the program's current
// tables (statics, callees). It is the incremental counterpart of Verify
// for transformations that modify only a few methods of an
// already-verified program: statics and methods only ever grow, so
// untouched methods stay valid and need no re-verification.
func VerifyMethod(p *Program, i int) error {
	if i < 0 || i >= len(p.Methods) {
		return fmt.Errorf("vm: method index %d out of range", i)
	}
	var sv stackVerifier
	if err := sv.verifyMethod(p, p.Methods[i]); err != nil {
		return fmt.Errorf("vm: method %s: %w", p.Methods[i].Name, err)
	}
	return nil
}

// stackVerifier holds the stack check's scratch buffers, so one Verify
// reuses them across every method of the program.
type stackVerifier struct {
	height []int32 // per-pc stack height, unknownHeight until reached
	work   []stackItem
}

type stackItem struct{ pc, h int32 }

const unknownHeight = -1

func (sv *stackVerifier) verifyMethod(p *Program, m *Method) error {
	if err := checkCode(p, m); err != nil {
		return err
	}
	return sv.verifyStack(p, m)
}

// checkCode checks a method's header and each instruction on its own:
// opcodes, operand indices and branch targets in range, and a last
// instruction that cannot fall off the end.
func checkCode(p *Program, m *Method) error {
	n := len(m.Code)
	if n == 0 {
		return fmt.Errorf("empty code")
	}
	if m.NArgs < 0 || m.NLocals < m.NArgs {
		return fmt.Errorf("NLocals %d < NArgs %d", m.NLocals, m.NArgs)
	}
	for pc, in := range m.Code {
		if in.Op >= opCount {
			return fmt.Errorf("pc %d: invalid opcode %d", pc, in.Op)
		}
		switch in.Op {
		case OpLoad, OpStore:
			if in.A < 0 || in.A >= int64(m.NLocals) {
				return fmt.Errorf("pc %d: local %d out of range [0,%d)", pc, in.A, m.NLocals)
			}
		case OpGetStatic, OpPutStatic:
			if in.A < 0 || in.A >= int64(p.NStatics) {
				return fmt.Errorf("pc %d: static %d out of range [0,%d)", pc, in.A, p.NStatics)
			}
		case OpCall:
			if in.A < 0 || in.A >= int64(len(p.Methods)) {
				return fmt.Errorf("pc %d: callee %d out of range", pc, in.A)
			}
		}
		if in.Op.IsBranch() && (in.Target < 0 || int(in.Target) >= n) {
			return fmt.Errorf("pc %d: branch target %d out of range [0,%d)", pc, in.Target, n)
		}
	}
	last := m.Code[n-1].Op
	if last != OpRet && last != OpGoto {
		return fmt.Errorf("pc %d: method may fall off the end (last op %v)", n-1, last)
	}
	return nil
}

// opEffect is every opcode's stack effect, from stackEffect. OpCall's
// pops are its callee's NArgs.
var opEffect = func() (t [opCount]struct{ pops, pushes int8 }) {
	for o := Op(0); o < opCount; o++ {
		pops, pushes := StackEffect(o)
		t[o].pops, t[o].pushes = int8(pops), int8(pushes)
	}
	return t
}()

// verifyStack abstractly interprets the method, assigning each reachable
// pc a stack height and rejecting inconsistencies and underflow. The
// walk goes on inline to the next pc, or a goto's target, when it
// reaches that pc first; only conditional branches' targets wait on the
// work list, and the walk takes the last one queued when it stops. That
// visits pcs in the order of a walk that queued every successor and took
// the last queued, so the first error found is the same.
func (sv *stackVerifier) verifyStack(p *Program, m *Method) error {
	code := m.Code
	n := len(code)
	if cap(sv.height) < n {
		sv.height = make([]int32, n)
	}
	sv.height = sv.height[:n]
	for i := range sv.height {
		sv.height[i] = unknownHeight
	}
	sv.height[0] = 0
	sv.work = sv.work[:0]
	pc, h := 0, 0
	for {
		in := &code[pc]
		e := opEffect[in.Op]
		pops := int(e.pops)
		if in.Op == OpCall {
			pops = p.Methods[in.A].NArgs
		}
		if h < pops {
			return fmt.Errorf("pc %d: stack underflow (%v needs %d, has %d)", pc, in.Op, pops, h)
		}
		h += int(e.pushes) - pops
		next := pc + 1 // the pc the walk goes on to, if it reaches it first
		switch {
		case in.Op == OpRet:
			// h is the height after consuming the return value; any
			// residue is tolerated (like the JVM, we allow dead operands).
			next = n
		case in.Op == OpGoto:
			next = int(in.Target)
		case in.Op.IsCondBranch():
			first, err := sv.reach(int(in.Target), h)
			if err != nil {
				return err
			}
			if first {
				sv.work = append(sv.work, stackItem{in.Target, int32(h)})
			}
		}
		if next < n {
			first, err := sv.reach(next, h)
			if err != nil {
				return err
			}
			if first {
				pc = next
				continue
			}
		}
		if len(sv.work) == 0 {
			return nil
		}
		item := sv.work[len(sv.work)-1]
		sv.work = sv.work[:len(sv.work)-1]
		pc, h = int(item.pc), int(item.h)
	}
}

// reach records height h at pc and reports whether pc was reached for
// the first time, rejecting a second arrival at a different height.
func (sv *stackVerifier) reach(pc, h int) (first bool, err error) {
	if h > 4096 {
		return false, fmt.Errorf("pc %d: operand stack exceeds limit", pc)
	}
	if sv.height[pc] == unknownHeight {
		sv.height[pc] = int32(h)
		return true, nil
	}
	if sv.height[pc] != int32(h) {
		return false, fmt.Errorf("pc %d: inconsistent stack height %d vs %d", pc, sv.height[pc], h)
	}
	return false, nil
}
