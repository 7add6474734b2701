package vm

import "fmt"

// referenceVerify is Verify with the stack walk it replaced: every
// successor goes on the work list, and the walk takes the last queued.
func referenceVerify(p *Program) error {
	if len(p.Methods) == 0 {
		return fmt.Errorf("vm: program has no methods")
	}
	if p.Entry < 0 || p.Entry >= len(p.Methods) {
		return fmt.Errorf("vm: entry index %d out of range", p.Entry)
	}
	names := make(map[string]bool, len(p.Methods))
	for i, m := range p.Methods {
		if names[m.Name] {
			return fmt.Errorf("vm: duplicate method name %q", m.Name)
		}
		names[m.Name] = true
		if err := referenceVerifyMethod(p, i); err != nil {
			return err
		}
	}
	return nil
}

// referenceVerifyMethod is VerifyMethod with the old stack walk.
func referenceVerifyMethod(p *Program, i int) error {
	var sv stackVerifier
	m := p.Methods[i]
	err := checkCode(p, m)
	if err == nil {
		err = sv.referenceVerifyStack(p, m)
	}
	if err != nil {
		return fmt.Errorf("vm: method %s: %w", m.Name, err)
	}
	return nil
}

func (sv *stackVerifier) referenceVerifyStack(p *Program, m *Method) error {
	n := len(m.Code)
	if cap(sv.height) < n {
		sv.height = make([]int32, n)
	}
	sv.height = sv.height[:n]
	for i := range sv.height {
		sv.height[i] = unknownHeight
	}
	sv.height[0] = 0
	sv.work = append(sv.work[:0], stackItem{0, 0})
	for len(sv.work) > 0 {
		item := sv.work[len(sv.work)-1]
		sv.work = sv.work[:len(sv.work)-1]
		pc, h := int(item.pc), int(item.h)
		in := m.Code[pc]
		var pops, pushes int
		if in.Op == OpCall {
			pops, pushes = p.Methods[in.A].NArgs, 1
		} else {
			pops, pushes = stackEffect(in.Op)
		}
		if h < pops {
			return fmt.Errorf("pc %d: stack underflow (%v needs %d, has %d)", pc, in.Op, pops, h)
		}
		next := h - pops + pushes
		switch {
		case in.Op == OpRet:
		case in.Op == OpGoto:
			if err := sv.referencePush(int(in.Target), next); err != nil {
				return err
			}
		case in.Op.IsCondBranch():
			if err := sv.referencePush(int(in.Target), next); err != nil {
				return err
			}
			if pc+1 < n {
				if err := sv.referencePush(pc+1, next); err != nil {
					return err
				}
			}
		default:
			if pc+1 < n {
				if err := sv.referencePush(pc+1, next); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (sv *stackVerifier) referencePush(pc, h int) error {
	if h > 4096 {
		return fmt.Errorf("pc %d: operand stack exceeds limit", pc)
	}
	if sv.height[pc] == unknownHeight {
		sv.height[pc] = int32(h)
		sv.work = append(sv.work, stackItem{int32(pc), int32(h)})
		return nil
	}
	if sv.height[pc] != int32(h) {
		return fmt.Errorf("pc %d: inconsistent stack height %d vs %d", pc, sv.height[pc], h)
	}
	return nil
}
