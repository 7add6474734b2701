package vm

import (
	"fmt"
	"strings"
)

// Instr is a single instruction. A carries the immediate operand (constant
// value, local index, static index, or callee method index); Target is the
// branch destination as an instruction index within the same method. The
// int32 target packs an Instr into 16 bytes (DESIGN.md "Instruction
// layout").
type Instr struct {
	Op     Op
	Target int32
	A      int64
}

func (in Instr) String() string {
	switch {
	case in.Op.IsBranch():
		return fmt.Sprintf("%s -> %d", in.Op, in.Target)
	case in.Op == OpConst || in.Op == OpLoad || in.Op == OpStore ||
		in.Op == OpGetStatic || in.Op == OpPutStatic || in.Op == OpCall:
		return fmt.Sprintf("%s %d", in.Op, in.A)
	default:
		return in.Op.String()
	}
}

// Method is a unit of code. Arguments arrive in locals[0..NArgs-1]; every
// method returns exactly one value via ret.
type Method struct {
	Name    string
	NArgs   int
	NLocals int
	Code    []Instr
}

// Program is a complete executable: methods, a designated entry point, and
// a static field area shared by all methods (the analog of the static and
// instance fields SandMark snapshots during tracing).
type Program struct {
	Methods  []*Method
	Entry    int // index of the entry method, invoked with NArgs zeros
	NStatics int
}

// Clone returns a deep copy of the method.
func (m *Method) Clone() *Method {
	return &Method{Name: m.Name, NArgs: m.NArgs, NLocals: m.NLocals,
		Code: append([]Instr(nil), m.Code...)}
}

// Clone returns a deep copy of the program; transformations and the
// embedder never mutate the caller's copy.
func (p *Program) Clone() *Program {
	q := &Program{Entry: p.Entry, NStatics: p.NStatics}
	for _, m := range p.Methods {
		q.Methods = append(q.Methods, m.Clone())
	}
	return q
}

// CloneShared returns a copy-on-write clone: a fresh Program struct (own
// Methods slice, Entry, NStatics) whose method objects still alias the
// receiver's. Mutating a shared method corrupts both programs — callers
// must swap in a Method.Clone() before touching one (see wm's batch
// embedder, which deep-copies only the handful of methods it modifies).
func (p *Program) CloneShared() *Program {
	return &Program{
		Methods:  append([]*Method(nil), p.Methods...),
		Entry:    p.Entry,
		NStatics: p.NStatics,
	}
}

// MethodByName returns the first method with the given name, or nil.
func (p *Program) MethodByName(name string) *Method {
	for _, m := range p.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// CodeSize returns the total instruction count across all methods — the
// program-size metric used by the Figure 8(b) experiment. One instruction
// is the unit; DESIGN.md "Instruction layout" gives its size in memory.
func (p *Program) CodeSize() int {
	n := 0
	for _, m := range p.Methods {
		n += len(m.Code)
	}
	return n
}

// CountCondBranches returns the number of static conditional branch
// instructions, the denominator of Figure 8(c)'s branch-increase metric.
func (p *Program) CountCondBranches() int {
	n := 0
	for _, m := range p.Methods {
		for _, in := range m.Code {
			if in.Op.IsCondBranch() {
				n++
			}
		}
	}
	return n
}

// AllocStatic grows the static area by one slot and returns its index.
func (p *Program) AllocStatic() int {
	p.NStatics++
	return p.NStatics - 1
}

// InsertAt splices instrs into the method immediately before instruction
// index at (0 <= at <= len(Code)), rewriting every branch target so that
// program semantics are preserved and control reaching `at` now executes
// the inserted code first. Branch targets inside instrs must already be
// method-relative (i.e. relative to the method after insertion).
//
// Target adjustment rule: a pre-existing target t moves to t+len(instrs)
// when t >= at is false only for t < at; targets exactly at `at` stay,
// so loops whose body begins at `at` re-execute the inserted code on every
// iteration — which is exactly what the condition code generator needs.
func (m *Method) InsertAt(at int, instrs []Instr) {
	if at < 0 || at > len(m.Code) {
		panic(fmt.Sprintf("vm: InsertAt(%d) out of range [0,%d]", at, len(m.Code)))
	}
	n := len(instrs)
	for i := range m.Code {
		// Targets strictly past the insertion point shift; targets equal
		// to `at` keep pointing at the insertion so the inserted prologue
		// runs on every entry (loops re-execute it each iteration).
		if m.Code[i].Op.IsBranch() && int(m.Code[i].Target) > at {
			m.Code[i].Target += int32(n)
		}
	}
	newCode := make([]Instr, 0, len(m.Code)+n)
	newCode = append(newCode, m.Code[:at]...)
	newCode = append(newCode, instrs...)
	newCode = append(newCode, m.Code[at:]...)
	m.Code = newCode
}

// Fragment is code to insert immediately before instruction PC of a
// method, its branch targets relative to the method just after its own
// insertion, as InsertAt takes them.
type Fragment struct {
	PC   int
	Code []Instr
}

// Splice inserts every fragment in one pass. The fragments are in
// application order, their pcs non-increasing, and the result is exactly
// that of InsertAt(f.PC, f.Code) for each fragment in turn:
//   - an original target t moves by the total length of the fragments
//     placed at pcs below t;
//   - a target u of fragment j moves by the total length of the
//     fragments after j at pcs below u;
//   - fragments that share a pc lie in reverse application order.
//
// Neither m's old code nor any fragment's Code is modified.
func (m *Method) Splice(frags []Fragment) {
	n := len(m.Code)
	// below[q] is the total length of the fragments placed at pcs below
	// q, for q in [0, n+1].
	below := make([]int, n+2)
	total, prev := 0, n
	for _, f := range frags {
		if f.PC < 0 || f.PC > prev {
			panic(fmt.Sprintf("vm: Splice at pc %d out of range [0,%d] or above the previous fragment", f.PC, prev))
		}
		prev = f.PC
		below[f.PC+1] += len(f.Code)
		total += len(f.Code)
	}
	for q := 1; q <= n+1; q++ {
		below[q] += below[q-1]
	}
	shift := func(t int) int {
		switch {
		case t <= 0:
			return t
		case t > n:
			return t + total
		}
		return t + below[t]
	}
	code := make([]Instr, 0, n+total)
	later := 0 // total length of the fragments after j
	j := len(frags) - 1
	for q := 0; q <= n; q++ {
		for ; j >= 0 && frags[j].PC == q; j-- {
			start := len(code)
			code = append(code, frags[j].Code...)
			for i := start; i < len(code); i++ {
				if code[i].Op.IsBranch() {
					// A target past q was past every later fragment's pc
					// when that fragment went in; one at or below q moved
					// as an original target does.
					if u := int(code[i].Target); u > q {
						code[i].Target = int32(u + later)
					} else {
						code[i].Target = int32(shift(u))
					}
				}
			}
			later += len(frags[j].Code)
		}
		if q < n {
			in := m.Code[q]
			if in.Op.IsBranch() {
				in.Target = int32(shift(int(in.Target)))
			}
			code = append(code, in)
		}
	}
	m.Code = code
}

// InsertAfter splices instrs so they execute after instruction index `at`
// on the fall-through path; branch targets equal to at+1 are redirected
// past the insertion (they did not previously execute instruction at).
func (m *Method) InsertAfter(at int, instrs []Instr) {
	pos := at + 1
	if pos < 0 || pos > len(m.Code) {
		panic(fmt.Sprintf("vm: InsertAfter(%d) out of range", at))
	}
	n := len(instrs)
	for i := range m.Code {
		if m.Code[i].Op.IsBranch() && int(m.Code[i].Target) >= pos {
			m.Code[i].Target += int32(n)
		}
	}
	newCode := make([]Instr, 0, len(m.Code)+n)
	newCode = append(newCode, m.Code[:pos]...)
	newCode = append(newCode, instrs...)
	newCode = append(newCode, m.Code[pos:]...)
	m.Code = newCode
}

// AllocLocal grows the method's local area by one slot and returns its
// index.
func (m *Method) AllocLocal() int {
	m.NLocals++
	return m.NLocals - 1
}

// String disassembles the program.
func (p *Program) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; entry=%s statics=%d\n", p.Methods[p.Entry].Name, p.NStatics)
	for _, m := range p.Methods {
		fmt.Fprintf(&sb, "method %s %d %d\n", m.Name, m.NArgs, m.NLocals)
		for pc, in := range m.Code {
			if in.Op == OpCall {
				callee := "?"
				if in.A >= 0 && int(in.A) < len(p.Methods) {
					callee = p.Methods[in.A].Name
				}
				fmt.Fprintf(&sb, "  %4d: call %s\n", pc, callee)
				continue
			}
			fmt.Fprintf(&sb, "  %4d: %s\n", pc, in)
		}
	}
	return sb.String()
}
