package vm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Assemble parses the textual assembly format into a Program. The format:
//
//	; comment (also after instructions)
//	statics 3
//	entry main
//	method main 0 2        ; name nargs nlocals
//	  const 25
//	  store 0
//	loop:
//	  load 0
//	  ifeq done
//	  call helper          ; methods are referenced by name
//	  goto loop
//	done:
//	  const 0
//	  ret
//
// Labels are local to a method. Immediates are decimal or 0x-hex.
func Assemble(src string) (*Program, error) {
	p := &Program{Entry: -1}
	var cur *Method
	type fixup struct {
		pc    int
		label string
		line  int
	}
	type callFixup struct {
		method *Method
		fixup
	}
	var fixups []fixup              // branches of the current method
	var callFixups []callFixup      // calls to methods not defined yet
	labels := make(map[string]int)  // labels of the current method
	methods := make(map[string]int) // first method of each name
	entryName := ""
	// code is the current method's instructions. All methods' code is one
	// array, sized so that no append outgrows it: a source has a line per
	// instruction, and an instruction line takes at least three bytes
	// ("or\n"). A finished method keeps its stretch of the array, capped,
	// and code moves on to the free space after it, so code is allocated
	// once and neither grown nor copied.
	code := make([]Instr, 0, min(strings.Count(src, "\n")+1, len(src)/3+1))

	finishMethod := func() error {
		if cur == nil {
			return nil
		}
		for _, fx := range fixups {
			t, ok := labels[fx.label]
			if !ok {
				return fmt.Errorf("line %d: undefined label %q in method %s", fx.line, fx.label, cur.Name)
			}
			code[fx.pc].Target = int32(t)
		}
		if len(code) > 0 {
			cur.Code = code[:len(code):len(code)]
		}
		code = code[len(code):]
		fixups = fixups[:0]
		clear(labels)
		return nil
	}

	lx := lexer{src: src}
	for lx.next() {
		n, lineNo := lx.n, lx.line
		if n == 0 {
			continue
		}
		// head is a directive, a label or a mnemonic; arg its operand.
		head, arg := lx.field(0), lx.field(1)
		switch head {
		case "statics":
			if n != 2 {
				return nil, fmt.Errorf("line %d: statics wants one operand", lineNo)
			}
			v, err := parseInt(arg)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("line %d: bad statics count %q", lineNo, arg)
			}
			p.NStatics = int(v)
			continue
		case "entry":
			if n != 2 {
				return nil, fmt.Errorf("line %d: entry wants a method name", lineNo)
			}
			entryName = arg
			continue
		case "method":
			if err := finishMethod(); err != nil {
				return nil, err
			}
			if n != 4 {
				return nil, fmt.Errorf("line %d: method wants name nargs nlocals", lineNo)
			}
			nargs, err1 := parseInt(lx.field(2))
			nlocals, err2 := parseInt(lx.field(3))
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("line %d: bad method header", lineNo)
			}
			// The name is copied out of src: a substring would keep the
			// whole source text alive as long as the program.
			cur = &Method{Name: strings.Clone(arg), NArgs: int(nargs), NLocals: int(nlocals)}
			if _, dup := methods[cur.Name]; !dup {
				methods[cur.Name] = len(p.Methods)
			}
			p.Methods = append(p.Methods, cur)
			continue
		}
		if n == 1 && strings.HasSuffix(head, ":") {
			if cur == nil {
				return nil, fmt.Errorf("line %d: label outside method", lineNo)
			}
			name := head[:len(head)-1]
			if _, dup := labels[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate label %q", lineNo, name)
			}
			labels[name] = len(code)
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("line %d: instruction outside method", lineNo)
		}
		op, ok := opByName(head)
		if !ok {
			return nil, fmt.Errorf("line %d: unknown mnemonic %q", lineNo, head)
		}
		in := Instr{Op: op}
		switch {
		case op.IsBranch():
			if n != 2 {
				return nil, fmt.Errorf("line %d: %s wants a label", lineNo, op)
			}
			fixups = append(fixups, fixup{len(code), arg, lineNo})
		case op == OpCall:
			if n != 2 {
				return nil, fmt.Errorf("line %d: call wants a method name", lineNo)
			}
			if mi, ok := methods[arg]; ok {
				in.A = int64(mi)
			} else {
				callFixups = append(callFixups, callFixup{cur, fixup{len(code), arg, lineNo}})
			}
		case hasImmediate(op):
			if n != 2 {
				return nil, fmt.Errorf("line %d: %s wants an operand", lineNo, op)
			}
			v, err := parseInt(arg)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad operand %q", lineNo, arg)
			}
			in.A = v
		default:
			if n != 1 {
				return nil, fmt.Errorf("line %d: %s takes no operand", lineNo, op)
			}
		}
		code = append(code, in)
	}
	if err := finishMethod(); err != nil {
		return nil, err
	}
	for _, cf := range callFixups {
		mi, ok := methods[cf.label]
		if !ok {
			return nil, fmt.Errorf("line %d: call to undefined method %q", cf.line, cf.label)
		}
		cf.method.Code[cf.pc].A = int64(mi)
	}
	if entryName == "" {
		entryName = "main"
	}
	mi, ok := methods[entryName]
	if !ok {
		return nil, fmt.Errorf("entry method %q not defined", entryName)
	}
	p.Entry = mi
	if err := Verify(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Byte classes of the assembler's lexer.
const (
	classToken   = iota
	classSpace   // ASCII white space other than '\n'
	classNewline // '\n' ends a line
	classComment // ';' ends a line's fields
	classRune    // from 0x80 up: the rune is decoded to tell white space from a token
)

var byteClass = func() (t [256]uint8) {
	for _, c := range "\t\v\f\r " {
		t[c] = classSpace
	}
	t['\n'] = classNewline
	t[';'] = classComment
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = classRune
	}
	return t
}()

// lexer splits assembler source into lines, and each line into fields,
// walking the bytes once. A line ends at '\n', and ';' ends a line's
// fields even inside a token ("ret;x" is "ret"). Fields are separated by
// white space as unicode.IsSpace defines it, so a no-break or ideographic
// space separates them and a zero-width space does not; invalid UTF-8 is
// part of a token.
type lexer struct {
	src  string
	pos  int // start of the next line; len(src)+1 once the last line is read
	line int // number of the line last read, from 1
	n    int // the line's field count
	// span holds the source offsets of the line's first fields, all any
	// assembler line may have. They are offsets, not strings, because a
	// string stored through the lexer pointer pays a write barrier
	// whenever the collector runs, which in the daemon is often.
	span [4][2]int
}

// field returns the line's k-th field, from 0, or "" past its last.
func (lx *lexer) field(k int) string {
	if k >= lx.n {
		return ""
	}
	return lx.src[lx.span[k][0]:lx.span[k][1]]
}

// next reads the next line into line, n and span. It returns false once
// the source has no lines left.
func (lx *lexer) next() bool {
	s, i := lx.src, lx.pos
	if i > len(s) {
		return false
	}
	lx.line++
	n := 0
	for {
		for i < len(s) && byteClass[s[i]] == classSpace {
			i++
		}
		if i == len(s) {
			lx.pos, lx.n = len(s)+1, n
			return true
		}
		switch byteClass[s[i]] {
		case classNewline:
			lx.pos, lx.n = i+1, n
			return true
		case classComment:
			if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
				lx.pos = i + j + 1
			} else {
				lx.pos = len(s) + 1
			}
			lx.n = n
			return true
		case classRune:
			if r, w := utf8.DecodeRuneInString(s[i:]); unicode.IsSpace(r) {
				i += w
				continue
			}
		}
		start := i
		for i < len(s) && byteClass[s[i]] == classToken {
			i++
		}
		if i < len(s) && byteClass[s[i]] == classRune {
			i = tokenEnd(s, i)
		}
		if n < len(lx.span) {
			lx.span[n] = [2]int{start, i}
		}
		n++
	}
}

// tokenEnd returns the end of the field that goes on at s[i], past
// multi-byte runes.
func tokenEnd(s string, i int) int {
	for {
		for i < len(s) && byteClass[s[i]] == classToken {
			i++
		}
		if i == len(s) || byteClass[s[i]] != classRune {
			return i
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) {
			return i
		}
		i += w
	}
}

// opByName resolves an instruction mnemonic. A string switch compiles to
// a jump on the length and integer compares, several times faster than a
// map lookup; TestOpByName checks it against opNames.
func opByName(s string) (Op, bool) {
	switch s {
	case "nop":
		return OpNop, true
	case "const":
		return OpConst, true
	case "load":
		return OpLoad, true
	case "store":
		return OpStore, true
	case "getstatic":
		return OpGetStatic, true
	case "putstatic":
		return OpPutStatic, true
	case "dup":
		return OpDup, true
	case "pop":
		return OpPop, true
	case "swap":
		return OpSwap, true
	case "add":
		return OpAdd, true
	case "sub":
		return OpSub, true
	case "mul":
		return OpMul, true
	case "div":
		return OpDiv, true
	case "rem":
		return OpRem, true
	case "neg":
		return OpNeg, true
	case "and":
		return OpAnd, true
	case "or":
		return OpOr, true
	case "xor":
		return OpXor, true
	case "shl":
		return OpShl, true
	case "shr":
		return OpShr, true
	case "ifeq":
		return OpIfEq, true
	case "ifne":
		return OpIfNe, true
	case "iflt":
		return OpIfLt, true
	case "ifge":
		return OpIfGe, true
	case "ifgt":
		return OpIfGt, true
	case "ifle":
		return OpIfLe, true
	case "ifcmpeq":
		return OpIfCmpEq, true
	case "ifcmpne":
		return OpIfCmpNe, true
	case "ifcmplt":
		return OpIfCmpLt, true
	case "ifcmpge":
		return OpIfCmpGe, true
	case "ifcmpgt":
		return OpIfCmpGt, true
	case "ifcmple":
		return OpIfCmpLe, true
	case "goto":
		return OpGoto, true
	case "call":
		return OpCall, true
	case "ret":
		return OpRet, true
	case "newarr":
		return OpNewArr, true
	case "aload":
		return OpALoad, true
	case "astore":
		return OpAStore, true
	case "arrlen":
		return OpArrLen, true
	case "in":
		return OpIn, true
	case "print":
		return OpPrint, true
	}
	return 0, false
}

// hasImmediate reports whether the opcode's operand is the integer A.
func hasImmediate(o Op) bool {
	return o == OpConst || o == OpLoad || o == OpStore || o == OpGetStatic || o == OpPutStatic
}

// MustAssemble is Assemble for tests and built-in workloads; it panics on
// error.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

// parseInt parses an immediate as strconv.ParseInt(s, 0, 64) does. A
// plain decimal (an optional '-', then "0" or up to 18 digits without a
// leading zero, which cannot overflow) is converted here; every other
// form goes to strconv: a '+' sign, a 0x, 0o, 0b or leading-zero octal
// prefix, '_' separators, longer numbers and non-numbers.
func parseInt(s string) (int64, error) {
	d := s
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		d = s[1:]
	}
	if len(d) == 0 || len(d) > 18 || d[0] == '0' && len(d) > 1 {
		return strconv.ParseInt(s, 0, 64)
	}
	var v int64
	for i := 0; i < len(d); i++ {
		c := d[i] - '0'
		if c > 9 {
			return strconv.ParseInt(s, 0, 64)
		}
		v = v*10 + int64(c)
	}
	if neg {
		v = -v
	}
	return v, nil
}

// Dump renders the program in re-assemblable form, synthesizing labels for
// branch targets. It is AppendDump as a string.
func Dump(p *Program) string {
	return string(AppendDump(nil, p))
}

// AppendDump appends Dump's text to dst and returns the extended slice. It
// is the one canonical renderer: program digests, job IDs and fleet
// manifests are made from these bytes, so they must not change. A branch
// target pc gets the label "L<pc>".
func AppendDump(dst []byte, p *Program) []byte {
	// About 12 bytes an instruction (the workloads render 9-12), so the
	// text usually fits the first allocation.
	dst = slices.Grow(dst, 12*p.CodeSize()+32*len(p.Methods))
	dst = append(dst, "statics "...)
	dst = strconv.AppendInt(dst, int64(p.NStatics), 10)
	dst = append(dst, "\nentry "...)
	dst = append(dst, p.Methods[p.Entry].Name...)
	dst = append(dst, '\n')
	var isTarget []bool // per pc of the current method
	for _, m := range p.Methods {
		dst = append(dst, "method "...)
		dst = append(dst, m.Name...)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(m.NArgs), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(m.NLocals), 10)
		dst = append(dst, '\n')
		isTarget = slices.Grow(isTarget[:0], len(m.Code))[:len(m.Code)]
		clear(isTarget)
		for _, in := range m.Code {
			if in.Op.IsBranch() && in.Target >= 0 && int(in.Target) < len(m.Code) {
				isTarget[in.Target] = true
			}
		}
		for pc, in := range m.Code {
			if isTarget[pc] {
				dst = append(dst, 'L')
				dst = strconv.AppendInt(dst, int64(pc), 10)
				dst = append(dst, ":\n"...)
			}
			dst = append(dst, "  "...)
			dst = append(dst, in.Op.String()...)
			switch {
			case in.Op.IsBranch():
				dst = append(dst, " L"...)
				dst = strconv.AppendInt(dst, int64(in.Target), 10)
			case in.Op == OpCall:
				dst = append(dst, ' ')
				dst = append(dst, p.Methods[in.A].Name...)
			case hasImmediate(in.Op):
				dst = append(dst, ' ')
				dst = strconv.AppendInt(dst, in.A, 10)
			}
			dst = append(dst, '\n')
		}
	}
	return dst
}
