package vm

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// referenceAssemble is the line-based assembler front end the byte lexer
// replaced, kept as the reference FuzzAssembleMatchesReference checks
// Assemble against: each line is cut at '\n' and ';', split with
// referenceSplitFields and resolved through a name map; calls are all
// resolved after the last line.
func referenceAssemble(src string) (*Program, error) {
	p := &Program{Entry: -1}
	var cur *Method
	type fixup struct {
		method *Method
		pc     int
		label  string
		line   int
	}
	var fixups, callFixups []fixup
	labels := make(map[string]int)  // labels of the current method
	methods := make(map[string]int) // first method of each name
	entryName := ""
	// code collects the current method's instructions. It is reused for
	// every method, and each method gets an exactly sized copy, so the
	// program's code is allocated once rather than grown by doubling.
	var code []Instr

	finishMethod := func() error {
		if cur == nil {
			return nil
		}
		for _, fx := range fixups {
			t, ok := labels[fx.label]
			if !ok {
				return fmt.Errorf("line %d: undefined label %q in method %s", fx.line, fx.label, fx.method.Name)
			}
			code[fx.pc].Target = int32(t)
		}
		cur.Code = append([]Instr(nil), code...)
		code = code[:0]
		fixups = fixups[:0]
		clear(labels)
		return nil
	}

	for lineNo, rest, more := 0, src, true; more; lineNo++ {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		fields, n := referenceSplitFields(line)
		if n == 0 {
			continue
		}
		switch fields[0] {
		case "statics":
			if n != 2 {
				return nil, fmt.Errorf("line %d: statics wants one operand", lineNo+1)
			}
			v, err := strconv.ParseInt(fields[1], 0, 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("line %d: bad statics count %q", lineNo+1, fields[1])
			}
			p.NStatics = int(v)
			continue
		case "entry":
			if n != 2 {
				return nil, fmt.Errorf("line %d: entry wants a method name", lineNo+1)
			}
			entryName = fields[1]
			continue
		case "method":
			if err := finishMethod(); err != nil {
				return nil, err
			}
			if n != 4 {
				return nil, fmt.Errorf("line %d: method wants name nargs nlocals", lineNo+1)
			}
			nargs, err1 := strconv.ParseInt(fields[2], 0, 64)
			nlocals, err2 := strconv.ParseInt(fields[3], 0, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("line %d: bad method header", lineNo+1)
			}
			cur = &Method{Name: fields[1], NArgs: int(nargs), NLocals: int(nlocals)}
			if _, dup := methods[cur.Name]; !dup {
				methods[cur.Name] = len(p.Methods)
			}
			p.Methods = append(p.Methods, cur)
			continue
		}
		if n == 1 && strings.HasSuffix(fields[0], ":") {
			if cur == nil {
				return nil, fmt.Errorf("line %d: label outside method", lineNo+1)
			}
			name := strings.TrimSuffix(fields[0], ":")
			if _, dup := labels[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate label %q", lineNo+1, name)
			}
			labels[name] = len(code)
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("line %d: instruction outside method", lineNo+1)
		}
		op, ok := referenceNameToOp[fields[0]]
		if !ok {
			return nil, fmt.Errorf("line %d: unknown mnemonic %q", lineNo+1, fields[0])
		}
		in := Instr{Op: op}
		switch {
		case op.IsBranch():
			if n != 2 {
				return nil, fmt.Errorf("line %d: %s wants a label", lineNo+1, op)
			}
			fixups = append(fixups, fixup{cur, len(code), fields[1], lineNo + 1})
		case op == OpCall:
			if n != 2 {
				return nil, fmt.Errorf("line %d: call wants a method name", lineNo+1)
			}
			callFixups = append(callFixups, fixup{cur, len(code), fields[1], lineNo + 1})
		case hasImmediate(op):
			if n != 2 {
				return nil, fmt.Errorf("line %d: %s wants an operand", lineNo+1, op)
			}
			v, err := strconv.ParseInt(fields[1], 0, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad operand %q", lineNo+1, fields[1])
			}
			in.A = v
		default:
			if n != 1 {
				return nil, fmt.Errorf("line %d: %s takes no operand", lineNo+1, op)
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

// referenceSplitFields splits line around runs of white space as
// strings.Fields does (unicode.IsSpace): it keeps the first len(f) fields
// and counts them all.
func referenceSplitFields(line string) (f [4]string, n int) {
	start := -1
	for i, r := range line {
		switch space := unicode.IsSpace(r); {
		case !space && start < 0:
			start = i
		case space && start >= 0:
			if n < len(f) {
				f[n] = line[start:i]
			}
			n++
			start = -1
		}
	}
	if start >= 0 {
		if n < len(f) {
			f[n] = line[start:]
		}
		n++
	}
	return f, n
}

var referenceNameToOp = func() map[string]Op {
	m := make(map[string]Op, opCount)
	for o := Op(0); o < opCount; o++ {
		m[o.String()] = o
	}
	return m
}()
