package vm

import (
	"errors"
	"strings"
	"testing"
)

const gcdSrc = `
; Figure 2's greatest-common-divisor program: gcd(25, 10) = 5.
statics 0
entry main
method main 0 2
  const 25
  store 0
  const 10
  store 1
loop:
  load 0
  load 1
  rem
  ifeq done
  load 1
  load 0
  load 1
  rem
  store 1
  store 0
  goto loop
done:
  load 1
  print
  load 1
  ret
`

func mustRun(t testing.TB, p *Program, input []int64) *Result {
	t.Helper()
	res, err := Run(p, RunOptions{Input: input})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGCD(t *testing.T) {
	p := MustAssemble(gcdSrc)
	res := mustRun(t, p, nil)
	if res.Return != 5 {
		t.Errorf("gcd(25,10) = %d, want 5", res.Return)
	}
	if len(res.Output) != 1 || res.Output[0] != 5 {
		t.Errorf("output = %v, want [5]", res.Output)
	}
}

func TestArithmeticOps(t *testing.T) {
	cases := []struct {
		body string
		want int64
	}{
		{"const 7\n const 3\n add\n ret", 10},
		{"const 7\n const 3\n sub\n ret", 4},
		{"const 7\n const 3\n mul\n ret", 21},
		{"const 7\n const 3\n div\n ret", 2},
		{"const 7\n const 3\n rem\n ret", 1},
		{"const -7\n const 3\n div\n ret", -2},
		{"const 7\n neg\n ret", -7},
		{"const 12\n const 10\n and\n ret", 8},
		{"const 12\n const 10\n or\n ret", 14},
		{"const 12\n const 10\n xor\n ret", 6},
		{"const 1\n const 4\n shl\n ret", 16},
		{"const -16\n const 2\n shr\n ret", -4},
		{"const 5\n dup\n add\n ret", 10},
		{"const 5\n const 9\n swap\n sub\n ret", 4},
		{"const 5\n const 9\n pop\n ret", 5},
	}
	for _, c := range cases {
		src := "method main 0 0\n " + c.body + "\n"
		p, err := Assemble(src)
		if err != nil {
			t.Fatalf("assemble %q: %v", c.body, err)
		}
		res := mustRun(t, p, nil)
		if res.Return != c.want {
			t.Errorf("%q = %d, want %d", c.body, res.Return, c.want)
		}
	}
}

func TestConditionalBranches(t *testing.T) {
	// For each branch kind, check taken and not-taken.
	cases := []struct {
		op   string
		v    int64
		take bool
	}{
		{"ifeq", 0, true}, {"ifeq", 1, false},
		{"ifne", 0, false}, {"ifne", -2, true},
		{"iflt", -1, true}, {"iflt", 0, false},
		{"ifge", 0, true}, {"ifge", -1, false},
		{"ifgt", 1, true}, {"ifgt", 0, false},
		{"ifle", 0, true}, {"ifle", 1, false},
	}
	for _, c := range cases {
		src := `
method main 0 0
  const ` + itoa(c.v) + `
  ` + c.op + ` yes
  const 0
  ret
yes:
  const 1
  ret
`
		p := MustAssemble(src)
		res := mustRun(t, p, nil)
		want := int64(0)
		if c.take {
			want = 1
		}
		if res.Return != want {
			t.Errorf("%s(%d): taken=%d, want %d", c.op, c.v, res.Return, want)
		}
	}
	cmpCases := []struct {
		op   string
		a, b int64
		take bool
	}{
		{"ifcmpeq", 3, 3, true}, {"ifcmpeq", 3, 4, false},
		{"ifcmpne", 3, 4, true}, {"ifcmpne", 3, 3, false},
		{"ifcmplt", 3, 4, true}, {"ifcmplt", 4, 4, false},
		{"ifcmpge", 4, 4, true}, {"ifcmpge", 3, 4, false},
		{"ifcmpgt", 5, 4, true}, {"ifcmpgt", 4, 4, false},
		{"ifcmple", 4, 4, true}, {"ifcmple", 5, 4, false},
	}
	for _, c := range cmpCases {
		src := `
method main 0 0
  const ` + itoa(c.a) + `
  const ` + itoa(c.b) + `
  ` + c.op + ` yes
  const 0
  ret
yes:
  const 1
  ret
`
		p := MustAssemble(src)
		res := mustRun(t, p, nil)
		want := int64(0)
		if c.take {
			want = 1
		}
		if res.Return != want {
			t.Errorf("%s(%d,%d): taken=%d, want %d", c.op, c.a, c.b, res.Return, want)
		}
	}
}

func itoa(v int64) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

func TestMethodCalls(t *testing.T) {
	src := `
method main 0 0
  const 6
  const 7
  call mulxy
  ret
method mulxy 2 2
  load 0
  load 1
  mul
  ret
`
	p := MustAssemble(src)
	if res := mustRun(t, p, nil); res.Return != 42 {
		t.Errorf("mulxy(6,7) = %d, want 42", res.Return)
	}
}

func TestRecursion(t *testing.T) {
	src := `
method main 0 0
  const 10
  call fib
  ret
method fib 1 1
  load 0
  const 2
  ifcmplt base
  load 0
  const 1
  sub
  call fib
  load 0
  const 2
  sub
  call fib
  add
  ret
base:
  load 0
  ret
`
	p := MustAssemble(src)
	if res := mustRun(t, p, nil); res.Return != 55 {
		t.Errorf("fib(10) = %d, want 55", res.Return)
	}
}

func TestStaticsAndArrays(t *testing.T) {
	src := `
statics 2
method main 0 1
  const 5
  newarr
  store 0
  load 0
  const 2
  const 99
  astore
  load 0
  const 2
  aload
  putstatic 0
  getstatic 0
  load 0
  arrlen
  add
  ret
`
	p := MustAssemble(src)
	if res := mustRun(t, p, nil); res.Return != 104 {
		t.Errorf("got %d, want 104", res.Return)
	}
}

func TestInputSequence(t *testing.T) {
	src := `
method main 0 0
  in
  in
  add
  in
  add
  ret
`
	p := MustAssemble(src)
	res := mustRun(t, p, []int64{10, 20, 30})
	if res.Return != 60 {
		t.Errorf("sum of inputs = %d, want 60", res.Return)
	}
	// Exhausted input yields zeros.
	res = mustRun(t, p, []int64{10})
	if res.Return != 10 {
		t.Errorf("sum with exhausted input = %d, want 10", res.Return)
	}
}

func TestRuntimeFaults(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"div by zero", "method main 0 0\n const 1\n const 0\n div\n ret\n"},
		{"rem by zero", "method main 0 0\n const 1\n const 0\n rem\n ret\n"},
		{"array oob", "method main 0 0\n const 1\n newarr\n const 5\n aload\n ret\n"},
		{"bad ref", "method main 0 0\n const 77\n const 0\n aload\n ret\n"},
		{"neg array size", "method main 0 0\n const -1\n newarr\n ret\n"},
	}
	for _, c := range cases {
		p, err := Assemble(c.src)
		if err != nil {
			t.Fatalf("%s: assemble: %v", c.name, err)
		}
		if _, err := Run(p, RunOptions{}); err == nil {
			t.Errorf("%s: expected runtime error", c.name)
		}
	}
}

// TestUnverifiedControlFaults runs hand-built programs (Assemble would
// reject them) whose control leaves the method or whose instruction is
// malformed. Every run mode must return the same *RuntimeError, located
// at the offending instruction, instead of panicking.
func TestUnverifiedControlFaults(t *testing.T) {
	method := func(name string, nargs, nlocals int, code ...Instr) *Method {
		return &Method{Name: name, NArgs: nargs, NLocals: nlocals, Code: code}
	}
	ret7 := method("seven", 0, 0, Instr{Op: OpConst, A: 7}, Instr{Op: OpRet})
	cases := []struct {
		name   string
		prog   *Program
		wantPC int
		msg    string
		method string
	}{
		{"branch falls through past end", &Program{Methods: []*Method{method("main", 0, 0,
			Instr{Op: OpConst}, Instr{Op: OpIfNe})}}, 1, "branch to pc 2", "main"},
		{"branch taken past end", &Program{Methods: []*Method{method("main", 0, 0,
			Instr{Op: OpConst, A: 1}, Instr{Op: OpIfNe, Target: 9}, Instr{Op: OpRet})}}, 1, "branch to pc 9", "main"},
		{"branch taken to negative pc", &Program{Methods: []*Method{method("main", 0, 0,
			Instr{Op: OpConst}, Instr{Op: OpConst}, Instr{Op: OpIfCmpEq, Target: -1}, Instr{Op: OpRet})}}, 2, "branch to pc -1", "main"},
		{"goto past end", &Program{Methods: []*Method{method("main", 0, 0,
			Instr{Op: OpGoto, Target: 5}, Instr{Op: OpRet})}}, 0, "branch to pc 5", "main"},
		{"return into end of caller", &Program{Methods: []*Method{method("main", 0, 0,
			Instr{Op: OpCall, A: 1}), ret7}}, 1, "fell off end", "main"},
		{"callee out of range", &Program{Methods: []*Method{method("main", 0, 0,
			Instr{Op: OpCall, A: 4}, Instr{Op: OpRet})}}, 0, "callee index", "main"},
		{"callee args exceed locals", &Program{Methods: []*Method{method("main", 0, 0,
			Instr{Op: OpConst}, Instr{Op: OpCall, A: 1}, Instr{Op: OpRet}), method("f", 1, 0, Instr{Op: OpRet})}}, 1, "takes 1 args", "main"},
		{"invalid opcode", &Program{Methods: []*Method{method("main", 0, 0,
			Instr{Op: opCount + 3}, Instr{Op: OpRet})}}, 0, "invalid opcode", "main"},
		{"entry out of range", &Program{Methods: []*Method{ret7}, Entry: 3}, 0, "entry method 3 out of range", "?"},
		{"negative entry", &Program{Methods: []*Method{ret7}, Entry: -1}, 0, "entry method -1 out of range", "?"},
		{"entry with negative locals", &Program{Methods: []*Method{method("main", 0, -1,
			Instr{Op: OpConst}, Instr{Op: OpRet})}}, 0, "negative local count -1", "main"},
		{"negative statics", &Program{Methods: []*Method{method("main", 0, 0,
			Instr{Op: OpConst}, Instr{Op: OpRet})}, NStatics: -2}, 0, "negative static count -2", "main"},
	}
	for _, c := range cases {
		_, err := Run(c.prog, RunOptions{})
		var re *RuntimeError
		if !errors.As(err, &re) {
			t.Errorf("%s: Run returned %v, want a *RuntimeError", c.name, err)
			continue
		}
		if re.Method != c.method || re.PC != c.wantPC || !strings.Contains(re.Msg, c.msg) {
			t.Errorf("%s: fault %+v, want %s at pc %d with %q", c.name, *re, c.method, c.wantPC, c.msg)
		}
		_, _, errTrace := CollectWith(c.prog, RunOptions{})
		_, _, errBits := CollectBits(c.prog, RunOptions{})
		for mode, e := range map[string]error{"CollectWith": errTrace, "CollectBits": errBits} {
			var got *RuntimeError
			if !errors.As(e, &got) || *got != *re {
				t.Errorf("%s: %s returned %v, want Run's %v", c.name, mode, e, re)
			}
		}
	}
}

func TestStepLimit(t *testing.T) {
	src := "method main 0 0\nspin:\n  goto spin\n"
	p := MustAssemble(src)
	_, err := Run(p, RunOptions{StepLimit: 1000})
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("expected step-limit error, got %v", err)
	}
}

func TestCallDepthLimit(t *testing.T) {
	src := `
method main 0 0
  call main
  ret
`
	p := MustAssemble(src)
	if _, err := Run(p, RunOptions{MaxDepth: 50}); err == nil {
		t.Error("expected call depth error")
	}
}

// verifyRejects are programs Verify must reject, one reason each; the
// last is TestVerifyInconsistentStackHeights' source, built by hand since
// the assembler verifies what it builds.
var verifyRejects = []*Program{
	{Methods: []*Method{{Name: "m", Code: []Instr{{Op: OpRet}}}}},                                                                        // ret underflow? ret pops 1 from empty
	{Methods: []*Method{{Name: "m", Code: []Instr{{Op: OpConst}, {Op: OpRet}}}}, Entry: 5},                                               // bad entry
	{Methods: []*Method{{Name: "m", Code: []Instr{{Op: OpLoad, A: 3}, {Op: OpRet}}}}},                                                    // local oob
	{Methods: []*Method{{Name: "m", Code: []Instr{{Op: OpConst}, {Op: OpGoto, Target: 9}}}}},                                             // target oob
	{Methods: []*Method{{Name: "m", Code: []Instr{{Op: OpConst}}}}},                                                                      // falls off end
	{Methods: []*Method{{Name: "m", Code: []Instr{{Op: OpGetStatic, A: 0}, {Op: OpRet}}}}},                                               // static oob
	{Methods: []*Method{{Name: "m", Code: []Instr{{Op: OpCall, A: 4}, {Op: OpRet}}}}},                                                    // callee oob
	{Methods: []*Method{{Name: "m", Code: []Instr{{Op: OpAdd}, {Op: OpConst}, {Op: OpRet}}}}},                                            // add underflow
	{Methods: []*Method{{Name: "a", Code: []Instr{{Op: OpConst}, {Op: OpRet}}}, {Name: "a", Code: []Instr{{Op: OpConst}, {Op: OpRet}}}}}, // dup name
	{Methods: []*Method{{Name: "main", Code: []Instr{ // inconsistent heights
		{Op: OpConst, A: 1}, {Op: OpIfEq, Target: 3}, {Op: OpConst, A: 9}, {Op: OpConst}, {Op: OpRet}}}}},
}

func TestVerifyRejects(t *testing.T) {
	for i, p := range verifyRejects {
		if err := Verify(p); err == nil {
			t.Errorf("case %d: Verify accepted invalid program", i)
		}
	}
}

func TestVerifyInconsistentStackHeights(t *testing.T) {
	// Join point reached with heights 1 and 2.
	src := `
method main 0 0
  const 1
  ifeq join
  const 9
join:
  const 0
  ret
`
	if _, err := Assemble(src); err == nil {
		t.Error("expected stack-height inconsistency error")
	}
}

// assembleCases are TestAssembleErrors' sources and verdicts, at package
// level so FuzzAssembleMatchesReference can start from the same sources.
var assembleCases = []struct{ src, err string }{
	{"method main 0 0\n  bogus\n  ret\n", "line 2: unknown mnemonic \"bogus\""},
	{"method main 0 0\n  goto nowhere\n  const 0\n  ret\n", "line 2: undefined label \"nowhere\" in method main"},
	{"method main 0 0\n  call nothing\n  ret\n", "line 2: call to undefined method \"nothing\""},
	{"entry missing\nmethod main 0 0\n  const 0\n  ret\n", "entry method \"missing\" not defined"},
	{"method main 0 0\nL:\nL:\n  const 0\n  ret\n", "line 3: duplicate label \"L\""},
	{"  const 1\n", "line 1: instruction outside method"},
	{"method main 0 0\n  const\n  ret\n", "line 2: const wants an operand"},
	{"", "entry method \"main\" not defined"},
	{"\n\n; only a comment\n", "entry method \"main\" not defined"},
	{"L:\n", "line 1: label outside method"},
	{"statics\n", "line 1: statics wants one operand"},
	{"statics -1\n", "line 1: bad statics count \"-1\""},
	{"statics 1 2\n", "line 1: statics wants one operand"},
	{"statics x\nmethod main 0 0\n  const 0\n  ret\n", "line 1: bad statics count \"x\""},
	{"entry\n", "line 1: entry wants a method name"},
	{"entry a b\n", "line 1: entry wants a method name"},
	{"method main 0\n", "line 1: method wants name nargs nlocals"},
	{"method main 0 0 0\n", "line 1: method wants name nargs nlocals"},
	{"method main x 0\n", "line 1: bad method header"},
	{"method main 0 0\n  const 1 2\n  ret\n", "line 2: const wants an operand"},
	{"method main 0 0\n  const 0x\n  ret\n", "line 2: bad operand \"0x\""},
	{"method main 0 0\n  const 99999999999999999999\n  ret\n", "line 2: bad operand \"99999999999999999999\""},
	{"method main 0 0\n  goto\n  ret\n", "line 2: goto wants a label"},
	{"method main 0 0\n  goto a b\n  ret\n", "line 2: goto wants a label"},
	{"method main 0 0\n  call\n  ret\n", "line 2: call wants a method name"},
	{"method main 0 0\n  call a b\n  ret\n", "line 2: call wants a method name"},
	{"method main 0 0\n  ret 1\n", "line 2: ret takes no operand"},
	{"method main 0 0\n  ret\n", "vm: method main: pc 0: stack underflow (ret needs 1, has 0)"},
	{"method main 0 0\n  const 0\n  ret\nmethod main 0 0\n  const 0\n  ret\n", "vm: duplicate method name \"main\""},
	{"method main 0 0\n  call f\n  ret\nmethod f 0 0\n  const 0\n  ret\nmethod f 0 0\n  const 1\n  ret\n", "vm: duplicate method name \"f\""},
	{"method main 0 0\nL: extra\n  const 0\n  ret\n", "line 2: unknown mnemonic \"L:\""},
	{"method main 0 0\n:\n  goto \n  const 0\n  ret\n", "line 3: goto wants a label"},
	{"method main 0 0\r\n  const 1\r\n  ret\r\n", ""},
	{"method\u00a0main\u20030\u30000\n\u0085const\v1\f\n  ret\n", ""},
	{"method main 0 0\n  const 1 ; trailing ; comment\n  ret;x\n", ""},
	{"method main 0 0\n  const\u200b1\n  ret\n", "line 2: unknown mnemonic \"const\\u200b1\""},
	{"method main 0 0\n  const \xff\n  ret\n", "line 2: bad operand \"\\xff\""},
	{"method m\u00a0 0 0\n  const 1\n  ret\nentry m\n", ""},
	{"entry f\nmethod f -1 0\n  const 1\n  ret\n", "vm: method f: NLocals 0 < NArgs -1"},
	{"method main 0 1\n  const 0x10\n  store 0\n  load 0\n  ifeq done\n  const -7\n  pop\ndone:\n  const 0\n  ret\n", ""},
	{"method main 0 0\n  const 1\n  goto L\nL:\n  ret\nmethod main2 0 0\nL:\n  goto L\n", ""},
	{"method main 0 0\n  goto L\n  const 0\n  ret\nmethod g 0 0\nL:\n  const 0\n  ret\n", "line 2: undefined label \"L\" in method main"},
}

// TestAssembleErrors pins the assembler's verdict on malformed and
// unusual sources: the exact error text, line number included, or ""
// where the source assembles. Unicode white space separates fields as it
// does for strings.Fields; a zero-width space does not.
func TestAssembleErrors(t *testing.T) {
	for _, c := range assembleCases {
		_, err := Assemble(c.src)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != c.err {
			t.Errorf("Assemble(%q) error %q, want %q", c.src, got, c.err)
		}
	}
}

func TestDumpRoundTrip(t *testing.T) {
	p := MustAssemble(gcdSrc)
	dumped := Dump(p)
	p2, err := Assemble(dumped)
	if err != nil {
		t.Fatalf("reassemble dump: %v\n%s", err, dumped)
	}
	r1 := mustRun(t, p, nil)
	r2 := mustRun(t, p2, nil)
	if !SameBehavior(r1, r2) {
		t.Error("dump/reassemble changed behavior")
	}
}

func TestCFGStructure(t *testing.T) {
	p := MustAssemble(gcdSrc)
	cfg := BuildCFG(p.Methods[0])
	if cfg.NumBlocks() < 3 {
		t.Fatalf("gcd CFG has %d blocks, want >= 3", cfg.NumBlocks())
	}
	// Every pc belongs to exactly one block and blocks tile the code.
	covered := 0
	for _, b := range cfg.Blocks {
		if b.End <= b.Start {
			t.Errorf("empty block %+v", b)
		}
		covered += b.End - b.Start
		for pc := b.Start; pc < b.End; pc++ {
			if cfg.BlockOf(pc) != b.Index {
				t.Errorf("BlockOf(%d) = %d, want %d", pc, cfg.BlockOf(pc), b.Index)
			}
		}
	}
	if covered != len(p.Methods[0].Code) {
		t.Errorf("blocks cover %d instructions, want %d", covered, len(p.Methods[0].Code))
	}
	// The loop-condition block must end in a conditional branch.
	found := false
	for _, b := range cfg.Blocks {
		if p.Methods[0].Code[b.End-1].Op.IsCondBranch() {
			found = true
		}
	}
	if !found {
		t.Error("no block ending in a conditional branch in gcd CFG")
	}
}

func TestTraceBlockEventsAndCounts(t *testing.T) {
	p := MustAssemble(gcdSrc)
	tr, res, err := Collect(p, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Return != 5 {
		t.Fatalf("traced run returned %d", res.Return)
	}
	if len(tr.Events) == 0 {
		t.Fatal("no trace events")
	}
	if tr.Events[0].Kind != EvBlockEnter {
		t.Error("trace does not start with a block entry")
	}
	// gcd(25,10): loop condition evaluated until remainder 0; branch execs > 1.
	if n := tr.NumBranchExecs(); n < 2 {
		t.Errorf("branch execs = %d, want >= 2", n)
	}
	// Loop head must be counted more than once.
	maxCount := int64(0)
	for _, m := range tr.Blocks.Methods {
		for _, c := range m.Count {
			maxCount = max(maxCount, c)
		}
	}
	if maxCount < 2 {
		t.Errorf("hottest block count = %d, want >= 2", maxCount)
	}
}

func TestTraceSnapshotLimit(t *testing.T) {
	p := MustAssemble(gcdSrc)
	tr, _, err := Collect(p, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	for mi, m := range tr.Blocks.Methods {
		for bi := range m.Count {
			snaps := m.Snapshots(bi)
			if len(snaps) > 2 {
				t.Errorf("block %d/%d has %d snapshots, want <= 2", mi, bi, len(snaps))
			}
			for _, s := range snaps {
				if len(s.Locals) != p.Methods[mi].NLocals {
					t.Errorf("snapshot locals len %d, want %d", len(s.Locals), p.Methods[mi].NLocals)
				}
			}
		}
	}
}

func TestDecodeBitsFirstOccurrenceIsZero(t *testing.T) {
	p := MustAssemble(gcdSrc)
	tr, _, err := Collect(p, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	bits := tr.DecodeBits()
	if bits.Len() == 0 {
		t.Fatal("decoded bit-string is empty")
	}
	if bits.Bit(0) {
		t.Error("first decoded bit is 1; first occurrences must decode to 0")
	}
}

func TestDecodeBitsInvariantUnderBranchSenseInversion(t *testing.T) {
	// Manually flip the sense of the gcd loop branch and swap code so
	// semantics are preserved; the decoded bit-string must not change.
	src1 := `
method main 0 1
  const 3
  store 0
loop:
  load 0
  ifeq done
  load 0
  const 1
  sub
  store 0
  goto loop
done:
  const 0
  ret
`
	src2 := `
method main 0 1
  const 3
  store 0
loop:
  load 0
  ifne body
  goto done
body:
  load 0
  const 1
  sub
  store 0
  goto loop
done:
  const 0
  ret
`
	p1, p2 := MustAssemble(src1), MustAssemble(src2)
	t1, _, err := Collect(p1, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := Collect(p2, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := t1.DecodeBits(), t2.DecodeBits()
	if b1.String() != b2.String() {
		t.Errorf("bit-strings differ under branch-sense inversion:\n%s\n%s", b1, b2)
	}
}

func TestDecodeBitsLoopPattern(t *testing.T) {
	// A loop running n times emits, for its condition branch: first
	// occurrence 0, then 0 for every same-direction repeat, then 1 on exit.
	src := `
method main 0 1
  const 4
  store 0
loop:
  load 0
  ifeq done
  load 0
  const 1
  sub
  store 0
  goto loop
done:
  const 0
  ret
`
	p := MustAssemble(src)
	tr, _, err := Collect(p, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.DecodeBits().String()
	want := "00001" // 4 not-taken iterations (first is priming 0) + exit 1
	if got != want {
		t.Errorf("decoded = %q, want %q", got, want)
	}
}

func TestInsertAtPreservesSemanticsAndLoops(t *testing.T) {
	p := MustAssemble(gcdSrc)
	before := mustRun(t, p, nil)
	m := p.Methods[0]
	// Insert stack-neutral code at the loop head (pc 4 = "load 0" of loop).
	m.InsertAt(4, []Instr{{Op: OpConst, A: 1}, {Op: OpPop}})
	if err := Verify(p); err != nil {
		t.Fatalf("verify after InsertAt: %v", err)
	}
	after := mustRun(t, p, nil)
	if !SameBehavior(before, after) {
		t.Error("InsertAt changed behavior")
	}
	if after.Steps <= before.Steps+2 {
		t.Errorf("inserted loop-head code did not execute per iteration: steps %d vs %d", after.Steps, before.Steps)
	}
}

func TestInsertAfterSkipsBranchTargets(t *testing.T) {
	src := `
method main 0 1
  const 2
  store 0
loop:
  load 0
  ifeq done
  load 0
  const 1
  sub
  store 0
  goto loop
done:
  const 7
  ret
`
	p := MustAssemble(src)
	before := mustRun(t, p, nil)
	m := p.Methods[0]
	// Insert after the "ifeq done" branch (pc 3): only on fall-through.
	m.InsertAfter(3, []Instr{{Op: OpConst, A: 5}, {Op: OpPop}})
	if err := Verify(p); err != nil {
		t.Fatalf("verify after InsertAfter: %v", err)
	}
	after := mustRun(t, p, nil)
	if !SameBehavior(before, after) {
		t.Error("InsertAfter changed behavior")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := MustAssemble(gcdSrc)
	q := p.Clone()
	q.Methods[0].Code[0].A = 999
	q.NStatics = 55
	if p.Methods[0].Code[0].A == 999 || p.NStatics == 55 {
		t.Error("Clone shares state with original")
	}
}

func TestNegateCond(t *testing.T) {
	conds := []Op{OpIfEq, OpIfNe, OpIfLt, OpIfGe, OpIfGt, OpIfLe,
		OpIfCmpEq, OpIfCmpNe, OpIfCmpLt, OpIfCmpGe, OpIfCmpGt, OpIfCmpLe}
	for _, o := range conds {
		if NegateCond(NegateCond(o)) != o {
			t.Errorf("NegateCond not involutive for %v", o)
		}
	}
}

func TestProgramMetrics(t *testing.T) {
	p := MustAssemble(gcdSrc)
	if p.CodeSize() != len(p.Methods[0].Code) {
		t.Error("CodeSize mismatch")
	}
	if p.CountCondBranches() != 1 {
		t.Errorf("CountCondBranches = %d, want 1", p.CountCondBranches())
	}
}

func TestDecodeRuleAblationBranchSense(t *testing.T) {
	// The §3.1 argument: the naive taken/not-taken bit-string flips under
	// branch-sense inversion, while the paper's first-successor rule is
	// invariant. Invert the sense of the gcd loop branch by hand.
	orig := MustAssemble(`
method main 0 1
  const 3
  store 0
loop:
  load 0
  ifeq done
  load 0
  const 1
  sub
  store 0
  goto loop
done:
  const 0
  ret
`)
	inverted := MustAssemble(`
method main 0 1
  const 3
  store 0
loop:
  load 0
  ifne body
  goto done
body:
  load 0
  const 1
  sub
  store 0
  goto loop
done:
  const 0
  ret
`)
	t1, _, err := Collect(orig, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := Collect(inverted, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if t1.DecodeBits().String() != t2.DecodeBits().String() {
		t.Error("paper's decode rule changed under branch-sense inversion")
	}
	if t1.DecodeBitsBranchSense().String() == t2.DecodeBitsBranchSense().String() {
		t.Error("naive branch-sense rule unexpectedly invariant; ablation baseline broken")
	}
}
