package vm

import (
	"strings"
	"testing"
)

// FuzzAssemble checks the assembler never panics and that everything it
// accepts verifies and can be dumped and re-assembled to an equivalent
// program.
func FuzzAssemble(f *testing.F) {
	f.Add(gcdSrc)
	f.Add("method main 0 0\n  const 1\n  ret\n")
	f.Add("statics 2\nentry m\nmethod m 0 1\nL:\n  load 0\n  ifeq L\n  const 0\n  ret\n")
	f.Add("method main 0 0\n  call main\n  ret\n")
	f.Add("junk line")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return
		}
		if err := Verify(p); err != nil {
			t.Fatalf("Assemble accepted a program Verify rejects: %v", err)
		}
		p2, err := Assemble(Dump(p))
		if err != nil {
			t.Fatalf("Dump output does not reassemble: %v", err)
		}
		r1, err1 := Run(p, RunOptions{StepLimit: 50_000})
		r2, err2 := Run(p2, RunOptions{StepLimit: 50_000})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("round trip changed fate: %v vs %v", err1, err2)
		}
		if err1 == nil && !SameBehavior(r1, r2) {
			t.Fatal("round trip changed behavior")
		}
	})
}

// FuzzSplitFields checks the assembler lexer's field split against
// strings.Fields, the tokenizer it replaced: for every line of the input,
// cut at its first ';', the same field count and the same first fields,
// Unicode white space and invalid UTF-8 included.
func FuzzSplitFields(f *testing.F) {
	for _, s := range []string{
		"", " ", "const 1", "  method main 0 0  ", "a\tb\vc\fd\re",
		"method\u00a0main\u20030\u30000", "\u0085const\u2028 1\u2029", "const\u200b1",
		"\xff \xc2\xa0 \xc2", "a b c d e f g", "ifeq\u1680L\u205fM",
		"ret;x", "a\nb c\n\n d;e f\ng", "\xc2;\xa0", "x\r\n", "\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		lx := lexer{src: src}
		for i, line := range strings.Split(src, "\n") {
			if !lx.next() {
				t.Fatalf("lexer of %q ends after %d lines, want %d", src, i, strings.Count(src, "\n")+1)
			}
			if lx.line != i+1 {
				t.Fatalf("lexer of %q numbers line %d as %d", src, i+1, lx.line)
			}
			line, _, _ = strings.Cut(line, ";")
			n := lx.n
			want := strings.Fields(line)
			if n != len(want) {
				t.Fatalf("lexer line %q counts %d fields, strings.Fields %d: %q", line, n, len(want), want)
			}
			for j := 0; j < min(n, len(lx.span)); j++ {
				if got := lx.field(j); got != want[j] {
					t.Fatalf("lexer line %q field %d = %q, strings.Fields %q", line, j, got, want[j])
				}
			}
		}
		if lx.next() {
			t.Fatalf("lexer of %q reads past its last line", src)
		}
	})
}

// TestOpByName checks the mnemonic switch against opNames: every opcode's
// name resolves to it, and nothing else does.
func TestOpByName(t *testing.T) {
	for o := Op(0); o < opCount; o++ {
		if got, ok := opByName(o.String()); !ok || got != o {
			t.Errorf("opByName(%q) = %v, %v; want %v", o.String(), got, ok, o)
		}
	}
	for _, s := range []string{"", "op(41)", "Const", "const ", "ifcmp", "statics", "entry", "method", "loa", "loadd"} {
		if o, ok := opByName(s); ok {
			t.Errorf("opByName(%q) = %v, want no opcode", s, o)
		}
	}
}

// FuzzInterpreterRobustness runs structurally valid but adversarial
// programs: the interpreter must always terminate with a result or a
// RuntimeError, never panic.
func FuzzInterpreterRobustness(f *testing.F) {
	f.Add(int64(1), uint8(10))
	f.Add(int64(99), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8) {
		// Build a random but verifiable straight-line-with-branches
		// program directly from the fuzz input bytes.
		var sb strings.Builder
		sb.WriteString("statics 1\nmethod main 0 2\n  const 0\n  store 0\n  const 0\n  store 1\n")
		x := seed
		n := int(nRaw)%40 + 1
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			switch uint64(x) % 7 {
			case 0:
				sb.WriteString("  load 0\n  const 3\n  add\n  store 0\n")
			case 1:
				sb.WriteString("  load 0\n  load 1\n  xor\n  store 1\n")
			case 2:
				sb.WriteString("  load 0\n  print\n")
			case 3:
				sb.WriteString("  load 1\n  const 7\n  and\n  const 1\n  add\n  store 1\n")
			case 4:
				sb.WriteString("  load 0\n  load 1\n  div\n  store 0\n") // may trap: local1 could be 0
			case 5:
				sb.WriteString("  const 4\n  newarr\n  pop\n")
			default:
				sb.WriteString("  load 0\n  neg\n  store 0\n")
			}
		}
		sb.WriteString("  load 0\n  ret\n")
		p, err := Assemble(sb.String())
		if err != nil {
			t.Fatalf("generated source failed to assemble: %v", err)
		}
		// Must either complete or fault cleanly.
		if _, err := Run(p, RunOptions{StepLimit: 100_000}); err != nil {
			var re *RuntimeError
			if !errorsAs(err, &re) {
				t.Fatalf("non-RuntimeError failure: %v", err)
			}
		}
	})
}

func errorsAs(err error, target **RuntimeError) bool {
	for err != nil {
		if re, ok := err.(*RuntimeError); ok {
			*target = re
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
