package vm_test

import (
	"fmt"
	"reflect"
	"testing"

	"pathmark/internal/vm"
)

// FuzzAssembleMatchesReference checks Assemble's byte lexer against the
// line-based front end it replaced: for every source, the same program
// (reflect.DeepEqual) or the same error text.
func FuzzAssembleMatchesReference(f *testing.F) {
	for _, src := range vm.AssembleCaseSources() {
		f.Add(src)
	}
	for _, c := range dumpCorpus(f) {
		f.Add(vm.Dump(c.prog))
	}
	for _, s := range []string{
		// Line ends, Unicode white space and invalid UTF-8.
		"method main 0 0\r\n  const 1\r\n  ret\r\n",
		"method\u0085main\u00a00 0\n\u2028const\u00a01\u0085\n  ret\u2028\n",
		"method main 0 0\n  const\u200b 1\n  ret\n",
		"method main 0 0\n\u200b  const 1\n  ret\n",
		"method m\xff 0 0\n  const 1\n  ret\nentry m\xff\n",
		"method main 0 0\n  const 1\xc2\n  ret\n",
		"method main 0 0\n  const 1\n  ret\xe2\x80\n",
		"method main 0 0\n\xc2;\xa0\n  const 1\n  ret\n",
		// ';' glued to tokens.
		"method main 0 0\n  const 1;x\n  ret;\n",
		"method main 0 0;\n  const;1\n  ret\n",
		"method main 0 0\nL:;\n  const 0\n  ifeq L;x\n  const 1\n  ret\n",
		"statics 2;3\nentry f;g\nmethod f 0 0\n  call f;\n  ret\n",
		// Calls backward, forward, to itself and to a duplicate name.
		"method main 0 0\n  call g\n  ret\nmethod g 0 0\n  call main\n  pop\n  call g\n  ret\n",
		"method g 0 0\n  const 1\n  ret\nmethod main 0 0\n  call g\n  ret\nmethod g 0 0\n  const 2\n  ret\n",
	} {
		f.Add(s)
	}
	for _, imm := range []string{"+5", "-0", "007", "0x_1F", "1_000", "9223372036854775808", "-9223372036854775808",
		"9223372036854775807", "-9223372036854775807", "999999999999999999", "-999999999999999999", "1000000000000000000",
		"08", "0b101", "0o17", "0X1f", "-", "+", "--1", "1e3"} {
		f.Add(fmt.Sprintf("method main 0 0\n  const %s\n  ret\n", imm))
		f.Add(fmt.Sprintf("statics %s\nmethod main %s 1\n  const 1\n  ret\n", imm, imm))
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := vm.ReferenceAssemble(src)
		got, err := vm.Assemble(src)
		if errText(err) != errText(wantErr) {
			t.Fatalf("Assemble(%q) error %q, reference %q", src, errText(err), errText(wantErr))
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("Assemble(%q) program differs from the reference's", src)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
