package vm_test

import (
	"fmt"
	"testing"

	"pathmark/internal/vm"
)

// sameVerdict describes how two verifier results differ ("" when both
// are nil or carry the same text).
func sameVerdict(want, got error) string {
	if (want == nil) != (got == nil) || want != nil && want.Error() != got.Error() {
		return fmt.Sprintf("reference %v, got %v", want, got)
	}
	return ""
}

// FuzzVerifyMatchesReference requires the inline stack walk to reject
// exactly what the walk that queued every successor rejected, with the
// same error text: on TestVerifyRejects' programs, on generated
// programs whole, and on each of their methods alone.
func FuzzVerifyMatchesReference(f *testing.F) {
	for i, p := range vm.VerifyRejects {
		if d := sameVerdict(vm.ReferenceVerify(p), vm.Verify(p)); d != "" {
			f.Errorf("reject case %d: %s", i, d)
		}
	}
	// A loop whose head is reached at three heights: the walk's order
	// decides which pair of heights the error names.
	f.Add(fuzzBytes(&vm.Method{Name: "main", NLocals: 3, Code: []vm.Instr{
		{Op: vm.OpGetStatic}, {Op: vm.OpDup}, {Op: vm.OpDup}, {Op: vm.OpIfGe, Target: 5}, {Op: vm.OpDup},
		{Op: vm.OpDup}, {Op: vm.OpDup}, {Op: vm.OpDup}, {Op: vm.OpGoto, Target: 3},
	}}))
	f.Add([]byte{0, 1, byte(vm.OpConst), 2, 1, byte(vm.OpIfNe), 2, 1})
	f.Add([]byte("\x01\x10\x01\x05\x00\x15\x02\x03\x1c\x00\x01\x20\x01\x04\x22\x00\x00"))
	for _, seed := range append(append(pieceSeeds, fallbackSeeds...), seedLoadOutOfRange, seedStoreOutOfRange,
		seedConstAddUnderflow, seedStoreLoadUnderflow, seedBranchOutOfRange, seedHotLoopColdCall) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(data)
		if d := sameVerdict(vm.ReferenceVerify(p), vm.Verify(p)); d != "" {
			t.Fatalf("Verify: %s", d)
		}
		for i := range p.Methods {
			if d := sameVerdict(vm.ReferenceVerifyMethod(p, i), vm.VerifyMethod(p, i)); d != "" {
				t.Fatalf("VerifyMethod(%d): %s", i, d)
			}
		}
	})
}
