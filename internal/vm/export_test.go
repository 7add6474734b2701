package vm

// FusedWindows is the fused set's instruction windows in dispatch-byte
// order, for the external fuzz generator.
var FusedWindows = func() (ws [][]Op) {
	for d := opLoadConst; fusedWindows[d] != nil; d++ {
		ws = append(ws, fusedWindows[d])
	}
	return ws
}()

// ReferenceAssemble is the line-based assembler front end the byte lexer
// replaced.
var ReferenceAssemble = referenceAssemble

// ReferenceVerify and ReferenceVerifyMethod are Verify and VerifyMethod
// with the stack walk that queued every successor; VerifyRejects are
// TestVerifyRejects' programs.
var (
	ReferenceVerify, ReferenceVerifyMethod = referenceVerify, referenceVerifyMethod
	VerifyRejects                          = verifyRejects
)

// AssembleCaseSources are TestAssembleErrors' sources.
func AssembleCaseSources() []string {
	srcs := make([]string, len(assembleCases))
	for i, c := range assembleCases {
		srcs[i] = c.src
	}
	return srcs
}
