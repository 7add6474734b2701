package vm

// FusedWindows is the fused set's instruction windows in dispatch-byte
// order, for the external fuzz generator.
var FusedWindows = func() (ws [][]Op) {
	for d := opLoadConst; fusedWindows[d] != nil; d++ {
		ws = append(ws, fusedWindows[d])
	}
	return ws
}()
