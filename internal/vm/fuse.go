package vm

// Fused dispatch. An untracked run (Run without Trace or Profile, and
// CollectBits) dispatches hot code on a decoded byte per pc: the
// instruction's own op, a fused op that executes the window of
// instructions starting there in one dispatch, or opPlain where the
// method has not been decoded. The array is index-preserving, so pcs,
// branch targets and fault locations are the raw code's, and a jump
// into a window lands on its own entry.

// Dispatch bytes past the ISA. In a Method's code they can only be
// invalid opcodes.
const (
	opInvalid               Op = opCount + iota // every raw byte outside the ISA
	opPlain                                     // not decoded yet: dispatch the raw op
	opLoadConst                                 // load a; const c
	opLoadLoad                                  // load a; load b
	opStoreLoad                                 // store a; load b
	opStoreGoto                                 // store a; goto t
	opAddStore                                  // add; store a
	opConstAdd                                  // const c; add
	opConstAnd                                  // const c; and
	opConstShr                                  // const c; shr
	opConstAndIfEq                              // const c; and; ifeq t
	opLoadConstIfCmpLt                          // load a; const c; ifcmplt t
	opLoadConstIfCmpGe                          // load a; const c; ifcmpge t
	opLoadConstAddStore                         // load a; const c; add; store b
	opLoadConstAndIfEq                          // load a; const c; and; ifeq t
	opLoadConstShrStore                         // load a; const c; shr; store b
	opLoadConstAddStoreGoto                     // load a; const c; add; store b; goto t
	opConstIfCmpLt                              // const c; ifcmplt t
	opLoadMulAddStore                           // load a; mul; add; store b
)

// fusedWindows is the fused set: the most frequent instruction windows
// recognition executes, then the embedder's piece idioms among the plain
// dispatches those left (DESIGN.md, "Three run modes", "Fused dispatch").
var fusedWindows = map[Op][]Op{
	opLoadConst:         {OpLoad, OpConst},
	opLoadLoad:          {OpLoad, OpLoad},
	opStoreLoad:         {OpStore, OpLoad},
	opStoreGoto:         {OpStore, OpGoto},
	opAddStore:          {OpAdd, OpStore},
	opConstAdd:          {OpConst, OpAdd},
	opConstAnd:          {OpConst, OpAnd},
	opConstShr:          {OpConst, OpShr},
	opConstAndIfEq:      {OpConst, OpAnd, OpIfEq},
	opLoadConstIfCmpLt:  {OpLoad, OpConst, OpIfCmpLt},
	opLoadConstIfCmpGe:  {OpLoad, OpConst, OpIfCmpGe},
	opLoadConstAddStore: {OpLoad, OpConst, OpAdd, OpStore},

	opLoadConstAndIfEq:      {OpLoad, OpConst, OpAnd, OpIfEq},
	opLoadConstShrStore:     {OpLoad, OpConst, OpShr, OpStore},
	opLoadConstAddStoreGoto: {OpLoad, OpConst, OpAdd, OpStore, OpGoto},
	opConstIfCmpLt:          {OpConst, OpIfCmpLt},
	opLoadMulAddStore:       {OpLoad, OpMul, OpAdd, OpStore},
}

// maxWindow is the longest window in fusedWindows.
const maxWindow = 5

// fuseTrie spells the fused windows over raw opcode bytes: state 0 is
// the root, and a 0 transition means no window continues that way.
// fuseAccept names the fused op a state completes, or 0.
var fuseTrie, fuseAccept = func() (t [][256]uint8, acc []Op) {
	t, acc = make([][256]uint8, 1), make([]Op, 1)
	for d, w := range fusedWindows {
		s := 0
		for _, o := range w {
			if t[s][o] == 0 {
				t, acc = append(t, [256]uint8{}), append(acc, 0)
				t[s][o] = uint8(len(t) - 1)
			}
			s = int(t[s][o])
		}
		acc[s] = d
	}
	return t, acc
}()

// decode fills in ops[lo..hi] where they are still opPlain: at each pc
// the fused op of the longest window that starts there and ends inside
// the method, or else the instruction's own op, with every raw byte
// outside the ISA mapped to opInvalid so that none aliases a fused op.
func decode(code []Instr, ops []Op, lo, hi int) {
	for pc := lo; pc <= hi; pc++ {
		if ops[pc] != opPlain {
			continue
		}
		d := min(code[pc].Op, opInvalid)
		var s uint8
		for j := pc; j < len(code) && j < pc+maxWindow; j++ {
			if s = fuseTrie[s][code[j].Op]; s == 0 {
				break
			}
			if w := fuseAccept[s]; w != 0 {
				d = w
			}
		}
		ops[pc] = d
	}
}
