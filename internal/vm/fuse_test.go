package vm

import (
	"slices"
	"testing"
)

// TestDecodeTable pins the decoder's dispatch byte at every pc of
// hand-built methods: the longest window starting at each pc (a 5-window
// over its 4-window prefix), every window cut off by the method end, nop
// and invalid raw bytes breaking windows, every raw byte outside the ISA
// mapped to one invalid code, and ranges.
func TestDecodeTable(t *testing.T) {
	ld := func(a int64) Instr { return Instr{Op: OpLoad, A: a} }
	st := func(a int64) Instr { return Instr{Op: OpStore, A: a} }
	k := func(c int64) Instr { return Instr{Op: OpConst, A: c} }
	op := func(o Op) Instr { return Instr{Op: o} }
	cases := []struct {
		name string
		code []Instr
		want []Op
	}{
		{"x = y + c", []Instr{ld(1), k(3), op(OpAdd), st(0)},
			[]Op{opLoadConstAddStore, opConstAdd, opAddStore, OpStore}},
		{"cut by the end", []Instr{ld(1), k(3), op(OpAdd)},
			[]Op{opLoadConst, opConstAdd, OpAdd}},
		{"cut to one", []Instr{ld(1)}, []Op{OpLoad}},
		{"compare and branch", []Instr{ld(0), k(9), op(OpIfCmpLt), ld(0), k(9), op(OpIfCmpGe)},
			[]Op{opLoadConstIfCmpLt, OpConst, OpIfCmpLt, opLoadConstIfCmpGe, OpConst, OpIfCmpGe}},
		{"other compare", []Instr{ld(0), k(9), op(OpIfCmpGt)},
			[]Op{opLoadConst, OpConst, OpIfCmpGt}},
		{"mask test", []Instr{k(4), op(OpAnd), op(OpIfEq), k(4), op(OpAnd), op(OpIfNe)},
			[]Op{opConstAnd, OpAnd, OpIfEq, opConstAnd, OpAnd, OpIfNe}},
		// A store keeps its own op, so the load after it starts the
		// longer window.
		{"store then x = y + c", []Instr{st(0), ld(1), k(3), op(OpAdd), st(2)},
			[]Op{OpStore, opLoadConstAddStore, opConstAdd, opAddStore, OpStore}},
		{"pairs", []Instr{ld(0), ld(1), st(2), ld(2), k(1), op(OpShr), st(0), op(OpGoto)},
			[]Op{opLoadLoad, OpLoad, OpStore, opLoadConstShrStore, opConstShr, OpShr, opStoreGoto, OpGoto}},
		// The piece idioms: the bit test, the shift, the counted loop's
		// step and back-edge, its exit test, and the multiply-accumulate.
		{"bit test", []Instr{ld(1), k(1), op(OpAnd), op(OpIfEq)},
			[]Op{opLoadConstAndIfEq, opConstAnd, OpAnd, OpIfEq}},
		{"bit test cut by the end", []Instr{ld(1), k(1), op(OpAnd)},
			[]Op{opLoadConst, opConstAnd, OpAnd}},
		{"other bit test", []Instr{ld(1), k(1), op(OpAnd), op(OpIfNe)},
			[]Op{opLoadConst, opConstAnd, OpAnd, OpIfNe}},
		{"shift", []Instr{ld(1), k(1), op(OpShr), st(1)},
			[]Op{opLoadConstShrStore, opConstShr, OpShr, OpStore}},
		{"shift cut by the end", []Instr{ld(1), k(1), op(OpShr)},
			[]Op{opLoadConst, opConstShr, OpShr}},
		{"step and back-edge", []Instr{ld(2), k(1), op(OpAdd), st(2), op(OpGoto)},
			[]Op{opLoadConstAddStoreGoto, opConstAdd, opAddStore, opStoreGoto, OpGoto}},
		{"step cut before its back-edge", []Instr{ld(2), k(1), op(OpAdd), st(2)},
			[]Op{opLoadConstAddStore, opConstAdd, opAddStore, OpStore}},
		{"step then no back-edge", []Instr{ld(2), k(1), op(OpAdd), st(2), op(OpRet)},
			[]Op{opLoadConstAddStore, opConstAdd, opAddStore, OpStore, OpRet}},
		{"loop exit test", []Instr{k(8), op(OpIfCmpLt), k(8), op(OpIfCmpGe)},
			[]Op{OpConst, OpIfCmpLt, OpConst, OpIfCmpGe}},
		{"loop exit test cut by the end", []Instr{op(OpAdd), k(8)},
			[]Op{OpAdd, OpConst}},
		{"multiply-accumulate", []Instr{ld(0), op(OpMul), op(OpAdd), st(0)},
			[]Op{opLoadMulAddStore, OpMul, opAddStore, OpStore}},
		{"multiply-accumulate cut by the end", []Instr{ld(0), op(OpMul), op(OpAdd)},
			[]Op{OpLoad, OpMul, OpAdd}},
		{"nop breaks a window", []Instr{ld(0), op(OpNop), k(1), op(OpAdd), op(OpNop)},
			[]Op{OpLoad, OpNop, opConstAdd, OpAdd, OpNop}},
		{"invalid bytes", []Instr{op(opCount), op(opLoadConst), op(64), op(127), op(128), op(255)},
			[]Op{opInvalid, opInvalid, opInvalid, opInvalid, opInvalid, opInvalid}},
		{"invalid byte breaks a window", []Instr{ld(0), op(opConstAdd), op(OpAdd), k(2), op(200)},
			[]Op{OpLoad, opInvalid, OpAdd, OpConst, opInvalid}},
		{"empty", nil, []Op{}},
	}
	undecoded := func(n int) []Op {
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = opPlain
		}
		return ops
	}
	for _, c := range cases {
		got := undecoded(len(c.code))
		if decode(c.code, got, 0, len(c.code)-1); !slices.Equal(got, c.want) {
			t.Errorf("%s: decode = %v, want %v", c.name, got, c.want)
		}
	}
	// A range decodes only its own pcs, with windows that run past it,
	// and leaves decoded pcs as they are.
	code := []Instr{ld(1), k(3), op(OpAdd), st(0), ld(0), ld(1)}
	got := undecoded(len(code))
	decode(code, got, 1, 2)
	if want := []Op{opPlain, opConstAdd, opAddStore, opPlain, opPlain, opPlain}; !slices.Equal(got, want) {
		t.Errorf("range [1,2]: decode = %v, want %v", got, want)
	}
	got[4] = OpNop // stands for a pc decoded before
	decode(code, got, 0, 5)
	if want := []Op{opLoadConstAddStore, opConstAdd, opAddStore, OpStore, OpNop, OpLoad}; !slices.Equal(got, want) {
		t.Errorf("range [0,5] after [1,2]: decode = %v, want %v", got, want)
	}
	// Fused ops sit past the ISA and have no pop-table entry: the loop's
	// underflow guard never faults one, and a raw byte that equals one
	// reaches its arm and faults there as an invalid opcode.
	for d, w := range fusedWindows {
		if d <= opInvalid || opPops[d] != 0 {
			t.Errorf("fused op %d (%v): dispatch byte or pop count wrong", d, w)
		}
	}
}

// TestHotMethodsDecoded checks the hot rule through a run's allocations:
// a method's dispatch bytes are allocated once, when it first gets hot,
// and nothing else differs between the paired programs. A method entered
// once that never jumps backward stays undecoded; a loop, or a second
// entry, decodes it.
func TestHotMethodsDecoded(t *testing.T) {
	allocs := func(src string) float64 {
		p := MustAssemble(src)
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(p, RunOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const (
		once = "method main 0 1\n  call m\n  ret\nmethod m 0 1\n  load 0\n  const 1\n  add\n  ret\n"
		// twice calls m a second time; the add keeps the operand stack
		// as deep as once's.
		twice = "method main 0 1\n  call m\n  call m\n  add\n  ret\nmethod m 0 1\n  load 0\n  const 1\n  add\n  ret\n"
		// Both jump once: forward (cold) or backward (hot).
		forward  = "method main 0 1\n  goto L\nL:\n  const 1\n  ret\n"
		backward = "method main 0 1\n  goto L\nB:\n  const 1\n  ret\nL:\n  goto B\n"
	)
	for _, c := range []struct {
		name       string
		cold, hot  string
		wantDecode float64
	}{
		{"second entry", once, twice, 1},
		{"backward jump", forward, backward, 1},
	} {
		cold, hot := allocs(c.cold), allocs(c.hot)
		if hot-cold != c.wantDecode {
			t.Errorf("%s: %v allocations, %v without the trigger; want %v more", c.name, hot, cold, c.wantDecode)
		}
	}
}

// fusedOps lists the fused ops in order, so that a walk over them, unlike
// one over the map, takes the same branches on every run of an input.
var fusedOps = func() []Op {
	var ops []Op
	for d := range fusedWindows {
		ops = append(ops, d)
	}
	slices.Sort(ops)
	return ops
}()

// referenceDecode is decode's contract spelled out by brute force: at
// each pc, the longest fused window that matches there and ends inside
// the method, or else the instruction's own op with every raw byte
// outside the ISA mapped to opInvalid.
func referenceDecode(code []Instr) []Op {
	want := make([]Op, len(code))
	for pc := range code {
		want[pc] = min(code[pc].Op, opInvalid)
		longest := 0
	windows:
		for _, d := range fusedOps {
			w := fusedWindows[d]
			if len(w) <= longest || pc+len(w) > len(code) {
				continue
			}
			for i, o := range w {
				if code[pc+i].Op != o {
					continue windows
				}
			}
			want[pc], longest = d, len(w)
		}
	}
	return want
}

// decodeAlphabet is what a fuzz byte below 0xff spells: every op that
// appears in a fused window, and near misses that end one.
var decodeAlphabet = []Op{
	OpLoad, OpConst, OpStore, OpAdd, OpAnd, OpShr, OpMul, OpGoto, OpIfEq, OpIfCmpLt, OpIfCmpGe,
	OpNop, OpRet, OpIfNe, OpIfCmpGt, OpSub,
}

// fuzzCode reads fuzz bytes as code: 0xff takes the next byte as a raw
// opcode, anything else picks from decodeAlphabet.
func fuzzCode(data []byte) []Instr {
	var code []Instr
	for i := 0; i < len(data); i++ {
		o := decodeAlphabet[int(data[i])%len(decodeAlphabet)]
		if data[i] == 0xff && i+1 < len(data) {
			i++
			o = Op(data[i])
		}
		code = append(code, Instr{Op: o})
	}
	return code
}

// FuzzDecodeLongestWindow checks decode against referenceDecode on
// random code, raw bytes past the ISA and windows cut off by the method
// end included: first over a suffix range, which must leave the pcs
// before it undecoded, then over the whole method.
func FuzzDecodeLongestWindow(f *testing.F) {
	f.Add(byte(0), []byte{0, 1, 3, 4, 3})          // load; const; add; store; add
	f.Add(byte(1), []byte{2, 0, 1, 3, 2, 7})       // store; load; const; add; store; goto
	f.Add(byte(2), []byte{0, 1, 4, 8})             // load; const; and; ifeq
	f.Add(byte(0), []byte{0, 1, 5, 2, 0, 6, 3})    // the shift, then multiply-accumulate
	f.Add(byte(3), []byte{0, 1, 3, 2})             // cut before the back-edge
	f.Add(byte(0), []byte{1, 9, 0, 1, 10, 0, 1})   // compares, the last cut off
	f.Add(byte(0), []byte{0xff, 200, 0, 0xff, 45}) // raw bytes past the ISA
	f.Fuzz(func(t *testing.T, split byte, data []byte) {
		code := fuzzCode(data)
		want := referenceDecode(code)
		lo := int(split) % (len(code) + 1)
		got := make([]Op, len(code))
		for i := range got {
			got[i] = opPlain
		}
		decode(code, got, lo, len(code)-1)
		for pc := range code {
			if pc < lo && got[pc] != opPlain || pc >= lo && got[pc] != want[pc] {
				t.Fatalf("code %v: decode [%d,%d] = %v, want %v past pc %d", code, lo, len(code)-1, got, want, lo)
			}
		}
		decode(code, got, 0, len(code)-1)
		if !slices.Equal(got, want) {
			t.Fatalf("code %v: decode = %v, want %v", code, got, want)
		}
	})
}
