package vm

import (
	"math/rand"
	"slices"
	"testing"
)

// spliceCase draws a method of n instructions, two thirds of them
// branches with targets in [-2, n+2], and k fragments in application
// order (pcs non-increasing). The first fragment goes in at len(code)
// one time in three, and a later one repeats the previous pc one time
// in tie, so ties and insertion at the end are common. Fragment targets
// are internal (within the fragment as it lands), the pc just past it,
// or anywhere in the grown method and a little beyond. Non-branch
// instructions carry junk targets, which neither splice may touch.
func spliceCase(seed int64, n, k, tie int) (*Method, []Fragment) {
	rng := rand.New(rand.NewSource(seed))
	instr := func(lo, hi int) Instr {
		switch rng.Intn(3) {
		case 0:
			return Instr{Op: OpGoto, Target: int32(lo + rng.Intn(hi-lo+1))}
		case 1:
			return Instr{Op: OpIfCmpLt, Target: int32(lo + rng.Intn(hi-lo+1))}
		}
		return Instr{Op: OpConst, A: rng.Int63n(100), Target: int32(rng.Intn(50) - 25)}
	}
	m := &Method{Name: "m"}
	for range n {
		m.Code = append(m.Code, instr(-2, n+2))
	}
	frags := make([]Fragment, k)
	pc, grown := n, n
	for i := range frags {
		switch {
		case i == 0 && rng.Intn(3) == 0, i > 0 && tie > 0 && rng.Intn(tie) == 0:
			// Stay: len(code) for the first fragment, a tie after it.
		default:
			pc = rng.Intn(pc + 1)
		}
		code := make([]Instr, rng.Intn(6))
		for j := range code {
			switch rng.Intn(3) {
			case 0:
				code[j] = instr(pc, pc+len(code))
			case 1:
				code[j] = instr(pc+len(code), pc+len(code))
			default:
				code[j] = instr(-1, grown+len(code)+1)
			}
		}
		grown += len(code)
		frags[i] = Fragment{PC: pc, Code: code}
	}
	return m, frags
}

// checkSplice requires Splice to give exactly the code of InsertAt
// applied fragment by fragment, and to leave the fragments as given.
func checkSplice(t *testing.T, m *Method, frags []Fragment) {
	t.Helper()
	want := m.Clone()
	for _, f := range frags {
		want.InsertAt(f.PC, f.Code)
	}
	saved := make([][]Instr, len(frags))
	for i, f := range frags {
		saved[i] = slices.Clone(f.Code)
	}
	orig := slices.Clone(m.Code)
	got := m.Clone()
	got.Splice(frags)
	if !slices.Equal(got.Code, want.Code) {
		t.Fatalf("Splice(%v) of %v:\n got %v\nwant %v", frags, orig, got.Code, want.Code)
	}
	for i, f := range frags {
		if !slices.Equal(f.Code, saved[i]) {
			t.Fatalf("Splice modified fragment %d: %v, was %v", i, f.Code, saved[i])
		}
	}
	if !slices.Equal(m.Code, orig) {
		t.Fatalf("Splice modified the source method")
	}
}

// TestSpliceMatchesInsertAt runs the fuzz target's generator over fixed
// seeds: empty methods and fragment sets, ties, insertion at len(code),
// and fragments whose targets are internal and external.
func TestSpliceMatchesInsertAt(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		m, frags := spliceCase(seed, int(seed%23), int(seed%9), int(seed%4))
		checkSplice(t, m, frags)
	}
}

// TestSpliceTiesKeepApplicationOrder pins the layout rule by hand: two
// fragments at one pc lie in reverse application order, and a target at
// that pc lands on the first of them.
func TestSpliceTiesKeepApplicationOrder(t *testing.T) {
	m := &Method{Code: []Instr{{Op: OpNop}, {Op: OpGoto, Target: 1}, {Op: OpRet}}}
	a := []Instr{{Op: OpConst, A: 1}, {Op: OpIfEq, Target: 3}} // a's end: pc 1+2
	b := []Instr{{Op: OpConst, A: 2}}
	m.Splice([]Fragment{{PC: 3, Code: nil}, {PC: 1, Code: a}, {PC: 1, Code: b}})
	want := []Instr{
		{Op: OpNop},
		{Op: OpConst, A: 2},
		{Op: OpConst, A: 1}, {Op: OpIfEq, Target: 4},
		{Op: OpGoto, Target: 1},
		{Op: OpRet},
	}
	if !slices.Equal(m.Code, want) {
		t.Fatalf("got %v, want %v", m.Code, want)
	}
}

// TestSplicePanicsOutOfOrder: fragments must come in application order.
func TestSplicePanicsOutOfOrder(t *testing.T) {
	for _, frags := range [][]Fragment{
		{{PC: 0}, {PC: 1}},
		{{PC: 4}},
		{{PC: -1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Splice(%v) on 3 instructions did not panic", frags)
				}
			}()
			(&Method{Code: make([]Instr, 3)}).Splice(frags)
		}()
	}
}

// FuzzSpliceMatchesInsertAt requires the one-pass splice to equal
// sequential InsertAt on random methods with branches and random
// insertion sets (see spliceCase).
func FuzzSpliceMatchesInsertAt(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(10), uint8(4), uint8(1))
	f.Add(int64(3), uint8(1), uint8(8), uint8(2))
	f.Add(int64(4), uint8(40), uint8(16), uint8(0))
	f.Add(int64(5), uint8(7), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n, k, tie uint8) {
		m, frags := spliceCase(seed, int(n%64), int(k%32), int(tie%5))
		checkSplice(t, m, frags)
	})
}
