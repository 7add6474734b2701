package vm_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pathmark/internal/attacks"
	"pathmark/internal/feistel"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
	"pathmark/internal/workloads"
)

// diffCollect runs p through both run modes, CollectWith + DecodeBits and
// CollectBits, and describes the first difference in bits, Result or
// error ("" when they agree), and the reference run's error.
func diffCollect(p *vm.Program, opts vm.RunOptions) (diff string, refErr error) {
	tr, want, wantErr := vm.CollectWith(p, opts)
	bits, got, gotErr := vm.CollectBits(p, opts)
	if d := diffErr(wantErr, gotErr); d != "" {
		return d, wantErr
	}
	if wantErr != nil {
		if bits != nil || got != nil {
			return "CollectBits returned output alongside its error", wantErr
		}
		return "", wantErr
	}
	if w, g := tr.DecodeBits().String(), bits.String(); w != g {
		return fmt.Sprintf("bits differ: %d decoded, %d sunk\n decoded %.80s\n sunk    %.80s", len(w), len(g), w, g), nil
	}
	if want.Return != got.Return || want.Steps != got.Steps || !vm.SameBehavior(want, got) {
		return fmt.Sprintf("results differ: want %+v, got %+v", want, got), nil
	}
	return "", nil
}

// diffErr describes how two run errors differ: presence, message, type,
// and the RuntimeError/ResourceError fields callers read.
func diffErr(want, got error) string {
	switch {
	case want == nil && got == nil:
		return ""
	case want == nil || got == nil:
		return fmt.Sprintf("errors differ: want %v, got %v", want, got)
	case want.Error() != got.Error():
		return fmt.Sprintf("error messages differ:\n want %v\n got  %v", want, got)
	}
	var wr, gr *vm.RuntimeError
	if errors.As(want, &wr) != errors.As(got, &gr) {
		return fmt.Sprintf("error types differ: want %T, got %T", errors.Unwrap(want), errors.Unwrap(got))
	}
	if wr != nil && *wr != *gr {
		return fmt.Sprintf("runtime errors differ: want %+v, got %+v", *wr, *gr)
	}
	var wres, gres *vm.ResourceError
	if errors.As(want, &wres) != errors.As(got, &gres) {
		return fmt.Sprintf("error types differ: want %T, got %T", errors.Unwrap(want), errors.Unwrap(got))
	}
	if wres != nil && (wres.Resource != gres.Resource || wres.Limit != gres.Limit ||
		wres.Used != gres.Used || wres.Method != gres.Method || wres.PC != gres.PC ||
		!errors.Is(gres, wres.Cause)) {
		return fmt.Sprintf("resource errors differ: want %+v, got %+v", *wres, *gres)
	}
	return ""
}

type traceCase struct {
	name string
	prog *vm.Program
}

var equivInput = []int64{12, 18, 7}

// traceCorpus is every workload family, each unmarked and marked under
// one key, plus the attack catalog applied to a few marked hosts.
func traceCorpus(t *testing.T) []traceCase {
	t.Helper()
	key, err := wm.NewKey(equivInput, feistel.KeyFromUint64(0x5eed, 0xfeed), 64)
	if err != nil {
		t.Fatal(err)
	}
	hosts := []traceCase{
		{"caffeinemark", workloads.CaffeineMark()},
		{"gcd", workloads.GCD()},
	}
	for seed := int64(1); seed <= 3; seed++ {
		hosts = append(hosts, traceCase{fmt.Sprintf("jesslike-%d", seed),
			workloads.JessLike(workloads.JessLikeOptions{Seed: seed, Methods: 30, BlockSize: 80})})
	}
	for seed := int64(0); seed < 50; seed++ {
		hosts = append(hosts, traceCase{fmt.Sprintf("random-%d", seed),
			workloads.RandomProgram(workloads.RandProgOptions{Seed: seed})})
	}
	var out []traceCase
	for i, h := range hosts {
		marked, _, err := wm.Embed(h.prog, wm.RandomWatermark(64, uint64(i)+1), key,
			wm.EmbedOptions{Seed: int64(i)})
		if err != nil {
			t.Fatalf("%s: embed: %v", h.name, err)
		}
		out = append(out, h, traceCase{h.name + "/marked", marked})
	}
	// Attacked copies of the first marked hosts: CaffeineMark, GCD and
	// the first Jess-like and random programs.
	for _, h := range []traceCase{out[1], out[3], out[5], out[11]} {
		for _, a := range attacks.Catalog() {
			attacked, err := attacks.Run(a, h.prog, rand.New(rand.NewSource(int64(len(out)))))
			if err != nil {
				t.Fatalf("%s: %s: %v", h.name, a.Name, err)
			}
			out = append(out, traceCase{h.name + "/" + a.Name, attacked})
		}
	}
	return out
}

// TestCollectBitsMatchesDecode is the run-mode equivalence property:
// over every workload family, marked and unmarked, and over attacked
// copies, CollectBits yields exactly the bits DecodeBits decodes from
// CollectWith's trace and exactly its Result.
func TestCollectBitsMatchesDecode(t *testing.T) {
	corpus := traceCorpus(t)
	for _, c := range corpus {
		d, err := diffCollect(c.prog, vm.RunOptions{Input: equivInput, SnapshotLimit: 1})
		if d != "" {
			t.Errorf("%s: %s", c.name, d)
		} else if err != nil {
			t.Errorf("%s: run failed: %v", c.name, err)
		}
	}
	if len(corpus) < 200 {
		t.Fatalf("corpus has %d programs; the property needs every family", len(corpus))
	}
}

// TestCollectBitsErrorsMatch cuts runs off with step, heap and context
// limits and runs faulting programs: both run modes must fail with the
// same error, field for field.
func TestCollectBitsErrorsMatch(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	limits := []struct {
		name string
		opts vm.RunOptions
	}{
		{"steps=1", vm.RunOptions{StepLimit: 1}},
		{"steps=997", vm.RunOptions{StepLimit: 997}},
		{"steps=123457", vm.RunOptions{StepLimit: 123457}},
		{"heap=1", vm.RunOptions{MaxHeap: 1}},
		{"heap=40", vm.RunOptions{MaxHeap: 40}},
		{"context", vm.RunOptions{Ctx: cancelled}},
		{"depth=2", vm.RunOptions{MaxDepth: 2}},
	}
	seen := map[string]int{}
	for _, c := range traceCorpus(t) {
		for _, l := range limits {
			opts := l.opts
			opts.Input = equivInput
			d, err := diffCollect(c.prog, opts)
			if d != "" {
				t.Errorf("%s %s: %s", c.name, l.name, d)
			}
			var re *vm.ResourceError
			var rt *vm.RuntimeError
			switch {
			case errors.As(err, &re):
				seen[re.Resource]++
			case errors.As(err, &rt):
				seen["fault"]++
			}
		}
	}
	// The premise: every kind of cut-off and a fault actually happened.
	for _, kind := range []string{"steps", "heap", "context", "fault"} {
		if seen[kind] == 0 {
			t.Errorf("no run ended with a %s error: %v", kind, seen)
		}
	}
}

// BenchmarkTraceBits compares recognition's two ways from a program to
// its §3.1 bits on CaffeineMark: recording the trace and decoding it,
// and sinking the bits as branches execute. Three more CollectBits legs
// run the hosts of the recognize workload: a marked CaffeineMark-like
// copy (long trace over small, hot code), a marked 60×150 Jess-like
// copy (128 pieces in large methods that mostly run once) and the
// unmarked Jess-like host (short trace over large code that mostly runs
// once, where decoding hot methods must not cost).
func BenchmarkTraceBits(b *testing.B) {
	key, err := wm.NewKey(nil, feistel.KeyFromUint64(0x5eed, 0xfeed), 128)
	if err != nil {
		b.Fatal(err)
	}
	marked, _, err := wm.Embed(workloads.CaffeineMark(), wm.RandomWatermark(128, 1), key,
		wm.EmbedOptions{Pieces: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	jess := workloads.JessLike(workloads.JessLikeOptions{Seed: 1, Methods: 60, BlockSize: 150})
	markedJess, _, err := wm.Embed(jess, wm.RandomWatermark(128, 1), key,
		wm.EmbedOptions{Pieces: 128, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	prog := workloads.CaffeineMark()
	opts := vm.RunOptions{SnapshotLimit: 1}
	b.Run("CollectWith+DecodeBits", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr, _, err := vm.CollectWith(prog, opts)
			if err != nil {
				b.Fatal(err)
			}
			if tr.DecodeBits().Len() == 0 {
				b.Fatal("no bits")
			}
		}
	})
	collectBits := func(prog *vm.Program) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bits, _, err := vm.CollectBits(prog, opts)
				if err != nil {
					b.Fatal(err)
				}
				if bits.Len() == 0 {
					b.Fatal("no bits")
				}
			}
		}
	}
	b.Run("CollectBits", collectBits(prog))
	b.Run("CollectBitsMarkedCaffeineMark", collectBits(marked))
	b.Run("CollectBitsMarkedJessLike60x150", collectBits(markedJess))
	b.Run("CollectBitsJessLike60x150", collectBits(jess))
}

// fuzzProgram decodes fuzz bytes into an unverified program: one to three
// methods of raw instructions with operands and branch targets drawn
// around the valid ranges. Per instruction a control byte picks an
// opcode (one past the last is invalid), a window from the fused set, so
// that fused dispatch meets in-range and out-of-range operands, or,
// rarely, any raw byte. Method headers stay well-formed (NArgs <=
// NLocals); everything inside may fault, loop or recurse.
func fuzzProgram(data []byte) *vm.Program {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nOps := int(vm.OpPrint) + 2 // one past the last opcode is invalid
	p := &vm.Program{NStatics: 2}
	nMethods := 1 + next()%3
	for mi := 0; mi < nMethods; mi++ {
		m := &vm.Method{Name: fmt.Sprintf("m%d", mi), NLocals: 3}
		if mi > 0 {
			m.NArgs = next() % 3
		}
		n := 1 + next()%24
		for len(m.Code) < n {
			var ops []vm.Op
			switch sel := next(); {
			case sel < 4*nOps:
				ops = []vm.Op{vm.Op(sel % nOps)}
			case sel < 248:
				ops = vm.FusedWindows[sel%len(vm.FusedWindows)]
			default:
				ops = []vm.Op{vm.Op(next())}
			}
			for _, op := range ops[:min(len(ops), n-len(m.Code))] {
				in := vm.Instr{Op: op, A: int64(next()%8) - 2, Target: int32(next()%(n+2) - 1)}
				if in.Op == vm.OpCall {
					in.A = int64(next() % (nMethods + 1))
				}
				m.Code = append(m.Code, in)
			}
		}
		p.Methods = append(p.Methods, m)
	}
	return p
}

// fuzzBytes encodes methods as fuzzProgram input, one opcode per
// control byte: at most three methods of 1 to 24 instructions with
// valid opcodes, operands in [-2, 5] and targets in [-1, len]. Every
// method has 3 locals.
func fuzzBytes(methods ...*vm.Method) []byte {
	b := []byte{byte(len(methods) - 1)}
	for mi, m := range methods {
		if mi > 0 {
			b = append(b, byte(m.NArgs))
		}
		b = append(b, byte(len(m.Code)-1))
		for _, in := range m.Code {
			b = append(b, byte(in.Op), byte(in.A+2), byte(in.Target+1))
			if in.Op == vm.OpCall {
				b = append(b, byte(in.A))
			}
		}
	}
	return b
}

// hotMain is a main method that runs body decoded: it jumps over body
// and back into it, a backward jump, before body's first instruction
// runs. Body's pcs start at 1.
func hotMain(body ...vm.Instr) *vm.Method {
	code := append([]vm.Instr{{Op: vm.OpGoto, Target: int32(len(body) + 1)}}, body...)
	return &vm.Method{Name: "main", NLocals: 3, Code: append(code, vm.Instr{Op: vm.OpGoto, Target: 1})}
}

// Fused-dispatch seeds. Each window runs where fusion is live (a hot
// method) and meets one reason to fall back to its plain ops.
var (
	// A local out of range on a window's load, and on its store.
	seedLoadOutOfRange = fuzzBytes(hotMain(
		vm.Instr{Op: vm.OpLoad, A: 5}, vm.Instr{Op: vm.OpConst, A: 1}, vm.Instr{Op: vm.OpAdd},
		vm.Instr{Op: vm.OpStore}, vm.Instr{Op: vm.OpRet}))
	seedStoreOutOfRange = fuzzBytes(hotMain(
		vm.Instr{Op: vm.OpConst, A: 1}, vm.Instr{Op: vm.OpDup}, vm.Instr{Op: vm.OpAdd},
		vm.Instr{Op: vm.OpStore, A: 5}, vm.Instr{Op: vm.OpRet}))
	// const; add on an empty stack: the add faults at its own pc,
	// naming add.
	seedConstAddUnderflow = fuzzBytes(hotMain(
		vm.Instr{Op: vm.OpConst, A: 1}, vm.Instr{Op: vm.OpAdd}, vm.Instr{Op: vm.OpRet}))
	// store; load on an empty stack: the store underflows at its pc,
	// and the fault names store.
	seedStoreLoadUnderflow = fuzzBytes(hotMain(
		vm.Instr{Op: vm.OpStore}, vm.Instr{Op: vm.OpLoad}, vm.Instr{Op: vm.OpRet}))
	// A taken compare-and-branch window whose target is the method's
	// length, one past its end.
	seedBranchOutOfRange = fuzzBytes(hotMain(
		vm.Instr{Op: vm.OpLoad}, vm.Instr{Op: vm.OpConst, A: 1}, vm.Instr{Op: vm.OpIfCmpLt, Target: 6},
		vm.Instr{Op: vm.OpRet}))
	// A counted loop of x = x + c windows in main (hot from its first
	// backward branch), then a call to a method entered once (cold).
	seedHotLoopColdCall = fuzzBytes(&vm.Method{Name: "main", NLocals: 3, Code: []vm.Instr{
		{Op: vm.OpConst, A: 3}, {Op: vm.OpStore, A: 1},
		{Op: vm.OpLoad, A: 1}, {Op: vm.OpConst, A: -1}, {Op: vm.OpAdd}, {Op: vm.OpStore, A: 1}, // pcs 2-5
		{Op: vm.OpLoad, A: 1}, {Op: vm.OpIfGt, Target: 2},
		{Op: vm.OpCall, A: 1}, {Op: vm.OpRet},
	}}, &vm.Method{Name: "m1", NLocals: 3, Code: []vm.Instr{
		{Op: vm.OpLoad, A: 2}, {Op: vm.OpConst, A: 2}, {Op: vm.OpAdd}, {Op: vm.OpRet},
	}})
)

// The piece idioms' fused windows, each in a hot method: a seed that
// runs the window, then one that meets a reason to fall back. The input
// is 3, -1; constants stay in fuzzBytes' [-2, 5]. Body pcs start at 1
// (hotMain).
var (
	// load 1; const 1; and; ifeq: the bit test of x = 5.
	seedBitTest = fuzzBytes(hotMain(
		vm.Instr{Op: vm.OpConst, A: 5}, vm.Instr{Op: vm.OpStore, A: 1}, vm.Instr{Op: vm.OpNop},
		vm.Instr{Op: vm.OpLoad, A: 1}, vm.Instr{Op: vm.OpConst, A: 1}, vm.Instr{Op: vm.OpAnd}, vm.Instr{Op: vm.OpIfEq, Target: 9},
		vm.Instr{Op: vm.OpIn}, vm.Instr{Op: vm.OpLoad, A: 1}, vm.Instr{Op: vm.OpRet}))
	// The bit test's load out of range.
	seedBitTestLoadOutOfRange = fuzzBytes(hotMain(
		vm.Instr{Op: vm.OpLoad, A: 5}, vm.Instr{Op: vm.OpConst, A: 1}, vm.Instr{Op: vm.OpAnd}, vm.Instr{Op: vm.OpIfEq, Target: 5},
		vm.Instr{Op: vm.OpIn}, vm.Instr{Op: vm.OpRet}))
	// load 1; const 1; shr; store 2: the arithmetic shift of x = -2.
	seedShift = fuzzBytes(hotMain(
		vm.Instr{Op: vm.OpConst, A: -2}, vm.Instr{Op: vm.OpStore, A: 1}, vm.Instr{Op: vm.OpNop},
		vm.Instr{Op: vm.OpLoad, A: 1}, vm.Instr{Op: vm.OpConst, A: 1}, vm.Instr{Op: vm.OpShr}, vm.Instr{Op: vm.OpStore, A: 2},
		vm.Instr{Op: vm.OpLoad, A: 2}, vm.Instr{Op: vm.OpRet}))
	// The shift's store, its last instruction, out of range.
	seedShiftStoreOutOfRange = fuzzBytes(hotMain(
		vm.Instr{Op: vm.OpLoad, A: 1}, vm.Instr{Op: vm.OpConst, A: 1}, vm.Instr{Op: vm.OpShr}, vm.Instr{Op: vm.OpStore, A: 5},
		vm.Instr{Op: vm.OpIn}, vm.Instr{Op: vm.OpRet}))
	// A counted loop whose step and back-edge is one window:
	// i = 3; while i > 0 { i = i + -1 }.
	seedStepBackEdge = fuzzBytes(hotMain(stepLoop(4)...))
	// The back-edge's target one past the method's end.
	seedStepGotoOutOfRange = fuzzBytes(hotMain(stepLoop(14)...))
	// in; const 3; ifcmplt: the loop exit test at its bound, 3 < 3.
	seedExitTest = fuzzBytes(hotMain(
		vm.Instr{Op: vm.OpIn}, vm.Instr{Op: vm.OpConst, A: 3}, vm.Instr{Op: vm.OpIfCmpLt, Target: 6},
		vm.Instr{Op: vm.OpConst, A: 0}, vm.Instr{Op: vm.OpRet}, vm.Instr{Op: vm.OpConst, A: 1}, vm.Instr{Op: vm.OpRet}))
	// const; ifcmplt on an empty stack: the branch underflows at its pc.
	seedExitTestUnderflow = fuzzBytes(hotMain(
		vm.Instr{Op: vm.OpConst, A: 5}, vm.Instr{Op: vm.OpIfCmpLt, Target: 4},
		vm.Instr{Op: vm.OpConst, A: 0}, vm.Instr{Op: vm.OpRet}))
	// load 0; mul; add; store 1 under 3, -1: x1 = 3 + -1·5.
	seedMulAdd = fuzzBytes(hotMain(mulAdd(true, 1)...))
	// The same window with one operand on the stack: add underflows.
	seedMulAddOneOperand = fuzzBytes(hotMain(mulAdd(false, 1)...))
	// Its store, its last instruction, out of range.
	seedMulAddStoreOutOfRange = fuzzBytes(hotMain(mulAdd(true, 5)...))
)

// stepLoop is a hotMain body, pcs 1-12, counting local 2 down from 3
// with the window load 2; const -1; add; store 2; goto target at pcs
// 6-10 (target 4 closes the loop).
func stepLoop(target int32) []vm.Instr {
	return []vm.Instr{
		{Op: vm.OpConst, A: 3}, {Op: vm.OpStore, A: 2}, {Op: vm.OpNop},
		{Op: vm.OpLoad, A: 2}, {Op: vm.OpIfLe, Target: 11},
		{Op: vm.OpLoad, A: 2}, {Op: vm.OpConst, A: -1}, {Op: vm.OpAdd}, {Op: vm.OpStore, A: 2}, {Op: vm.OpGoto, Target: target},
		{Op: vm.OpLoad, A: 2}, {Op: vm.OpRet},
	}
}

// mulAdd is a hotMain body that sets local 0 to 5, pushes the input's
// values (both, or only the first) and runs load 0; mul; add; store b.
func mulAdd(twoOperands bool, b int64) []vm.Instr {
	body := []vm.Instr{{Op: vm.OpConst, A: 5}, {Op: vm.OpStore}, {Op: vm.OpIn}}
	if twoOperands {
		body = append(body, vm.Instr{Op: vm.OpIn})
	}
	return append(body, vm.Instr{Op: vm.OpLoad}, vm.Instr{Op: vm.OpMul}, vm.Instr{Op: vm.OpAdd},
		vm.Instr{Op: vm.OpStore, A: b}, vm.Instr{Op: vm.OpLoad, A: 1}, vm.Instr{Op: vm.OpRet})
}

// pieceSeeds are the piece idioms' seeds that run their window whole,
// fallbackSeeds those that meet a reason to fall back.
var (
	pieceSeeds    = [][]byte{seedBitTest, seedShift, seedStepBackEdge, seedExitTest, seedMulAdd}
	fallbackSeeds = [][]byte{seedBitTestLoadOutOfRange, seedShiftStoreOutOfRange, seedStepGotoOutOfRange,
		seedExitTestUnderflow, seedMulAddOneOperand, seedMulAddStoreOutOfRange}
)

// FuzzCollectBits requires the bit-sink run mode to agree with
// CollectWith + DecodeBits on every generated program, trapping ones
// included, and the untraced Run to fail or succeed the same way.
func FuzzCollectBits(f *testing.F) {
	f.Add([]byte{0, 1, byte(vm.OpConst), 2, 1, byte(vm.OpIfNe), 2, 1}) // main: const 0; ifne 0
	f.Add([]byte("\x01\x10\x01\x05\x00\x15\x02\x03\x1c\x00\x01\x20\x01\x04\x22\x00\x00"))
	f.Add([]byte("a counted loop? no: just bytes, decoded as code"))
	for _, seed := range [][]byte{seedLoadOutOfRange, seedStoreOutOfRange, seedConstAddUnderflow,
		seedStoreLoadUnderflow, seedBranchOutOfRange, seedHotLoopColdCall} {
		f.Add(seed)
	}
	for _, seed := range append(pieceSeeds, fallbackSeeds...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(data)
		opts := vm.RunOptions{Input: []int64{3, -1}, StepLimit: 5_000, MaxHeap: 1 << 10, MaxDepth: 32}
		d, err := diffCollect(p, opts)
		if d != "" {
			t.Fatal(d)
		}
		res, runErr := vm.Run(p, opts)
		if d := diffErr(errors.Unwrap(err), runErr); d != "" {
			t.Fatalf("Run and the tracing runs disagree: %s", d)
		}
		if runErr == nil {
			_, want, _ := vm.CollectBits(p, opts)
			if res.Steps != want.Steps || !vm.SameBehavior(res, want) {
				t.Fatalf("Run result %+v, CollectBits %+v", res, want)
			}
		}
	})
}

// FuzzRunStepLimit checks the step budget on generated programs,
// trapping ones included. The limit is checked before each step, so a
// budget k at or above the steps a run takes leaves its outcome as it is
// (k equal to the steps still completes), and any smaller positive k
// stops it with a step-limit *ResourceError that has used exactly k.
// CollectBits must agree with Run under every budget, with and without
// a live context.
func FuzzRunStepLimit(f *testing.F) {
	f.Add([]byte{0, 1, byte(vm.OpConst), 2, 1, byte(vm.OpIfNe), 2, 1}, uint16(1))
	f.Add([]byte{0, 1, byte(vm.OpConst), 9, 0, byte(vm.OpRet), 0, 0}, uint16(2)) // main: const -1; ret
	f.Add([]byte("\x00\x00\x20\x00\x01"), uint16(4096))                          // main: goto 0
	f.Add([]byte("\x01\x10\x01\x05\x00\x15\x02\x03\x1c\x00\x01\x20\x01\x04\x22\x00\x00"), uint16(4097))
	// Budgets that stop the hot loop's second x = x + c window (steps
	// 9-12) before, inside and after it, and a branch window's fault.
	for k := uint16(8); k <= 13; k++ {
		f.Add(seedHotLoopColdCall, k)
	}
	f.Add(seedHotLoopColdCall, uint16(4096))
	f.Add(seedBranchOutOfRange, uint16(4))
	// Every budget through each piece idiom's run, so that one stops
	// before, inside and after each window, and each fallback's fault.
	for _, seed := range pieceSeeds {
		for k := uint16(1); k <= 24; k++ {
			f.Add(seed, k)
		}
	}
	for _, seed := range fallbackSeeds {
		f.Add(seed, uint16(4096))
	}
	f.Fuzz(func(t *testing.T, data []byte, k uint16) {
		if k == 0 {
			return // the 100M default budget
		}
		p := fuzzProgram(data)
		base := vm.RunOptions{Input: []int64{3, -1}, MaxHeap: 1 << 10, MaxDepth: 32}
		// The reference run: capped above every k so looping programs
		// end, profiled so a failed run still tells how many steps it
		// dispatched. Profiled runs are tracked and never fuse, so every
		// other run here, fused, is checked against plain dispatch.
		ref := base
		ref.StepLimit = 1 << 16
		ref.Profile = vm.NewProfile()
		want, wantErr := vm.Run(p, ref)
		steps := ref.Profile.Steps
		if wantErr == nil && want.Steps != steps {
			t.Fatalf("Result.Steps %d, Profile.Steps %d", want.Steps, steps)
		}
		live, cancel := context.WithCancel(context.Background())
		defer cancel()
		for _, ctx := range []context.Context{nil, live} {
			opts := base
			opts.StepLimit = int64(k)
			opts.Ctx = ctx
			got, gotErr := vm.Run(p, opts)
			switch {
			case int64(k) >= steps:
				if d := diffErr(wantErr, gotErr); d != "" {
					t.Fatalf("limit %d of %d steps: %s", k, steps, d)
				}
				if wantErr == nil && (got.Steps != want.Steps || !vm.SameBehavior(got, want)) {
					t.Fatalf("limit %d: result %+v, unlimited %+v", k, got, want)
				}
			default:
				var re *vm.ResourceError
				if !errors.As(gotErr, &re) || !errors.Is(gotErr, vm.ErrStepLimit) || re.Used != int64(k) || re.Limit != int64(k) {
					t.Fatalf("limit %d of %d steps: got %v, want a step-limit error with used %d", k, steps, gotErr, k)
				}
			}
			_, bres, bitsErr := vm.CollectBits(p, opts)
			if d := diffErr(gotErr, errors.Unwrap(bitsErr)); d != "" {
				t.Fatalf("limit %d: Run and CollectBits disagree: %s", k, d)
			}
			if gotErr == nil && (bres.Steps != got.Steps || !vm.SameBehavior(bres, got)) {
				t.Fatalf("limit %d: Run result %+v, CollectBits %+v", k, got, bres)
			}
		}
	})
}
