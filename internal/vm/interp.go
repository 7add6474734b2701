package vm

import (
	"context"
	"errors"
	"fmt"
)

// RuntimeError describes a trapped execution fault (division by zero, bad
// array access, call-depth overflow). Attacked programs that fault are
// classified as "broken" by the resilience experiments.
type RuntimeError struct {
	Method string
	PC     int
	Msg    string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("vm: runtime error in %s at pc %d: %s", e.Method, e.PC, e.Msg)
}

// ErrStepLimit is wrapped by the ResourceError produced when execution
// exceeds RunOptions.StepLimit.
var ErrStepLimit = errors.New("step limit exceeded")

// ErrHeapLimit is wrapped by the ResourceError produced when cumulative
// array allocation exceeds RunOptions.MaxHeap.
var ErrHeapLimit = errors.New("heap limit exceeded")

// ResourceError reports fuel exhaustion: the run was aborted not because
// the program faulted but because it outran a budget (steps, heap cells)
// or its context was cancelled. It is the graceful-degradation boundary
// for runaway or adversarial programs: callers distinguish it from
// RuntimeError to tell "the program is broken" from "the program was cut
// off".
type ResourceError struct {
	// Resource names the exhausted budget: "steps", "heap", or "context".
	Resource string
	// Limit is the configured budget; Used the consumption at abort time.
	Limit, Used int64
	// Method/PC locate the instruction about to execute at the abort.
	Method string
	PC     int
	// Cause is the sentinel (ErrStepLimit, ErrHeapLimit) or the context's
	// error; errors.Is/As unwrap to it.
	Cause error
}

func (e *ResourceError) Error() string {
	return fmt.Sprintf("vm: %v in %s at pc %d (used %d of %d)",
		e.Cause, e.Method, e.PC, e.Used, e.Limit)
}

func (e *ResourceError) Unwrap() error { return e.Cause }

// ctxCheckInterval is how many instructions execute between context
// cancellation checks: frequent enough that cancellation is prompt (a few
// microseconds of VM work), rare enough that the per-step cost is one
// counter mask.
const ctxCheckInterval = 4096

// RunOptions controls execution.
type RunOptions struct {
	// Input is the secret input sequence; OpIn consumes it in order and
	// yields 0 once exhausted.
	Input []int64
	// StepLimit bounds executed instructions (0 means the 100M default).
	// Exhaustion returns a *ResourceError wrapping ErrStepLimit.
	StepLimit int64
	// MaxHeap bounds the cumulative number of array cells allocated over
	// the run (0 means the 64M default). Exhaustion returns a
	// *ResourceError wrapping ErrHeapLimit.
	MaxHeap int64
	// Ctx, when non-nil, aborts the run with a *ResourceError wrapping the
	// context's error once the context is done. Checked every
	// ctxCheckInterval instructions.
	Ctx context.Context
	// MaxDepth bounds the call stack (0 means the 10k default).
	MaxDepth int
	// Trace, when non-nil, receives block-entry and branch events.
	Trace *Trace
	// SnapshotLimit caps, per basic block, how many variable snapshots the
	// trace stores (0 means the default of 2 — enough for the condition
	// code generator's priming + first payload execution). Snapshots are
	// only taken when Trace is non-nil.
	SnapshotLimit int
	// Profile, when non-nil, accumulates the dynamic opcode mix and
	// per-block execution counts. Disabled (nil) it costs one hoisted
	// nil-check per instruction.
	Profile *Profile
}

// Result is the outcome of a successful run.
type Result struct {
	Return int64   // entry method's return value
	Output []int64 // values printed with OpPrint, in order
	Steps  int64   // instructions executed — the deterministic time metric
}

// frame is one activation record. The interpreter keeps one frame per
// call depth and reuses it for every call made at that depth: a call
// clears the locals and empties the operand stack but keeps both
// buffers, so steady-state calls allocate nothing.
type frame struct {
	method *Method
	mi     int
	cfg    *CFG // nil unless the run traces or profiles blocks
	locals []int64
	stack  []int64
	pc     int
}

// stackHint is the operand-stack capacity a frame starts with.
const stackHint = 16

// opPops is the operand-stack pop count of every opcode but OpCall, whose
// count is the callee's NArgs.
var opPops = func() (t [opCount]int8) {
	for o := Op(0); o < opCount; o++ {
		if o != OpCall {
			pops, _ := stackEffect(o)
			t[o] = int8(pops)
		}
	}
	return t
}()

// checkHeader faults a program whose entry method or static area cannot
// be set up, before the run sizes anything from them: only verified
// programs are guaranteed sound. A missing entry method is named "?".
func checkHeader(p *Program) error {
	if p.Entry < 0 || p.Entry >= len(p.Methods) {
		return &RuntimeError{Method: "?", Msg: fmt.Sprintf("entry method %d out of range (%d methods)", p.Entry, len(p.Methods))}
	}
	m := p.Methods[p.Entry]
	switch {
	case m.NLocals < 0:
		return &RuntimeError{Method: m.Name, Msg: fmt.Sprintf("negative local count %d", m.NLocals)}
	case p.NStatics < 0:
		return &RuntimeError{Method: m.Name, Msg: fmt.Sprintf("negative static count %d", p.NStatics)}
	}
	return nil
}

// Run executes the program's entry method with zero-valued arguments and
// returns its result. When opts.Trace is set, trace events are appended to
// it as execution proceeds.
func Run(p *Program, opts RunOptions) (*Result, error) {
	return run(p, opts, nil)
}

// run is the interpreter behind Run, CollectWith and CollectBits. A
// non-nil sink receives every conditional branch together with the pc
// it lands on. Block tracking (CFGs, block entries) runs only when
// opts.Trace or opts.Profile asks for it.
func run(p *Program, opts RunOptions, sink *bitSink) (*Result, error) {
	if err := checkHeader(p); err != nil {
		return nil, err
	}
	stepLimit := opts.StepLimit
	if stepLimit == 0 {
		stepLimit = 100_000_000
	}
	maxHeap := opts.MaxHeap
	if maxHeap == 0 {
		maxHeap = 64 << 20
	}
	maxDepth := opts.MaxDepth
	if maxDepth == 0 {
		maxDepth = 10_000
	}
	snapLimit := opts.SnapshotLimit
	if snapLimit == 0 {
		snapLimit = 2
	}
	prof := opts.Profile
	if prof != nil && prof.BlockCount == nil {
		prof.BlockCount = make(map[BlockKey]int64)
	}
	tracking := opts.Trace != nil || prof != nil

	var cfgs []*CFG
	if tracking {
		cfgs = make([]*CFG, len(p.Methods))
	}
	cfgOf := func(mi int) *CFG {
		if !tracking {
			return nil
		}
		if cfgs[mi] == nil {
			cfgs[mi] = BuildCFG(p.Methods[mi])
		}
		return cfgs[mi]
	}

	statics := make([]int64, p.NStatics)
	var heap [][]int64 // array handle v refers to heap[v-1]
	var heapCells int64
	input := opts.Input
	inPos := 0
	res := &Result{}
	var ctxDone <-chan struct{}
	if opts.Ctx != nil {
		ctxDone = opts.Ctx.Done()
	}

	// carve hands out zeroed buffers cut from a shared slab, so a deeper
	// call stack costs one allocation per slab, not two per frame.
	var slab []int64
	carve := func(n int) []int64 {
		if n > len(slab) {
			slab = make([]int64, max(n, 1024))
		}
		b := slab[:n:n]
		slab = slab[n:]
		return b
	}
	// enter points fr at the start of method mi with zeroed locals and an
	// empty operand stack, reusing fr's buffers when they fit.
	enter := func(fr *frame, mi int) {
		m := p.Methods[mi]
		fr.method, fr.mi, fr.cfg, fr.pc = m, mi, cfgOf(mi), 0
		if cap(fr.locals) >= m.NLocals {
			fr.locals = fr.locals[:m.NLocals]
			clear(fr.locals)
		} else {
			fr.locals = carve(m.NLocals)
		}
		if fr.stack == nil {
			fr.stack = carve(stackHint)
		}
		fr.stack = fr.stack[:0]
	}

	// frames[:depth] is the live call stack; frames past depth keep their
	// buffers for the next call at that depth.
	frames := make([]frame, 1, 16)
	enter(&frames[0], p.Entry)
	depth := 1
	var f *frame // the executing frame

	fault := func(msg string) error {
		return &RuntimeError{Method: f.method.Name, PC: f.pc, Msg: msg}
	}

	enterBlock := func(fr *frame, bi int) {
		if prof != nil {
			prof.enterBlock(fr.mi, bi)
		}
		if opts.Trace != nil {
			opts.Trace.addBlockEnter(fr.mi, bi, fr.locals, statics, snapLimit)
		}
	}
	// enterAt records a block entry when fr's pc starts a block.
	enterAt := func(fr *frame) {
		if tracking && fr.pc < len(fr.method.Code) {
			if bi := fr.cfg.BlockOf(fr.pc); fr.cfg.Blocks[bi].Start == fr.pc {
				enterBlock(fr, bi)
			}
		}
	}

	pop := func() int64 {
		v := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		return v
	}
	pushv := func(v int64) { f.stack = append(f.stack, v) }
	// next moves to the fall-through instruction, emitting a block entry
	// when it crosses into a leader (e.g. falling through into a branch
	// target).
	next := func() {
		f.pc++
		enterAt(f)
	}
	// advance transfers control to pc to within the method. A branch or
	// goto whose target lies outside the method faults: only verified
	// programs are guaranteed to stay inside.
	advance := func(to int) error {
		if to < 0 || to >= len(f.method.Code) {
			return fault(fmt.Sprintf("branch to pc %d outside method [0,%d)", to, len(f.method.Code)))
		}
		f.pc = to
		enterAt(f)
		return nil
	}

	// Enter the entry block of the entry method.
	enterBlock(&frames[0], 0)

	for {
		f = &frames[depth-1]
		if f.pc >= len(f.method.Code) {
			return nil, fault("fell off end of method")
		}
		if res.Steps >= stepLimit {
			return nil, &ResourceError{
				Resource: "steps", Limit: stepLimit, Used: res.Steps,
				Method: f.method.Name, PC: f.pc, Cause: ErrStepLimit,
			}
		}
		if ctxDone != nil && res.Steps%ctxCheckInterval == 0 {
			select {
			case <-ctxDone:
				return nil, &ResourceError{
					Resource: "context", Limit: stepLimit, Used: res.Steps,
					Method: f.method.Name, PC: f.pc, Cause: opts.Ctx.Err(),
				}
			default:
			}
		}
		res.Steps++
		in := f.method.Code[f.pc]
		if prof != nil {
			prof.Steps++
			if int(in.Op) < len(prof.OpCount) {
				prof.OpCount[in.Op]++
			}
		}

		// The verifier guarantees operand ranges and stack discipline for
		// verified programs; guard anyway so unverified/attacked programs
		// fault cleanly.
		var pops int
		switch {
		case in.Op == OpCall:
			if in.A < 0 || in.A >= int64(len(p.Methods)) {
				return nil, fault("callee index out of range")
			}
			pops = p.Methods[in.A].NArgs
		case in.Op < opCount:
			pops = int(opPops[in.Op])
		default:
			return nil, fault(fmt.Sprintf("invalid opcode %d", in.Op))
		}
		if len(f.stack) < pops {
			return nil, fault(fmt.Sprintf("stack underflow executing %v", in.Op))
		}

		switch in.Op {
		case OpNop:
			next()
		case OpConst:
			pushv(in.A)
			next()
		case OpLoad:
			if in.A < 0 || in.A >= int64(len(f.locals)) {
				return nil, fault("local index out of range")
			}
			pushv(f.locals[in.A])
			next()
		case OpStore:
			if in.A < 0 || in.A >= int64(len(f.locals)) {
				return nil, fault("local index out of range")
			}
			f.locals[in.A] = pop()
			next()
		case OpGetStatic:
			if in.A < 0 || in.A >= int64(len(statics)) {
				return nil, fault("static index out of range")
			}
			pushv(statics[in.A])
			next()
		case OpPutStatic:
			if in.A < 0 || in.A >= int64(len(statics)) {
				return nil, fault("static index out of range")
			}
			statics[in.A] = pop()
			next()
		case OpDup:
			v := pop()
			pushv(v)
			pushv(v)
			next()
		case OpPop:
			pop()
			next()
		case OpSwap:
			b, a := pop(), pop()
			pushv(b)
			pushv(a)
			next()
		case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr:
			b, a := pop(), pop()
			var v int64
			switch in.Op {
			case OpAdd:
				v = a + b
			case OpSub:
				v = a - b
			case OpMul:
				v = a * b
			case OpDiv:
				if b == 0 {
					return nil, fault("division by zero")
				}
				v = a / b
			case OpRem:
				if b == 0 {
					return nil, fault("division by zero")
				}
				v = a % b
			case OpAnd:
				v = a & b
			case OpOr:
				v = a | b
			case OpXor:
				v = a ^ b
			case OpShl:
				v = a << (uint64(b) & 63)
			case OpShr:
				v = a >> (uint64(b) & 63)
			}
			pushv(v)
			next()
		case OpNeg:
			pushv(-pop())
			next()
		case OpIfEq, OpIfNe, OpIfLt, OpIfGe, OpIfGt, OpIfLe,
			OpIfCmpEq, OpIfCmpNe, OpIfCmpLt, OpIfCmpGe, OpIfCmpGt, OpIfCmpLe:
			// ifXX v is ifcmpXX v, 0.
			var a, b int64
			cmp := in.Op
			if cmp < OpIfCmpEq {
				a, cmp = pop(), cmp-OpIfEq+OpIfCmpEq
			} else {
				b, a = pop(), pop()
			}
			var taken bool
			switch cmp {
			case OpIfCmpEq:
				taken = a == b
			case OpIfCmpNe:
				taken = a != b
			case OpIfCmpLt:
				taken = a < b
			case OpIfCmpGe:
				taken = a >= b
			case OpIfCmpGt:
				taken = a > b
			case OpIfCmpLe:
				taken = a <= b
			}
			to := f.pc + 1
			if taken {
				to = in.Target
			}
			if opts.Trace != nil {
				opts.Trace.addBranchExec(f.mi, f.pc, taken)
			}
			if sink != nil {
				sink.branch(f.mi, f.pc, to)
			}
			if err := advance(to); err != nil {
				return nil, err
			}
		case OpGoto:
			if err := advance(in.Target); err != nil {
				return nil, err
			}
		case OpCall:
			if depth >= maxDepth {
				return nil, fault("call depth exceeded")
			}
			callee := p.Methods[in.A]
			if callee.NArgs < 0 || callee.NArgs > callee.NLocals {
				return nil, fault(fmt.Sprintf("callee %s takes %d args in %d locals",
					callee.Name, callee.NArgs, callee.NLocals))
			}
			if depth == len(frames) {
				frames = append(frames, frame{})
				f = &frames[depth-1] // the append may have moved the caller
			}
			nf := &frames[depth]
			enter(nf, int(in.A))
			for i := callee.NArgs - 1; i >= 0; i-- {
				nf.locals[i] = pop()
			}
			depth++
			if prof != nil {
				prof.Calls++
				if depth > prof.MaxObservedDepth {
					prof.MaxObservedDepth = depth
				}
			}
			enterBlock(nf, 0)
		case OpRet:
			v := pop()
			depth--
			if depth == 0 {
				res.Return = v
				return res, nil
			}
			caller := &frames[depth-1]
			caller.stack = append(caller.stack, v)
			// Resume after the call. Calls never end blocks, so this is a
			// block continuation, not an entry, unless the next pc
			// happens to be a branch target.
			caller.pc++
			enterAt(caller)
		case OpNewArr:
			nv := pop()
			if nv < 0 || nv > 1<<24 {
				return nil, fault(fmt.Sprintf("bad array size %d", nv))
			}
			if heapCells+nv > maxHeap {
				return nil, &ResourceError{
					Resource: "heap", Limit: maxHeap, Used: heapCells + nv,
					Method: f.method.Name, PC: f.pc, Cause: ErrHeapLimit,
				}
			}
			heapCells += nv
			heap = append(heap, make([]int64, nv))
			pushv(int64(len(heap)))
			next()
		case OpALoad:
			i, ref := pop(), pop()
			arr, err := heapArr(heap, ref)
			if err != nil {
				return nil, fault(err.Error())
			}
			if i < 0 || i >= int64(len(arr)) {
				return nil, fault(fmt.Sprintf("array index %d out of range [0,%d)", i, len(arr)))
			}
			pushv(arr[i])
			next()
		case OpAStore:
			v, i, ref := pop(), pop(), pop()
			arr, err := heapArr(heap, ref)
			if err != nil {
				return nil, fault(err.Error())
			}
			if i < 0 || i >= int64(len(arr)) {
				return nil, fault(fmt.Sprintf("array index %d out of range [0,%d)", i, len(arr)))
			}
			arr[i] = v
			next()
		case OpArrLen:
			ref := pop()
			arr, err := heapArr(heap, ref)
			if err != nil {
				return nil, fault(err.Error())
			}
			pushv(int64(len(arr)))
			next()
		case OpIn:
			if inPos < len(input) {
				pushv(input[inPos])
				inPos++
			} else {
				pushv(0)
			}
			next()
		case OpPrint:
			res.Output = append(res.Output, pop())
			next()
		}
	}
}

func heapArr(heap [][]int64, ref int64) ([]int64, error) {
	if ref < 1 || ref > int64(len(heap)) {
		return nil, fmt.Errorf("bad array reference %d", ref)
	}
	return heap[ref-1], nil
}

// SameBehavior reports whether two run results are observationally
// identical (return value and printed output); it is the semantic
// equivalence check used by the attack harness.
func SameBehavior(a, b *Result) bool {
	if a.Return != b.Return || len(a.Output) != len(b.Output) {
		return false
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			return false
		}
	}
	return true
}
