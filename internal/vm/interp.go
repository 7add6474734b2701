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
// microseconds of VM work). The check costs nothing per step: the step
// countdown stops at every multiple of the interval as well as at the
// step limit, and only a stop tests either.
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
	// Trace, when non-nil, receives block-entry and branch events, and
	// its Blocks is set to the run's block statistics.
	Trace *Trace
	// SnapshotLimit caps, per basic block, how many variable snapshots the
	// block statistics store (0 means the default of 2 — enough for the
	// condition code generator's priming + first payload execution).
	// Snapshots are only taken when the run traces (Trace or
	// CollectBlocks).
	SnapshotLimit int
	// Profile, when non-nil, accumulates the dynamic opcode mix, and its
	// Blocks is set to the run's block statistics. Disabled (nil) it
	// costs each instruction one test of a pointer the loop holds for
	// the whole run. Enabled, it turns on block tracking like Trace does,
	// and like every tracked run it dispatches plain, unfused ops.
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
// buffers, so steady-state calls allocate nothing. The executing
// frame's pc and operand stack live in the dispatch loop's locals; its
// frame holds them whenever the loop calls out.
type frame struct {
	method *Method
	mi     int
	cfg    *CFG // nil unless the run traces or profiles blocks
	locals []int64
	stack  []int64
	pc     int
}

// fault is the RuntimeError of the instruction at fr.pc. The dispatch
// loop saves its pc to the frame before it formats a message.
func (fr *frame) fault(format string, args ...any) error {
	return &RuntimeError{Method: fr.method.Name, PC: fr.pc, Msg: fmt.Sprintf(format, args...)}
}

// budget is the run's step countdown. The dispatch loop holds left in
// a register and saves it here whenever it calls out.
type budget struct {
	stop int64 // the step count at which the loop next checks budgets
	left int64 // steps still to run before stop
}

// stackHint is the operand-stack capacity a frame starts with.
const stackHint = 16

// opPops is the operand-stack pop count of every opcode byte: 0 for
// OpCall, whose count is the callee's NArgs, and for invalid opcodes,
// which fault, and for fused ops, which check their own. Indexed by an
// Op, it needs no bounds check.
var opPops = func() (t [256]uint8) {
	for o := Op(0); o < opCount; o++ {
		if o != OpCall {
			pops, _ := stackEffect(o)
			t[o] = uint8(pops)
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

// trackBlocks returns the block record a run fills, nil for an
// untracked run, and hands it to opts.Trace and opts.Profile. A traced
// run keeps opts.SnapshotLimit snapshots per block (default 2), a
// profiled one none.
func trackBlocks(p *Program, opts RunOptions) *Blocks {
	var blocks *Blocks
	switch {
	case opts.Trace != nil:
		limit := opts.SnapshotLimit
		if limit == 0 {
			limit = 2
		}
		blocks = newBlocks(p, limit)
		opts.Trace.Blocks = blocks
	case opts.Profile != nil:
		blocks = newBlocks(p, 0)
	}
	if opts.Profile != nil {
		opts.Profile.Blocks = blocks
	}
	return blocks
}

// run is the interpreter behind Run, CollectWith, CollectBlocks and
// CollectBits. A non-nil sink receives a bit for every conditional
// branch, decoded inline from the pc it lands on. Block tracking (CFGs,
// block statistics) runs only when opts.Trace or opts.Profile asks for
// it: the run records every block entry in one dense record, which both
// share, and a trace logs events too unless CollectBlocks made it. An
// untracked run dispatches hot code on its decoded, fused ops (fuse.go).
//
// The dispatch loop holds the executing frame's code, pc, operand stack
// and locals in registers. Whatever calls out of it (a call, a return,
// an allocation, a trace or sink event, a budget stop) first saves pc,
// stack and the countdown to the frame and the budget, then reloads
// them in the outer loop, so none of them lives across a call and the
// compiler need not spill them on every step. The step budget is a
// countdown: left runs down to stop, the earlier of the step limit and
// the next context check, and only there does the loop test either;
// the run has executed stop − left steps. A fused op runs its window
// only when the budget, operands and stack all let every instruction
// in it run without a stop or fault; otherwise it dispatches its first
// instruction's plain op, which counts, checks and faults as usual.
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
	prof := opts.Profile
	blocks := trackBlocks(p, opts)
	tracking := blocks != nil
	cfgOf := func(mi int) *CFG {
		if !tracking {
			return nil
		}
		return blocks.cfg(p, mi)
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

	// An untracked run decodes what is hot: a whole method once it is
	// entered a second time, the pcs a backward jump spans as it jumps.
	// Until then code dispatches plain ops, since decoding an
	// instruction costs about as much as running it once.
	decoded := make([][]Op, len(p.Methods))  // nil until hot
	entries := make([]uint8, len(p.Methods)) // capped at 2: decoded whole
	heat := func(mi, lo, hi int) {
		if tracking || entries[mi] == 2 {
			return
		}
		code, ops := p.Methods[mi].Code, decoded[mi]
		if ops == nil {
			ops = make([]Op, len(code))
			for i := range ops {
				ops[i] = opPlain
			}
			decoded[mi] = ops
		}
		decode(code, ops, lo, hi)
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
		if entries[mi] == 1 {
			heat(mi, 0, len(m.Code)-1)
		}
		entries[mi] = min(entries[mi]+1, 2)
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

	enterBlock := func(fr *frame, bi int) {
		if !tracking {
			return
		}
		blocks.enter(fr.mi, bi, fr.locals, statics)
		if opts.Trace != nil && !opts.Trace.blocksOnly {
			opts.Trace.Events = append(opts.Trace.Events, Event{Kind: EvBlockEnter, Method: int32(fr.mi), Loc: int32(bi)})
		}
	}

	// frames[:depth] is the live call stack; frames past depth keep their
	// buffers for the next call at that depth.
	frames := make([]frame, 1, 16)
	enter(&frames[0], p.Entry)
	depth := 1
	f := &frames[0] // the executing frame
	enterBlock(f, 0)
	// stop == left == 0 sends the first step through the budget check.
	b := &budget{}
	unfused := false // run the next reload's first step from the plain ops

load:
	for {
		// Load the executing frame into registers.
		code, pc, stack, locals, left := f.method.Code, f.pc, f.stack, f.locals, b.left
		ops := decoded[f.mi] // nil: dispatch plain ops
		if unfused {
			ops = nil
		}
		unfused = false
	dispatch:
		for {
			if len(stack) == cap(stack) {
				// Make room for the one push an instruction may do.
				f.pc, b.left = pc, left
				f.stack = append(stack, 0)[:len(stack)]
				continue load
			}
			if uint(pc) >= uint(len(code)) {
				f.pc = pc
				return nil, f.fault("fell off end of method")
			}
			if left == 0 {
				f.pc, f.stack = pc, stack
				if err := b.check(f, stepLimit, opts.Ctx, ctxDone); err != nil {
					return nil, err
				}
				continue load
			}
			left--
			in := &code[pc]
			d := in.Op // undecoded: a raw byte past the ISA faults in any arm
			if pc < len(ops) {
				d = ops[pc]
			}
			if prof != nil {
				prof.Steps++
				if int(in.Op) < len(prof.OpCount) {
					prof.OpCount[in.Op]++
				}
			}
			// The verifier guarantees operand ranges and stack discipline
			// for verified programs; guard anyway so unverified/attacked
			// programs fault cleanly.
			if len(stack) < int(opPops[d]) {
				f.pc = pc
				return nil, f.fault("stack underflow executing %v", in.Op)
			}
			n := len(stack) - 1 // the top of the stack; pushes have room at n+1
			var taken bool      // set by the conditional branches

			switch d {
			case OpNop:
			case OpConst:
				stack = stack[:n+2]
				stack[n+1] = in.A
			case OpLoad:
				if uint64(in.A) >= uint64(len(locals)) {
					f.pc = pc
					return nil, f.fault("local index out of range")
				}
				stack = stack[:n+2]
				stack[n+1] = locals[in.A]
			case OpStore:
				if uint64(in.A) >= uint64(len(locals)) {
					f.pc = pc
					return nil, f.fault("local index out of range")
				}
				locals[in.A] = stack[n]
				stack = stack[:n]
			case OpGetStatic:
				if uint64(in.A) >= uint64(len(statics)) {
					f.pc = pc
					return nil, f.fault("static index out of range")
				}
				stack = stack[:n+2]
				stack[n+1] = statics[in.A]
			case OpPutStatic:
				if uint64(in.A) >= uint64(len(statics)) {
					f.pc = pc
					return nil, f.fault("static index out of range")
				}
				statics[in.A] = stack[n]
				stack = stack[:n]
			case OpDup:
				stack = stack[:n+2]
				stack[n+1] = stack[n]
			case OpPop:
				stack = stack[:n]
			case OpSwap:
				stack[n-1], stack[n] = stack[n], stack[n-1]

			// Binary ops leave a OP b where a was and drop b.
			case OpAdd:
				stack[n-1] += stack[n]
				stack = stack[:n]
			case OpSub:
				stack[n-1] -= stack[n]
				stack = stack[:n]
			case OpMul:
				stack[n-1] *= stack[n]
				stack = stack[:n]
			case OpDiv:
				if stack[n] == 0 {
					f.pc = pc
					return nil, f.fault("division by zero")
				}
				stack[n-1] /= stack[n]
				stack = stack[:n]
			case OpRem:
				if stack[n] == 0 {
					f.pc = pc
					return nil, f.fault("division by zero")
				}
				stack[n-1] %= stack[n]
				stack = stack[:n]
			case OpAnd:
				stack[n-1] &= stack[n]
				stack = stack[:n]
			case OpOr:
				stack[n-1] |= stack[n]
				stack = stack[:n]
			case OpXor:
				stack[n-1] ^= stack[n]
				stack = stack[:n]
			case OpShl:
				stack[n-1] <<= uint64(stack[n]) & 63
				stack = stack[:n]
			case OpShr:
				stack[n-1] >>= uint64(stack[n]) & 63
				stack = stack[:n]
			case OpNeg:
				stack[n] = -stack[n]

			// Conditional branches compute taken and join at cond below:
			// ifXX v compares v with 0, ifcmpXX a b compares a with b.
			case OpIfEq:
				taken, stack = stack[n] == 0, stack[:n]
				goto cond
			case OpIfNe:
				taken, stack = stack[n] != 0, stack[:n]
				goto cond
			case OpIfLt:
				taken, stack = stack[n] < 0, stack[:n]
				goto cond
			case OpIfGe:
				taken, stack = stack[n] >= 0, stack[:n]
				goto cond
			case OpIfGt:
				taken, stack = stack[n] > 0, stack[:n]
				goto cond
			case OpIfLe:
				taken, stack = stack[n] <= 0, stack[:n]
				goto cond
			case OpIfCmpEq:
				taken, stack = stack[n-1] == stack[n], stack[:n-1]
				goto cond
			case OpIfCmpNe:
				taken, stack = stack[n-1] != stack[n], stack[:n-1]
				goto cond
			case OpIfCmpLt:
				taken, stack = stack[n-1] < stack[n], stack[:n-1]
				goto cond
			case OpIfCmpGe:
				taken, stack = stack[n-1] >= stack[n], stack[:n-1]
				goto cond
			case OpIfCmpGt:
				taken, stack = stack[n-1] > stack[n], stack[:n-1]
				goto cond
			case OpIfCmpLe:
				taken, stack = stack[n-1] <= stack[n], stack[:n-1]
				goto cond

			case OpGoto:
				if uint(in.Target) >= uint(len(code)) {
					f.pc = pc
					return nil, f.fault("branch to pc %d outside method [0,%d)", in.Target, len(code))
				}
				if tracking || int(in.Target) <= pc && ops == nil {
					f.pc, f.stack, b.left = int(in.Target), stack, left
					heat(f.mi, int(in.Target), pc)
					break dispatch
				}
				pc = int(in.Target)
				continue
			case OpCall:
				f.pc = pc
				if uint64(in.A) >= uint64(len(p.Methods)) {
					return nil, f.fault("callee index out of range")
				}
				callee := p.Methods[in.A]
				if len(stack) < callee.NArgs {
					return nil, f.fault("stack underflow executing %v", in.Op)
				}
				if depth >= maxDepth {
					return nil, f.fault("call depth exceeded")
				}
				if callee.NArgs < 0 || callee.NArgs > callee.NLocals {
					return nil, f.fault("callee %s takes %d args in %d locals",
						callee.Name, callee.NArgs, callee.NLocals)
				}
				f.stack, b.left = stack, left
				if depth == len(frames) {
					frames = append(frames, frame{}) // may move the caller
				}
				caller, nf := &frames[depth-1], &frames[depth]
				enter(nf, int(in.A))
				args := len(caller.stack) - callee.NArgs
				copy(nf.locals, caller.stack[args:])
				caller.stack = caller.stack[:args]
				depth++
				if prof != nil {
					prof.Calls++
					if depth > prof.MaxObservedDepth {
						prof.MaxObservedDepth = depth
					}
				}
				f = nf
				enterBlock(f, 0)
				continue load
			case OpRet:
				v := stack[n]
				f.stack = stack[:n] // keeps a grown buffer for the next call here
				depth--
				if depth == 0 {
					res.Return, res.Steps = v, b.stop-left
					return res, nil
				}
				b.left = left
				// Resume after the call. Calls never end blocks, so this
				// is a block continuation, not an entry, unless the next
				// pc happens to be a branch target.
				f = &frames[depth-1]
				f.pc++
				f.stack = append(f.stack, v)
				break dispatch

			case OpNewArr:
				f.pc = pc
				nv := stack[n]
				if nv < 0 || nv > 1<<24 {
					return nil, f.fault("bad array size %d", nv)
				}
				if heapCells+nv > maxHeap {
					return nil, &ResourceError{
						Resource: "heap", Limit: maxHeap, Used: heapCells + nv,
						Method: f.method.Name, PC: f.pc, Cause: ErrHeapLimit,
					}
				}
				f.pc, f.stack, b.left = pc+1, stack, left
				heapCells += nv
				heap = append(heap, make([]int64, nv))
				f.stack[len(f.stack)-1] = int64(len(heap))
				break dispatch
			case OpALoad:
				ref, i := stack[n-1], stack[n]
				if uint64(ref-1) >= uint64(len(heap)) {
					f.pc = pc
					return nil, f.fault("bad array reference %d", ref)
				}
				arr := heap[ref-1]
				if uint64(i) >= uint64(len(arr)) {
					f.pc = pc
					return nil, f.fault("array index %d out of range [0,%d)", i, len(arr))
				}
				stack[n-1] = arr[i]
				stack = stack[:n]
			case OpAStore:
				ref, i := stack[n-2], stack[n-1]
				if uint64(ref-1) >= uint64(len(heap)) {
					f.pc = pc
					return nil, f.fault("bad array reference %d", ref)
				}
				arr := heap[ref-1]
				if uint64(i) >= uint64(len(arr)) {
					f.pc = pc
					return nil, f.fault("array index %d out of range [0,%d)", i, len(arr))
				}
				arr[i] = stack[n]
				stack = stack[:n-2]
			case OpArrLen:
				ref := stack[n]
				if uint64(ref-1) >= uint64(len(heap)) {
					f.pc = pc
					return nil, f.fault("bad array reference %d", ref)
				}
				stack[n] = int64(len(heap[ref-1]))
			case OpIn:
				f.pc, f.stack, b.left = pc+1, stack[:n+2], left
				var v int64
				if inPos < len(input) {
					v = input[inPos]
					inPos++
				}
				f.stack[n+1] = v
				break dispatch
			case OpPrint:
				f.pc, f.stack, b.left = pc+1, stack[:n], left
				res.Output = append(res.Output, stack[n])
				break dispatch

			// Fused ops. Each runs its whole window or falls back; a
			// branch window leaves pc at its branch for the cond tail.
			case opPlain:
				goto unfuse
			case opLoadConst:
				if ops == nil || left < 1 || len(stack)+2 > cap(stack) || uint64(in.A) >= uint64(len(locals)) {
					goto unfuse
				}
				left--
				stack = stack[:n+3]
				stack[n+1], stack[n+2] = locals[in.A], code[pc+1].A
				pc += 2
				continue
			case opLoadLoad:
				if ops == nil || left < 1 || len(stack)+2 > cap(stack) || uint64(in.A) >= uint64(len(locals)) ||
					uint64(code[pc+1].A) >= uint64(len(locals)) {
					goto unfuse
				}
				left--
				stack = stack[:n+3]
				stack[n+1], stack[n+2] = locals[in.A], locals[code[pc+1].A]
				pc += 2
				continue
			case opStoreGoto:
				if ops == nil || left < 1 || n < 0 || uint64(in.A) >= uint64(len(locals)) ||
					uint(code[pc+1].Target) >= uint(len(code)) {
					goto unfuse
				}
				left--
				locals[in.A] = stack[n]
				stack = stack[:n]
				pc = int(code[pc+1].Target)
				continue
			case opAddStore:
				if ops == nil || left < 1 || n < 1 || uint64(code[pc+1].A) >= uint64(len(locals)) {
					goto unfuse
				}
				left--
				locals[code[pc+1].A] = stack[n-1] + stack[n]
				stack = stack[:n-1]
				pc += 2
				continue
			case opConstAdd:
				if ops == nil || left < 1 || n < 0 {
					goto unfuse
				}
				left--
				stack[n] += in.A
				pc += 2
				continue
			case opConstAnd:
				if ops == nil || left < 1 || n < 0 {
					goto unfuse
				}
				left--
				stack[n] &= in.A
				pc += 2
				continue
			case opConstShr:
				if ops == nil || left < 1 || n < 0 {
					goto unfuse
				}
				left--
				stack[n] >>= uint64(in.A) & 63
				pc += 2
				continue
			case opLoadConstIfCmpLt:
				if ops == nil || left < 2 || uint64(in.A) >= uint64(len(locals)) {
					goto unfuse
				}
				left -= 2
				taken = locals[in.A] < code[pc+1].A
				pc += 2
				goto cond
			case opLoadConstIfCmpGe:
				if ops == nil || left < 2 || uint64(in.A) >= uint64(len(locals)) {
					goto unfuse
				}
				left -= 2
				taken = locals[in.A] >= code[pc+1].A
				pc += 2
				goto cond
			case opLoadConstAddStore:
				if ops == nil || left < 3 || uint64(in.A) >= uint64(len(locals)) ||
					uint64(code[pc+3].A) >= uint64(len(locals)) {
					goto unfuse
				}
				left -= 3
				locals[code[pc+3].A] = locals[in.A] + code[pc+1].A
				pc += 4
				continue
			case opLoadConstAndIfEq:
				if ops == nil || left < 3 || uint64(in.A) >= uint64(len(locals)) {
					goto unfuse
				}
				left -= 3
				taken = locals[in.A]&code[pc+1].A == 0
				pc += 3
				goto cond
			case opLoadConstShrStore:
				if ops == nil || left < 3 || uint64(in.A) >= uint64(len(locals)) ||
					uint64(code[pc+3].A) >= uint64(len(locals)) {
					goto unfuse
				}
				left -= 3
				locals[code[pc+3].A] = locals[in.A] >> (uint64(code[pc+1].A) & 63)
				pc += 4
				continue
			case opLoadConstAddStoreGoto:
				if ops == nil || left < 4 || uint64(in.A) >= uint64(len(locals)) ||
					uint64(code[pc+3].A) >= uint64(len(locals)) || uint(code[pc+4].Target) >= uint(len(code)) {
					goto unfuse
				}
				left -= 4
				locals[code[pc+3].A] = locals[in.A] + code[pc+1].A
				pc = int(code[pc+4].Target)
				continue
			case opLoadMulAddStore:
				if ops == nil || left < 3 || n < 1 || uint64(in.A) >= uint64(len(locals)) ||
					uint64(code[pc+3].A) >= uint64(len(locals)) {
					goto unfuse
				}
				left -= 3
				locals[code[pc+3].A] = stack[n-1] + stack[n]*locals[in.A]
				stack = stack[:n-1]
				pc += 4
				continue

			default:
				f.pc = pc
				return nil, f.fault("invalid opcode %d", in.Op)
			}

			// Fall through to the next instruction.
			pc++
			if tracking && f.cfg.leader(pc) {
				f.pc, f.stack, b.left = pc, stack, left
				break dispatch
			}
			continue

		cond:
			{
				to := pc + 1
				if taken {
					to = int(code[pc].Target)
				}
				if sink != nil {
					// §3.1 at the branch: 0 when it lands where its
					// first execution landed, 1 otherwise. The sink
					// always has room for this bit.
					slot := &sink.first[int(sink.base[f.mi])+pc]
					land := int32(to) + 1
					if *slot == 0 {
						*slot = land
					}
					var bit uint64
					if *slot != land {
						bit = 1
					}
					sink.words[sink.n>>6] |= bit << (sink.n & 63)
					sink.n++
				}
				if tracking || sink != nil && sink.n == len(sink.words)<<6 {
					f.pc, f.stack, b.left = pc, stack, left
					if opts.Trace != nil {
						opts.Trace.addBranchExec(f.mi, pc, taken)
					}
					if sink != nil {
						sink.reserve()
					}
					if uint(to) >= uint(len(code)) {
						return nil, f.fault("branch to pc %d outside method [0,%d)", to, len(code))
					}
					f.pc = to
					break dispatch
				}
				if uint(to) >= uint(len(code)) {
					f.pc = pc
					return nil, f.fault("branch to pc %d outside method [0,%d)", to, len(code))
				}
				if to <= pc && ops == nil {
					f.pc, f.stack, b.left = to, stack, left
					heat(f.mi, to, pc)
					continue load
				}
				pc = to
			}
			continue

		unfuse:
			// Undecoded code reaches a fused op's arm only through a raw
			// byte past the ISA.
			if ops == nil {
				f.pc = pc
				return nil, f.fault("invalid opcode %d", in.Op)
			}
			// A fused op that cannot run its whole window, or a pc not
			// decoded yet, hands its step back and runs the plain op.
			// The frame dispatches plain ops until the loop next reloads
			// it, at the latest on its next backward jump.
			f.pc, f.stack, b.left = pc, stack, left+1
			unfused = true
			continue load
		}
		// Back from a call out: record a block entry when the saved pc
		// starts a block (e.g. falling through into a branch target).
		if tracking && f.cfg.leader(f.pc) {
			enterBlock(f, f.cfg.BlockOf(f.pc))
		}
	}
}

// check runs at a budget stop, with the executing frame saved in f: it
// fails the run once its step limit is used up or its context is done,
// and otherwise sets the next stop.
func (b *budget) check(f *frame, stepLimit int64, ctx context.Context, ctxDone <-chan struct{}) error {
	used := b.stop
	if used >= stepLimit {
		return &ResourceError{
			Resource: "steps", Limit: stepLimit, Used: used,
			Method: f.method.Name, PC: f.pc, Cause: ErrStepLimit,
		}
	}
	b.stop = stepLimit
	if ctxDone != nil {
		select {
		case <-ctxDone:
			return &ResourceError{
				Resource: "context", Limit: stepLimit, Used: used,
				Method: f.method.Name, PC: f.pc, Cause: ctx.Err(),
			}
		default:
		}
		b.stop = min(b.stop, used+ctxCheckInterval)
	}
	b.left = b.stop - used
	return nil
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
