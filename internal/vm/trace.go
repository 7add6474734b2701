package vm

import (
	"fmt"

	"pathmark/internal/bitstring"
)

// EventKind distinguishes trace events.
type EventKind uint8

const (
	// EvBlockEnter records control entering a basic block.
	EvBlockEnter EventKind = iota
	// EvBranchExec records the execution of a conditional branch, emitted
	// immediately before control transfers to the successor block. The
	// next EvBlockEnter event is the branch's dynamic successor.
	EvBranchExec
)

// Event is a single trace record. For EvBlockEnter, Loc is the block index
// within the method; for EvBranchExec it is the pc of the branch and Taken
// records the direction (used only by the naive decode-rule ablation; the
// paper's rule deliberately ignores it).
type Event struct {
	Kind   EventKind
	Taken  bool
	Method int32
	Loc    int32
}

// BlockKey identifies a basic block program-wide.
type BlockKey struct {
	Method int
	Block  int
}

// BranchKey identifies a static conditional branch program-wide.
type BranchKey struct {
	Method int
	PC     int
}

// Snapshot captures the variable environment at a block entry: the
// containing frame's locals and the program statics (the data SandMark's
// tracing phase stores at each trace point, §3.1).
type Snapshot struct {
	Locals  []int64
	Statics []int64
}

// Trace accumulates the dynamic behavior of one run on the secret input.
type Trace struct {
	Events []Event
	// BlockCount is the execution frequency of each block, used for the
	// inverse-frequency insertion weighting of §3.2.
	BlockCount map[BlockKey]int64
	// Snapshots stores up to the per-run snapshot limit of environments
	// per block, in execution order (index 0 = first execution).
	Snapshots map[BlockKey][]Snapshot
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{
		BlockCount: make(map[BlockKey]int64),
		Snapshots:  make(map[BlockKey][]Snapshot),
	}
}

func (t *Trace) addBlockEnter(mi, bi int, locals, statics []int64, snapLimit int) {
	t.Events = append(t.Events, Event{Kind: EvBlockEnter, Method: int32(mi), Loc: int32(bi)})
	k := BlockKey{Method: mi, Block: bi}
	t.BlockCount[k]++
	if len(t.Snapshots[k]) < snapLimit {
		t.Snapshots[k] = append(t.Snapshots[k], Snapshot{
			Locals:  append([]int64(nil), locals...),
			Statics: append([]int64(nil), statics...),
		})
	}
}

func (t *Trace) addBranchExec(mi, pc int, taken bool) {
	t.Events = append(t.Events, Event{Kind: EvBranchExec, Taken: taken, Method: int32(mi), Loc: int32(pc)})
}

// NumBranchExecs counts dynamic conditional-branch executions.
func (t *Trace) NumBranchExecs() int {
	n := 0
	for _, e := range t.Events {
		if e.Kind == EvBranchExec {
			n++
		}
	}
	return n
}

// Collect runs the program on the secret input with tracing enabled and
// returns the trace (the paper's tracing phase). The run must succeed.
func Collect(p *Program, input []int64, snapshotLimit int) (*Trace, *Result, error) {
	return CollectWith(p, RunOptions{Input: input, SnapshotLimit: snapshotLimit})
}

// CollectWith is Collect with full control over the run: callers use it to
// bound the tracing run with a step budget, heap budget, or cancellable
// context (opts.Trace is overwritten with a fresh trace). A *ResourceError
// from the run propagates unwrapped-able through the returned error so
// callers can distinguish fuel exhaustion from a genuinely faulting
// program.
func CollectWith(p *Program, opts RunOptions) (*Trace, *Result, error) {
	tr := NewTrace()
	opts.Trace = tr
	res, err := Run(p, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("vm: tracing run failed: %w", err)
	}
	return tr, res, nil
}

// CollectBits runs p like CollectWith and returns the bit-string
// DecodeBits would decode from its trace, without recording the trace: a
// bit sink decodes each conditional branch where it executes, since the
// pc it lands on already names its successor block. It is recognition's
// run mode; Collect and CollectWith stay for the embedder, which needs
// block counts and snapshots, and for event-level tools. opts.Trace is
// ignored. Results, steps and errors are exactly CollectWith's.
func CollectBits(p *Program, opts RunOptions) (*bitstring.Bits, *Result, error) {
	opts.Trace = nil
	sink := newBitSink(p)
	res, err := run(p, opts, sink)
	if err != nil {
		return nil, nil, fmt.Errorf("vm: tracing run failed: %w", err)
	}
	bits, err := bitstring.FromWords(sink.words[:(sink.n+63)/64], sink.n)
	return bits, res, err
}

// bitSink holds the state of §3.1's rule, which the interpreter applies
// inline at branch execution. Its one table, first, holds for every
// instruction of the program (method mi's pc at base[mi]+pc) the landing
// pc + 1 of that branch's first execution, or 0 before it. Every branch
// target and every pc after a conditional branch starts a block, so
// within a method equal landing pcs are equal successor blocks. The bits
// so far are the first n of words, which always has room for one more.
type bitSink struct {
	base  []int32
	first []int32
	words []uint64
	n     int
}

func newBitSink(p *Program) *bitSink {
	s := &bitSink{base: make([]int32, len(p.Methods)), words: make([]uint64, 1)}
	n := 0
	for mi, m := range p.Methods {
		s.base[mi] = int32(n)
		n += len(m.Code)
	}
	s.first = make([]int32, n)
	return s
}

// reserve makes room for one more bit when words is full.
func (s *bitSink) reserve() {
	if s.n == len(s.words)<<6 {
		s.words = append(s.words, 0)
		s.words = s.words[:cap(s.words)]
	}
}

// DecodeBits converts a trace into its bit-string per §3.1's rule:
//
//	For each conditional branch instruction i that occurs in the trace,
//	find its first occurrence and the block j that immediately follows it.
//	Scan the trace writing 0 whenever a conditional branch is immediately
//	followed by the block by which its first occurrence was followed, and
//	1 otherwise.
//
// Every branch's first dynamic occurrence therefore contributes a 0. The
// resulting string is invariant under block reordering, branch-sense
// inversion, and insertion or deletion of non-branch instructions; adding
// or removing branches perturbs it only locally.
//
// A branch with no successor block in the trace (the run was truncated
// mid-transfer) contributes no bit. Callers holding the continuation of
// such a trace must not decode the halves independently — the cut branch
// would be dropped and every later first-occurrence would be mis-seeded.
// StreamDecoder is the chunk-safe form of this rule.
func (t *Trace) DecodeBits() *bitstring.Bits {
	return NewStreamDecoder().Feed(bitstring.New(len(t.Events)/2), t.Events...)
}

// StreamDecoder is the incremental form of DecodeBits: feed it trace
// events chunk by chunk and it appends the decoded bits as they become
// determined. Two pieces of state persist across chunks, which is what
// makes split traces decode identically to unsplit ones:
//
//   - the first-successor map (a branch first executed in chunk 1 keeps
//     seeding comparisons in chunk 100), and
//   - the pending branches — branch events whose successor block has not
//     arrived yet. A branch event split from its successor by a chunk
//     boundary (or by trace truncation) emits no bit until the successor
//     shows up in a later chunk; DecodeBits over a complete trace never
//     leaves one behind.
//
// State is O(static branches + in-flight branches), independent of trace
// length.
type StreamDecoder struct {
	first   map[BranchKey]BlockKey
	pending []BranchKey
}

// NewStreamDecoder returns a decoder with empty first-successor state.
func NewStreamDecoder() *StreamDecoder {
	return &StreamDecoder{first: make(map[BranchKey]BlockKey)}
}

// Feed decodes a chunk of events, appending every bit it determines to
// dst (allocated when nil) and returning dst. Feeding a trace's chunks in
// order produces exactly the bits DecodeBits produces on the whole trace,
// regardless of where the chunk boundaries fall.
func (d *StreamDecoder) Feed(dst *bitstring.Bits, events ...Event) *bitstring.Bits {
	if dst == nil {
		dst = bitstring.New(len(events) / 2)
	}
	for _, e := range events {
		switch e.Kind {
		case EvBranchExec:
			d.pending = append(d.pending, BranchKey{Method: int(e.Method), PC: int(e.Loc)})
		case EvBlockEnter:
			if len(d.pending) == 0 {
				continue
			}
			// This block is the dynamic successor of every branch executed
			// since the last block entry (consecutive branch events share
			// the next entered block, matching the batch rule).
			succ := BlockKey{Method: int(e.Method), Block: int(e.Loc)}
			for _, bk := range d.pending {
				if f, seen := d.first[bk]; seen {
					dst.Append(f != succ)
				} else {
					d.first[bk] = succ
					dst.Append(false)
				}
			}
			d.pending = d.pending[:0]
		}
	}
	return dst
}

// Pending reports how many branch events are waiting for their successor
// block — nonzero exactly when the events fed so far end in branches
// whose transfer target has not arrived yet.
func (d *StreamDecoder) Pending() int { return len(d.pending) }

// DecodeBitsBranchSense is the naive bit-string definition §3.1 rejects:
// write 1 for every taken conditional branch and 0 otherwise. It exists as
// the ablation baseline — an attacker can toggle its bits at will by
// negating predicates and exchanging branch targets, which the test suite
// demonstrates (the paper's first-successor rule is invariant under the
// same transformation).
func (t *Trace) DecodeBitsBranchSense() *bitstring.Bits {
	bits := bitstring.New(len(t.Events) / 2)
	for _, e := range t.Events {
		if e.Kind == EvBranchExec {
			bits.Append(e.Taken)
		}
	}
	return bits
}
