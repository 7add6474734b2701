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
	// Blocks is the run's block statistics: per-block entry counts, used
	// for the inverse-frequency insertion weighting of §3.2, and the
	// first snapshots of every block.
	Blocks *Blocks
	// blocksOnly (CollectBlocks) records Blocks and logs no events.
	blocksOnly bool
}

func (t *Trace) addBranchExec(mi, pc int, taken bool) {
	if !t.blocksOnly {
		t.Events = append(t.Events, Event{Kind: EvBranchExec, Taken: taken, Method: int32(mi), Loc: int32(pc)})
	}
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

// Blocks is the dense block record of one tracked run. Methods[mi] is
// method mi's part, sized from its CFG when the run first enters the
// method; a method the run never entered keeps a zero part.
type Blocks struct {
	Methods []MethodBlocks
	limit   int     // snapshots kept per block
	slab    []int64 // the snapshots' values are cut from here
}

// MethodBlocks is one method's part of a Blocks record. Count and the
// snapshots are indexed by the CFG's block index.
type MethodBlocks struct {
	CFG   *CFG    // nil when the run never entered the method
	Count []int64 // entries per block
	snaps []Snapshot
	code  []Instr // the method's code, whose blocks CFG holds
}

// newBlocks returns an empty record for p that keeps up to limit
// snapshots per block.
func newBlocks(p *Program, limit int) *Blocks {
	return &Blocks{Methods: make([]MethodBlocks, len(p.Methods)), limit: limit}
}

// cfg returns method mi's CFG, building it and sizing the method's part
// on the first call.
func (b *Blocks) cfg(p *Program, mi int) *CFG {
	m := &b.Methods[mi]
	if m.CFG == nil {
		m.code = p.Methods[mi].Code
		m.CFG = BuildCFG(p.Methods[mi])
		n := m.CFG.NumBlocks()
		m.Count = make([]int64, n)
		if b.limit > 0 {
			m.snaps = make([]Snapshot, n*b.limit)
		}
	}
	return m.CFG
}

// enter records an entry into block bi of method mi, whose part cfg has
// sized, with the environment it enters with.
func (b *Blocks) enter(mi, bi int, locals, statics []int64) {
	m := &b.Methods[mi]
	if uint(bi) >= uint(len(m.Count)) {
		return // an empty method has no block 0
	}
	c := m.Count[bi]
	m.Count[bi] = c + 1
	if c < int64(b.limit) {
		m.snaps[bi*b.limit+int(c)] = Snapshot{Locals: b.carve(locals), Statics: b.carve(statics)}
	}
}

// carve copies v into a fresh capped stretch of the slab (nil when v is
// empty, as append([]int64(nil), v...) gives).
func (b *Blocks) carve(v []int64) []int64 {
	if len(v) == 0 {
		return nil
	}
	if len(v) > len(b.slab) {
		b.slab = make([]int64, max(len(v), 4096))
	}
	s := b.slab[:len(v):len(v)]
	b.slab = b.slab[len(v):]
	copy(s, v)
	return s
}

// Snapshots returns block bi's snapshots in execution order (index 0 =
// first entry), up to the record's limit.
func (m *MethodBlocks) Snapshots(bi int) []Snapshot {
	if len(m.snaps) == 0 {
		return nil
	}
	limit := len(m.snaps) / len(m.Count)
	n := int(min(m.Count[bi], int64(limit)))
	return m.snaps[bi*limit : bi*limit+n : bi*limit+n]
}

// Events is the number of events a CollectWith of the same completed
// run logs: one per block entry and one per conditional branch. Every
// conditional branch ends its block, and in a run that completes every
// block entry runs on to the block's end (a call inside the block
// returns into it), so a block ending in one executes it once per entry.
func (b *Blocks) Events() int64 {
	var n int64
	for _, m := range b.Methods {
		for bi, c := range m.Count {
			n += c
			if m.code[m.CFG.Blocks[bi].End-1].Op.IsCondBranch() {
				n += c
			}
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
// program. It keeps the event log for event-level tools; the embedder
// runs CollectBlocks.
func CollectWith(p *Program, opts RunOptions) (*Trace, *Result, error) {
	tr := &Trace{}
	opts.Trace = tr
	res, err := Run(p, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("vm: tracing run failed: %w", err)
	}
	return tr, res, nil
}

// CollectBlocks runs p like CollectWith and returns only the trace's
// block statistics, without logging events: the embedder's tracing
// phase (§3.1), which needs block counts and snapshots but never reads
// the log. opts.Trace is ignored. Results, steps, errors, counts and
// snapshots are exactly CollectWith's, and Blocks.Events is the length
// of its log.
func CollectBlocks(p *Program, opts RunOptions) (*Blocks, *Result, error) {
	tr := &Trace{blocksOnly: true}
	opts.Trace = tr
	res, err := Run(p, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("vm: tracing run failed: %w", err)
	}
	return tr.Blocks, res, nil
}

// CollectBits runs p like CollectWith and returns the bit-string
// DecodeBits would decode from its trace, without recording the trace: a
// bit sink decodes each conditional branch where it executes, since the
// pc it lands on already names its successor block. It is recognition's
// run mode; CollectBlocks is the embedder's, and Collect and
// CollectWith stay for event-level tools. opts.Trace is ignored. Results, steps and errors are exactly CollectWith's.
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
