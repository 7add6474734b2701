package vm

import "sort"

// Profile accumulates interpreter-level execution statistics: the dynamic
// opcode mix and per-block execution counts ("hot blocks"), plus call and
// depth accounting. Attach one via RunOptions.Profile; a nil *Profile
// disables collection entirely, and the interpreter's hot loop pays only
// a hoisted pointer nil-check per dispatched instruction on the disabled
// path (measured at well under 1% on the recognition benchmarks — see
// EXPERIMENTS.md "Instrumentation overhead").
//
// Profile is not safe for concurrent use; give each Run its own.
type Profile struct {
	// Steps counts dispatched instructions (mirrors Result.Steps).
	Steps int64
	// OpCount is the dynamic opcode mix, indexed by Op.
	OpCount [opCount]int64
	// Blocks is the run's block statistics, whose entry counts are the
	// hot-block profile; the run sets it.
	Blocks *Blocks
	// Calls counts OpCall dispatches; MaxObservedDepth is the deepest
	// call stack seen.
	Calls            int64
	MaxObservedDepth int
}

// NewProfile returns an empty profile ready to attach to RunOptions.
func NewProfile() *Profile {
	return &Profile{}
}

// OpCountEntry is one row of the dynamic opcode mix.
type OpCountEntry struct {
	Op    Op
	Count int64
}

// OpMix returns the executed opcodes sorted by descending count (ties by
// opcode), omitting never-executed opcodes.
func (p *Profile) OpMix() []OpCountEntry {
	if p == nil {
		return nil
	}
	var out []OpCountEntry
	for op, c := range p.OpCount {
		if c > 0 {
			out = append(out, OpCountEntry{Op: Op(op), Count: c})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		return out[a].Op < out[b].Op
	})
	return out
}

// BlockCountEntry is one row of the hot-block profile.
type BlockCountEntry struct {
	Key   BlockKey
	Count int64
}

// TopBlocks returns the n most-executed basic blocks, sorted by
// descending count (ties by method then block index, so the order is
// deterministic).
func (p *Profile) TopBlocks(n int) []BlockCountEntry {
	if p == nil || p.Blocks == nil {
		return nil
	}
	var out []BlockCountEntry
	for mi, m := range p.Blocks.Methods {
		for bi, c := range m.Count {
			if c > 0 {
				out = append(out, BlockCountEntry{Key: BlockKey{Method: mi, Block: bi}, Count: c})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		if out[a].Key.Method != out[b].Key.Method {
			return out[a].Key.Method < out[b].Key.Method
		}
		return out[a].Key.Block < out[b].Key.Block
	})
	if n >= 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
