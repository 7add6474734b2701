package vm

// Block is a basic block: a maximal straight-line instruction sequence
// [Start, End) within one method. Blocks are numbered densely in method
// order; the interpreter's tracer reports block entries by (method, block)
// index pairs.
type Block struct {
	Index int
	Start int // pc of the leader instruction
	End   int // pc one past the last instruction
}

// CFG is the per-method control flow graph.
type CFG struct {
	Blocks []Block
	// blockOf maps each pc to the index of its containing block.
	blockOf []int
}

// BuildCFG computes the method's basic blocks.
// Leaders are: pc 0, every branch target, and every instruction following
// a block-ending instruction (branch or ret). Calls do not end blocks —
// as in JVM bytecode, an invoke is an ordinary block-internal instruction.
func BuildCFG(m *Method) *CFG {
	n := len(m.Code)
	leader := make([]bool, n+1)
	if n > 0 {
		leader[0] = true
	}
	for pc, in := range m.Code {
		if in.Op.IsBranch() {
			if in.Target >= 0 && int(in.Target) < n {
				leader[in.Target] = true
			}
		}
		if in.Op.IsBlockEnd() && pc+1 < n {
			leader[pc+1] = true
		}
	}
	cfg := &CFG{blockOf: make([]int, n)}
	start := -1
	for pc := 0; pc <= n; pc++ {
		if pc == n || leader[pc] {
			if start >= 0 {
				cfg.Blocks = append(cfg.Blocks, Block{Index: len(cfg.Blocks), Start: start, End: pc})
			}
			start = pc
		}
	}
	for bi, b := range cfg.Blocks {
		for pc := b.Start; pc < b.End; pc++ {
			cfg.blockOf[pc] = bi
		}
	}
	return cfg
}

// BlockOf returns the index of the block containing pc.
func (c *CFG) BlockOf(pc int) int { return c.blockOf[pc] }

// leader reports whether pc starts a block.
func (c *CFG) leader(pc int) bool {
	return pc < len(c.blockOf) && c.Blocks[c.blockOf[pc]].Start == pc
}

// NumBlocks returns the block count.
func (c *CFG) NumBlocks() int { return len(c.Blocks) }
