package attacks

import (
	"math/rand"

	"pathmark/internal/vm"
)

// InsertRandomBranches implements the paper's branch insertion attack
// (§5.1.2, Figures 8(c) and 8(d)): conditional branches guarded by the
// attacker's opaquely false predicate
//
//	if (x * (x - 1) % 2 != 0) x++;
//
// are inserted at random positions until the program's static conditional
// branch count has grown by `increase` (1.0 = +100%). Each inserted branch
// that lands inside a watermark piece's code corrupts that piece's bits;
// the watermark survives as long as enough redundant pieces stay intact.
//
// The returned program is semantics-preserving (the predicate is always
// false) and verified.
func InsertRandomBranches(p *vm.Program, rng *rand.Rand, increase float64) *vm.Program {
	q := p.Clone()
	targetNew := int(float64(q.CountCondBranches()) * increase)
	if targetNew <= 0 {
		return mustVerify(q)
	}

	// Weight methods by code size so positions are uniform program-wide.
	type insertPoint struct {
		method int
		pc     int
	}
	var points []insertPoint
	for i := 0; i < targetNew; i++ {
		mi := weightedMethod(q, rng)
		m := q.Methods[mi]
		points = append(points, insertPoint{method: mi, pc: rng.Intn(len(m.Code))})
	}
	// Apply in descending pc order per method.
	byMethod := make(map[int][]int)
	for _, pt := range points {
		byMethod[pt.method] = append(byMethod[pt.method], pt.pc)
	}
	for mi, pcs := range byMethod {
		m := q.Methods[mi]
		x := int64(m.AllocLocal())
		sortDesc(pcs)
		for _, pc := range pcs {
			m.InsertAt(pc, attackSnippet(x, pc))
		}
	}
	return mustVerify(q)
}

// attackSnippet emits `if (x*(x-1) % 2 != 0) x++` at method-relative
// position `at` (bitwise parity form, overflow-safe).
func attackSnippet(x int64, at int) []vm.Instr {
	// Layout: load x; dup; const 1; sub; mul; const 1; and; ifne DO;
	//         goto END; DO: x++ (4); END:
	seq := []vm.Instr{
		{Op: vm.OpLoad, A: x},
		{Op: vm.OpDup},
		{Op: vm.OpConst, A: 1},
		{Op: vm.OpSub},
		{Op: vm.OpMul},
		{Op: vm.OpConst, A: 1},
		{Op: vm.OpAnd},
		{Op: vm.OpIfNe}, // -> DO
		{Op: vm.OpGoto}, // -> END
		{Op: vm.OpLoad, A: x},
		{Op: vm.OpConst, A: 1},
		{Op: vm.OpAdd},
		{Op: vm.OpStore, A: x},
	}
	seq[7].Target = int32(at + 9)  // DO
	seq[8].Target = int32(at + 13) // END = one past the snippet
	return seq
}

func weightedMethod(p *vm.Program, rng *rand.Rand) int {
	total := 0
	for _, m := range p.Methods {
		total += len(m.Code)
	}
	x := rng.Intn(total)
	for i, m := range p.Methods {
		x -= len(m.Code)
		if x < 0 {
			return i
		}
	}
	return len(p.Methods) - 1
}

func sortDesc(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] > xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
