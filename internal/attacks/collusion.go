package attacks

import (
	"errors"
	"fmt"
	"math/rand"

	"pathmark/internal/vm"
)

// Collusion analysis and attack (paper §5.1.2): an attacker holding two or
// more fingerprinted copies of the same program can diff them — everything
// the copies do NOT share is a watermark-code suspect that can be stripped
// or scrambled. The paper's defense is to obfuscate each copy
// independently *before* watermarking, so the diff contains "much more
// than just the watermark code"; wm.BatchOptions.Harden is the
// complementary defense of making the copies share everything *except* an
// unremovable kernel.
//
// CollusionSuspects quantifies the attack's leverage: the fraction of the
// first program's instructions that fall outside a per-method longest
// common subsequence with the second copy. Near 0 means the diff precisely
// localizes the watermark; large values mean stripping the diff would
// destroy the program itself.
func CollusionSuspects(a, b *vm.Program) float64 {
	totalA := 0
	common := 0
	for _, ma := range a.Methods {
		totalA += len(ma.Code)
		if mb := b.MethodByName(ma.Name); mb != nil {
			common += lcsLen(ma.Code, mb.Code)
		}
	}
	if totalA == 0 {
		return 0
	}
	return 1 - float64(common)/float64(totalA)
}

// instrMatch is the collusion diff's instruction equivalence: opcodes must
// agree and, for non-branch opcodes, immediates must agree (branch targets
// legitimately shift between copies). The relation is symmetric, so the
// LCS over it is too.
func instrMatch(x, y vm.Instr) bool {
	if x.Op != y.Op {
		return false
	}
	if x.Op.IsBranch() {
		return true
	}
	return x.A == y.A
}

// lcsLen computes the longest-common-subsequence length over instruction
// sequences in memory bounded by the *shorter* side: matching prefix and
// suffix are peeled off first (always optimal: when the first elements
// match, some maximal subsequence uses that pair), then two DP rows are
// allocated over the shorter remainder. Diffing a fleet's worth of large
// near-identical copies — the hardened-fleet case, where copies differ in
// a handful of constants — costs O(diff span) memory instead of
// O(method size).
func lcsLen(a, b []vm.Instr) int {
	common := 0
	for len(a) > 0 && len(b) > 0 && instrMatch(a[0], b[0]) {
		a, b = a[1:], b[1:]
		common++
	}
	for len(a) > 0 && len(b) > 0 && instrMatch(a[len(a)-1], b[len(b)-1]) {
		a, b = a[:len(a)-1], b[:len(b)-1]
		common++
	}
	if len(b) > len(a) {
		a, b = b, a
	}
	if len(b) == 0 {
		return common
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			switch {
			case instrMatch(a[i-1], b[j-1]):
				cur[j] = prev[j-1] + 1
			case prev[j] >= cur[j-1]:
				cur[j] = prev[j]
			default:
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return common + prev[len(b)]
}

// lcsRow returns the final DP row f with f[j] = LCS(a, b[:j]).
func lcsRow(a, b []vm.Instr) []int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			switch {
			case instrMatch(a[i-1], b[j-1]):
				cur[j] = prev[j-1] + 1
			case prev[j] >= cur[j-1]:
				cur[j] = prev[j]
			default:
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev
}

// lcsRowRev returns g with g[j] = LCS(a, b[j:]) — the mirror of lcsRow,
// used for Hirschberg's split search.
func lcsRowRev(a, b []vm.Instr) []int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			switch {
			case instrMatch(a[i], b[j]):
				cur[j] = prev[j+1] + 1
			case prev[j] >= cur[j+1]:
				cur[j] = prev[j]
			default:
				cur[j] = cur[j+1]
			}
		}
		prev, cur = cur, prev
	}
	return prev
}

// lcsMarks marks which instructions of a participate in one fixed
// maximum-length common subsequence with b, via Hirschberg's linear-space
// divide and conquer: O(len(a)·len(b)) time, O(len(b)) live rows. The
// unmarked positions are exactly the diff a colluding coalition sees.
func lcsMarks(a, b []vm.Instr) []bool {
	marks := make([]bool, len(a))
	hirschbergMark(a, b, 0, marks)
	return marks
}

func hirschbergMark(a, b []vm.Instr, aOff int, marks []bool) {
	if len(a) == 0 || len(b) == 0 {
		return
	}
	if len(a) == 1 {
		for _, y := range b {
			if instrMatch(a[0], y) {
				marks[aOff] = true
				return
			}
		}
		return
	}
	mid := len(a) / 2
	f := lcsRow(a[:mid], b)
	g := lcsRowRev(a[mid:], b)
	bestK, best := 0, -1
	for k := 0; k <= len(b); k++ {
		if f[k]+g[k] > best {
			best, bestK = f[k]+g[k], k
		}
	}
	hirschbergMark(a[:mid], b[:bestK], aOff, marks)
	hirschbergMark(a[mid:], b[bestK:], aOff+mid, marks)
}

// CollusionMode selects what the coalition does with the divergent sites
// its diff exposes.
type CollusionMode int

const (
	// CollusionStrip overwrites each divergent instruction run with no-ops
	// — the classic "delete what differs" fingerprint attack.
	CollusionStrip CollusionMode = iota
	// CollusionRandomize rewrites the constant immediates inside divergent
	// runs to random values, aiming to scramble embedded data without
	// perturbing control flow.
	CollusionRandomize
)

func (m CollusionMode) String() string {
	if m == CollusionRandomize {
		return "randomize"
	}
	return "strip"
}

// CollusionOptions tunes Collude.
type CollusionOptions struct {
	Mode CollusionMode
	// Probes are the input vectors of the coalition's behavior check: a
	// mutation that changes the victim's observable behavior (or breaks
	// verification) on any probe is rolled back — the attacker wants a
	// working program. nil uses DefaultProbes.
	Probes [][]int64
}

// probeStepLimit bounds each reference probe run of the victim; mutated
// programs get 4× the reference run's step count, so a mutation that
// introduces an unbounded loop is detected and rolled back.
const probeStepLimit = 10_000_000

// DefaultProbes is the default behavior-check input set: the empty input
// plus two short token vectors (hosts in this codebase treat inputs
// defensively, so arbitrary tokens exercise real paths).
func DefaultProbes() [][]int64 {
	return [][]int64{nil, {1, 2, 3, 4}, {9, 0, 7}}
}

// CollusionReport summarizes one coalition attack.
type CollusionReport struct {
	// Colluders is the coalition size beyond the victim copy.
	Colluders int
	// TotalInstrs / SuspectInstrs: victim program size and how much of it
	// fell outside the coalition's common core.
	TotalInstrs   int
	SuspectInstrs int
	// Runs counts the contiguous divergent runs attacked; Mutated the runs
	// whose mutation stuck; RolledBack the runs reverted because the
	// mutation broke verification or probe behavior.
	Runs       int
	Mutated    int
	RolledBack int
}

// Collude mounts the coalition attack on copies[0]: every other copy is a
// colluder whose per-method instruction diff (Hirschberg LCS under
// instrMatch) narrows the victim's "common core". Instructions outside
// the core of ALL colluders are attacked in contiguous runs — stripped to
// no-ops or constant-randomized per opts.Mode — and each run's mutation is
// kept only if the program still verifies and behaves identically on the
// probe inputs. The victim copies are never mutated; the attacked clone is
// returned with a report of the coalition's leverage.
//
// The rollback rule is what the coalition-hardened embedder exploits:
// a watermark piece constant whose removal breaks stack discipline
// survives stripping even when the diff localizes it exactly.
func Collude(copies []*vm.Program, rng *rand.Rand, opts CollusionOptions) (*vm.Program, *CollusionReport, error) {
	if len(copies) == 0 {
		return nil, nil, errors.New("attacks: Collude needs at least the victim copy")
	}
	victim := copies[0]
	out := victim.Clone()
	rep := &CollusionReport{Colluders: len(copies) - 1, TotalInstrs: victim.CodeSize()}
	if len(copies) == 1 {
		return out, rep, nil // a coalition of one has no diff to attack
	}

	probes := opts.Probes
	if probes == nil {
		probes = DefaultProbes()
	}
	refs := make([]*vm.Result, len(probes))
	limits := make([]int64, len(probes))
	for i, in := range probes {
		ref, err := vm.Run(victim, vm.RunOptions{Input: in, StepLimit: probeStepLimit})
		if err != nil {
			return nil, nil, fmt.Errorf("attacks: victim fails probe %d: %w", i, err)
		}
		refs[i] = ref
		limits[i] = ref.Steps*4 + 4096
	}
	stillBehaves := func() bool {
		for i, in := range probes {
			got, err := vm.Run(out, vm.RunOptions{Input: in, StepLimit: limits[i]})
			if err != nil || !vm.SameBehavior(refs[i], got) {
				return false
			}
		}
		return true
	}

	for mi, ma := range out.Methods {
		if len(ma.Code) == 0 {
			continue
		}
		core := make([]bool, len(ma.Code))
		for i := range core {
			core[i] = true
		}
		for _, c := range copies[1:] {
			mb := c.MethodByName(ma.Name)
			if mb == nil {
				for i := range core {
					core[i] = false
				}
				break
			}
			marks := lcsMarks(ma.Code, mb.Code)
			for i := range core {
				core[i] = core[i] && marks[i]
			}
		}
		for _, c := range core {
			if !c {
				rep.SuspectInstrs++
			}
		}
		// Attack each maximal divergent run. Mutations preserve the
		// instruction count, so branch targets (and the core indices of
		// later runs) stay valid whether or not a run is kept.
		for lo := 0; lo < len(ma.Code); {
			if core[lo] {
				lo++
				continue
			}
			hi := lo
			for hi < len(ma.Code) && !core[hi] {
				hi++
			}
			saved := append([]vm.Instr(nil), ma.Code[lo:hi]...)
			changed := false
			switch opts.Mode {
			case CollusionRandomize:
				for pc := lo; pc < hi; pc++ {
					if ma.Code[pc].Op == vm.OpConst {
						ma.Code[pc].A = rng.Int63()
						changed = true
					}
				}
			default:
				for pc := lo; pc < hi; pc++ {
					ma.Code[pc] = vm.Instr{Op: vm.OpNop}
				}
				changed = true
			}
			if changed {
				rep.Runs++
				if vm.VerifyMethod(out, mi) == nil && stillBehaves() {
					rep.Mutated++
				} else {
					copy(ma.Code[lo:hi], saved)
					rep.RolledBack++
				}
			}
			lo = hi
		}
	}
	return mustVerify(out), rep, nil
}

// PreObfuscate applies a randomized chain of distortive transformations —
// the paper's collusion defense, producing a "highly diverse program
// population" so that per-customer copies differ everywhere, not only in
// their watermark code. Each copy must use its own seed.
func PreObfuscate(p *vm.Program, seed int64, rounds int) *vm.Program {
	rng := rand.New(rand.NewSource(seed))
	distortive := Distortive()
	out := p
	for i := 0; i < rounds; i++ {
		a := distortive[rng.Intn(len(distortive))]
		out = a.Apply(out, rng)
	}
	return mustVerify(out.Clone())
}
