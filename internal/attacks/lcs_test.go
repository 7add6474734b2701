package attacks

import (
	"math/rand"
	"testing"

	"pathmark/internal/vm"
	"pathmark/internal/workloads"
)

// randInstrs draws a random instruction sequence over a small alphabet so
// LCS structure is non-trivial (many ties, repeated symbols).
func randInstrs(rng *rand.Rand, n int) []vm.Instr {
	ops := []vm.Op{vm.OpConst, vm.OpAdd, vm.OpMul, vm.OpNop, vm.OpGoto, vm.OpLoad}
	out := make([]vm.Instr, n)
	for i := range out {
		in := vm.Instr{Op: ops[rng.Intn(len(ops))]}
		switch {
		case in.Op == vm.OpConst || in.Op == vm.OpLoad:
			in.A = int64(rng.Intn(4))
		case in.Op.IsBranch():
			in.Target = int32(rng.Intn(8)) // ignored by instrMatch, on purpose
		}
		out[i] = in
	}
	return out
}

// lcsLenNaive is the O(n·m) full-matrix reference implementation.
func lcsLenNaive(a, b []vm.Instr) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if instrMatch(a[i-1], b[j-1]) {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// TestLcsLenMatchesNaive: the trimmed two-row implementation must agree
// with the textbook matrix on random sequences and edge shapes.
func TestLcsLenMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		a := randInstrs(rng, rng.Intn(60))
		b := randInstrs(rng, rng.Intn(60))
		if got, want := lcsLen(a, b), lcsLenNaive(a, b); got != want {
			t.Fatalf("trial %d: lcsLen=%d naive=%d (|a|=%d |b|=%d)",
				trial, got, want, len(a), len(b))
		}
	}
	if lcsLen(nil, nil) != 0 {
		t.Error("empty/empty should be 0")
	}
	a := randInstrs(rng, 10)
	if lcsLen(a, a) != len(a) {
		t.Error("self LCS should be full length")
	}
}

// TestLcsMarksIsMaximal: Hirschberg marks must (a) mark exactly lcsLen
// positions, (b) mark only positions that actually pair up with b in
// order — checked by verifying the marked subsequence of a is a
// subsequence of b under instrMatch.
func TestLcsMarksIsMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		a := randInstrs(rng, rng.Intn(50))
		b := randInstrs(rng, rng.Intn(50))
		marks := lcsMarks(a, b)
		if len(marks) != len(a) {
			t.Fatalf("trial %d: %d marks for %d instructions", trial, len(marks), len(a))
		}
		count := 0
		var sub []vm.Instr
		for i, m := range marks {
			if m {
				count++
				sub = append(sub, a[i])
			}
		}
		if want := lcsLen(a, b); count != want {
			t.Fatalf("trial %d: marked %d, lcsLen %d", trial, count, want)
		}
		// The marked instructions must embed into b in order.
		j := 0
		for _, in := range sub {
			for j < len(b) && !instrMatch(in, b[j]) {
				j++
			}
			if j == len(b) {
				t.Fatalf("trial %d: marked subsequence does not embed into b", trial)
			}
			j++
		}
	}
}

// TestColludePreservesBehavior: whatever the coalition strips, the
// attacked program must verify and behave identically to the victim on
// the probe inputs — that is the attack's own correctness bar.
func TestColludePreservesBehavior(t *testing.T) {
	host := workloads.JessLike(workloads.JessLikeOptions{Seed: 11, Methods: 10, BlockSize: 30})
	// Two "fingerprinted" variants via divergent pre-obfuscation.
	copies := []*vm.Program{
		PreObfuscate(host, 1, 3),
		PreObfuscate(host, 2, 3),
	}
	for _, mode := range []CollusionMode{CollusionStrip, CollusionRandomize} {
		attacked, rep, err := Collude(copies, rand.New(rand.NewSource(9)), CollusionOptions{
			Mode:   mode,
			Probes: DefaultProbes(),
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := vm.Verify(attacked); err != nil {
			t.Fatalf("%v: attacked program fails verification: %v", mode, err)
		}
		if rep.Colluders != 1 || rep.TotalInstrs == 0 {
			t.Errorf("%v: implausible report %+v", mode, rep)
		}
		for _, probe := range DefaultProbes() {
			want, err := vm.Run(copies[0], vm.RunOptions{Input: probe})
			if err != nil {
				t.Fatalf("%v: victim run: %v", mode, err)
			}
			got, err := vm.Run(attacked, vm.RunOptions{Input: probe})
			if err != nil {
				t.Fatalf("%v: attacked run: %v", mode, err)
			}
			if !vm.SameBehavior(want, got) {
				t.Fatalf("%v: behavior diverged on probe %v", mode, probe)
			}
		}
	}
}

// TestColludeDegenerateCoalitions: an empty coalition errors; a coalition
// of one has no diff and must return the victim untouched.
func TestColludeDegenerateCoalitions(t *testing.T) {
	if _, _, err := Collude(nil, rand.New(rand.NewSource(1)), CollusionOptions{}); err == nil {
		t.Error("empty coalition accepted")
	}
	host := workloads.MiniCalc()
	out, rep, err := Collude([]*vm.Program{host}, rand.New(rand.NewSource(1)), CollusionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Colluders != 0 || rep.Runs != 0 {
		t.Errorf("coalition of one reported work: %+v", rep)
	}
	if vm.Dump(out) != vm.Dump(host) {
		t.Error("coalition of one mutated the victim")
	}
}
