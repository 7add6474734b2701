package vm

import (
	"slices"
	"testing"
)

// profileTestProgram: a loop calling a helper, so the profile sees
// branches, calls, and more than one hot block.
const profileTestSrc = `
method main 0 2
	const 0
	store 0
loop:
	load 0
	const 10
	ifcmpge done
	load 0
	call double
	store 1
	load 0
	const 1
	add
	store 0
	goto loop
done:
	load 1
	ret

method double 1 1
	load 0
	const 2
	mul
	ret
`

func TestProfileCounts(t *testing.T) {
	p, err := Assemble(profileTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof := NewProfile()
	res, err := Run(p, RunOptions{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Steps != res.Steps {
		t.Errorf("Profile.Steps = %d, Result.Steps = %d", prof.Steps, res.Steps)
	}
	var opSum int64
	for _, c := range prof.OpCount {
		opSum += c
	}
	if opSum != res.Steps {
		t.Errorf("opcode mix sums to %d, want %d", opSum, res.Steps)
	}
	if prof.Calls != 10 {
		t.Errorf("Calls = %d, want 10", prof.Calls)
	}
	if prof.OpCount[OpCall] != 10 || prof.OpCount[OpMul] != 10 {
		t.Errorf("OpCount[call]=%d OpCount[mul]=%d, want 10 each",
			prof.OpCount[OpCall], prof.OpCount[OpMul])
	}
	if prof.MaxObservedDepth != 2 {
		t.Errorf("MaxObservedDepth = %d, want 2", prof.MaxObservedDepth)
	}
	if len(prof.TopBlocks(-1)) == 0 {
		t.Fatal("no blocks counted")
	}

	mix := prof.OpMix()
	for i := 1; i < len(mix); i++ {
		if mix[i].Count > mix[i-1].Count {
			t.Errorf("OpMix not sorted: %v before %v", mix[i-1], mix[i])
		}
	}
	top := prof.TopBlocks(2)
	if len(top) != 2 || top[0].Count < top[1].Count {
		t.Errorf("TopBlocks(2) = %v", top)
	}
	// The loop-body block executes 10 times; it must appear in the top 2.
	found := false
	for _, b := range top {
		if b.Count >= 10 {
			found = true
		}
	}
	if !found {
		t.Errorf("no hot block with >=10 entries in %v", top)
	}
}

// TestProfileDoesNotPerturb: attaching a profile must not change the run
// result, and a profiled run must count the same block entries a traced
// run records.
func TestProfileDoesNotPerturb(t *testing.T) {
	p, err := Assemble(profileTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prof := NewProfile()
	profiled, err := Run(p, RunOptions{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	if !SameBehavior(plain, profiled) || plain.Steps != profiled.Steps {
		t.Errorf("profile changed the run: %+v vs %+v", plain, profiled)
	}
	tr, _, err := CollectWith(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for mi, m := range tr.Blocks.Methods {
		if got := prof.Blocks.Methods[mi].Count; !slices.Equal(got, m.Count) {
			t.Errorf("method %d: profile counts %v vs trace %v", mi, got, m.Count)
		}
	}
}
