package branchfn

import (
	"math/rand"
	"testing"

	"pathmark/internal/isa"
)

// buildDispatchTest wires a branch function dispatching n chained call
// sites directly (without the watermark embedder) and checks control
// flows through the whole chain.
func buildDispatchTest(t *testing.T, n int, helperDepth int) {
	t.Helper()
	b := isa.NewBuilder()
	b.Jmp(siteLabel(0))
	// n call sites, each followed by an out marker that must NOT execute
	// (the branch function redirects around them).
	for i := 0; i < n; i++ {
		b.Label(siteLabel(i)).Raw(isa.Ins{Op: isa.OCall, Target: "bf_entry"})
	}
	b.Label("end").MovImm(isa.EAX, 42).Out(isa.EAX).Hlt()
	u := b.Unit()

	rng := rand.New(rand.NewSource(3))
	bf, err := Reserve(u, n, Options{HelperDepth: helperDepth, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	bf.PatchAddrs(u)
	img, err := isa.Assemble(u)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint32, n)
	targets := make([]uint32, n)
	for i := 0; i < n; i++ {
		keys[i] = img.Labels[siteLabel(i)] + CallLen
		if i+1 < n {
			targets[i] = img.Labels[siteLabel(i+1)]
		} else {
			targets[i] = img.Labels["end"]
		}
	}
	if err := bf.Finalize(u, keys, targets, nil); err != nil {
		t.Fatal(err)
	}
	res, err := isa.Execute(u, nil, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != 42 {
		t.Fatalf("chain output %v, want [42]", res.Output)
	}
}

func siteLabel(i int) string { return "site" + string(rune('A'+i%26)) + string(rune('0'+i/26)) }

func TestDispatchChainSizes(t *testing.T) {
	for _, n := range []int{1, 2, 5, 17} {
		buildDispatchTest(t, n, 0)
	}
}

func TestDispatchHelperDepths(t *testing.T) {
	for depth := 0; depth <= 4; depth++ {
		buildDispatchTest(t, 4, depth)
	}
}

func TestReserveRejectsBadArgs(t *testing.T) {
	u := &isa.Unit{}
	if _, err := Reserve(u, 0, Options{}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Reserve(u, 3, Options{HelperDepth: 9}); err == nil {
		t.Error("helper depth 9 accepted")
	}
}

func TestFinalizeRejectsMismatchedArgs(t *testing.T) {
	u := &isa.Unit{}
	bf, err := Reserve(u, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bf.Finalize(u, []uint32{1, 2}, []uint32{3, 4}, nil); err == nil {
		t.Error("wrong key count accepted")
	}
	if err := bf.Finalize(u, []uint32{1, 2, 3}, []uint32{4, 5, 6},
		[]TamperSlot{{Idx: 99}}); err == nil {
		t.Error("out-of-range tamper slot accepted")
	}
}

func TestRegisterAndFlagPreservation(t *testing.T) {
	// The branch function must preserve every register and the flags.
	b := isa.NewBuilder()
	b.Jmp("start")
	b.Label("site").Raw(isa.Ins{Op: isa.OCall, Target: "bf_entry"})
	b.Label("start").MovImm(isa.EAX, 10).MovImm(isa.EBX, 20).MovImm(isa.ECX, 30)
	b.MovImm(isa.EDX, 40).MovImm(isa.ESI, 50).MovImm(isa.EDI, 60)
	b.CmpImm(isa.EAX, 10) // ZF set
	b.Jmp("site")         // enters the chain; returns to "after"
	b.Label("after").Je("zf_ok")
	b.MovImm(isa.EAX, 0).Out(isa.EAX).Hlt()
	b.Label("zf_ok").Out(isa.EAX).Out(isa.EBX).Out(isa.ECX).Out(isa.EDX).Out(isa.ESI).Out(isa.EDI).Hlt()
	u := b.Unit()

	// The jmp at "start"'s end (to site) is the edge; rewrite it by hand:
	// replace `jmp site` with nothing — instead make the site's call the
	// begin and its target "after".
	bf, err := Reserve(u, 1, Options{HelperDepth: 2, Rng: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	bf.PatchAddrs(u)
	img, err := isa.Assemble(u)
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint32{img.Labels["site"] + CallLen}
	targets := []uint32{img.Labels["after"]}
	if err := bf.Finalize(u, keys, targets, nil); err != nil {
		t.Fatal(err)
	}
	res, err := isa.Execute(u, nil, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 20, 30, 40, 50, 60}
	if len(res.Output) != len(want) {
		t.Fatalf("output %v, want %v (flags or registers clobbered)", res.Output, want)
	}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Fatalf("output %v, want %v", res.Output, want)
		}
	}
}
