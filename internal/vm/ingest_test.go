package vm_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pathmark/internal/feistel"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
	"pathmark/internal/workloads"
)

// jessCopySource is the source text of a marked Jess-like copy, the
// suspect a served grade ingests most often.
func jessCopySource(tb testing.TB) string {
	tb.Helper()
	host := workloads.JessLike(workloads.JessLikeOptions{Seed: 1, Methods: 60, BlockSize: 150})
	key, err := wm.NewKey(equivInput, feistel.KeyFromUint64(0x5eed, 0xfeed), 128)
	if err != nil {
		tb.Fatal(err)
	}
	marked, _, err := wm.Embed(host, wm.RandomWatermark(128, 7), key, wm.EmbedOptions{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return vm.Dump(marked)
}

// TestIngestAllocs guards the ingest path's allocations: Assemble stays
// under one allocation per ten source lines and under 1.4 times the bytes
// of the code it returns (the verifier reuses one stack-height buffer
// across methods), and a program digest (render plus SHA-256) under nine
// allocations.
func TestIngestAllocs(t *testing.T) {
	src := jessCopySource(t)
	lines := strings.Count(src, "\n")
	p := vm.MustAssemble(src)
	if a := testing.AllocsPerRun(5, func() { vm.MustAssemble(src) }); a*10 >= float64(lines) {
		t.Errorf("Assemble of a %d-line copy: %.0f allocations, want under %d", lines, a, lines/10)
	}
	codeBytes := uint64(p.CodeSize()) * uint64(reflect.TypeOf(vm.Instr{}).Size())
	if b := bytesPerRun(5, func() { vm.MustAssemble(src) }); 5*b >= 7*codeBytes {
		t.Errorf("Assemble of a copy with %d bytes of code: %d bytes allocated, want under %d", codeBytes, b, 7*codeBytes/5)
	}
	if a := testing.AllocsPerRun(5, func() { wm.ProgramDigest(p) }); a > 8 {
		t.Errorf("ProgramDigest: %.0f allocations, want at most 8", a)
	}
}

// bytesPerRun is the mean number of bytes f allocates per call, over runs
// calls.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up, as testing.AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// BenchmarkIngest times what a served grade does to each suspect before
// grading it: assemble the copy's source and render its canonical form.
func BenchmarkIngest(b *testing.B) {
	src := jessCopySource(b)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	var buf []byte
	for i := 0; i < b.N; i++ {
		p, err := vm.Assemble(src)
		if err != nil {
			b.Fatal(err)
		}
		buf = vm.AppendDump(buf[:0], p)
	}
}
