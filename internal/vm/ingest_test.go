package vm_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"pathmark/internal/cache"
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
	return markedSource(tb, host, 0)
}

// caffeineCopySource is the source text of a marked CaffeineMark-like
// copy in 64 pieces, the other suspect of a served grade.
func caffeineCopySource(tb testing.TB) string {
	tb.Helper()
	return markedSource(tb, workloads.CaffeineMark(), 64)
}

// markedSource embeds a 128-bit watermark into host in the given number of
// pieces (0: one per prime pair) and renders the copy.
func markedSource(tb testing.TB, host *vm.Program, pieces int) string {
	tb.Helper()
	key, err := wm.NewKey(equivInput, feistel.KeyFromUint64(0x5eed, 0xfeed), 128)
	if err != nil {
		tb.Fatal(err)
	}
	marked, _, err := wm.Embed(host, wm.RandomWatermark(128, 7), key, wm.EmbedOptions{Seed: 1, Pieces: pieces})
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

// TestAssembleDoesNotPinSource checks that no method name of an assembled
// program points into the source text, so a program kept for a job's
// lifetime does not keep its whole source alive with it.
func TestAssembleDoesNotPinSource(t *testing.T) {
	src := caffeineCopySource(t)
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	for _, m := range vm.MustAssemble(src).Methods {
		if at := uintptr(unsafe.Pointer(unsafe.StringData(m.Name))); at >= lo && at < hi {
			t.Errorf("method %s: name points into the source text at offset %d", m.Name, at-lo)
		}
	}
}

// TestInstrLayout pins an instruction at 16 bytes: every program's code is
// an array of them, so a field added later would grow every program.
func TestInstrLayout(t *testing.T) {
	if n := unsafe.Sizeof(vm.Instr{}); n != 16 {
		t.Errorf("vm.Instr is %d bytes, want 16", n)
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
// grading it. AssembleDump/JessLike assembles a marked Jess-like copy's
// source and renders its canonical form; Assemble times the assembler
// alone on both suspects of a served grade; Digest times the program
// digest (render plus SHA-256) a job ID is made from.
func BenchmarkIngest(b *testing.B) {
	srcs := []struct {
		name string
		src  string
	}{
		{"JessLike", jessCopySource(b)},
		{"CaffeineMark", caffeineCopySource(b)},
	}
	jess := srcs[0].src
	b.Run("AssembleDump/JessLike", func(b *testing.B) {
		b.SetBytes(int64(len(jess)))
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			p, err := vm.Assemble(jess)
			if err != nil {
				b.Fatal(err)
			}
			buf = vm.AppendDump(buf[:0], p)
		}
		dumpSink = buf
	})
	for _, s := range srcs {
		b.Run("Assemble/"+s.name, func(b *testing.B) {
			b.SetBytes(int64(len(s.src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := vm.Assemble(s.src)
				if err != nil {
					b.Fatal(err)
				}
				progSink = p
			}
		})
	}
	b.Run("Digest/JessLike", func(b *testing.B) {
		p := vm.MustAssemble(jess)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			digestSink = wm.ProgramDigest(p)
		}
	})
}

// BenchmarkIngest's results, kept live.
var (
	dumpSink   []byte
	progSink   *vm.Program
	digestSink cache.Digest
)
