package wm

import (
	"fmt"
	"runtime"
	"testing"

	"pathmark/internal/feistel"
	"pathmark/internal/vm"
	"pathmark/internal/workloads"
)

// BenchmarkScanStage isolates the scan stage of the recognition pipeline
// (window iteration + filter stack + decrypt + framing + inverse
// enumeration) from tracing and voting: the trace is decoded once, then
// scanBits runs per iteration at several worker counts.
// windows/s is the throughput the EXPERIMENTS.md speedup table records.
func BenchmarkScanStage(b *testing.B) {
	key, err := NewKey(nil, feistel.KeyFromUint64(21, 34), 128)
	if err != nil {
		b.Fatal(err)
	}
	prog := workloads.JessLike(workloads.JessLikeOptions{Seed: 8, Methods: 60, BlockSize: 150})
	w := RandomWatermark(128, 23)
	marked, _, err := Embed(prog, w, key, EmbedOptions{Pieces: 128, Seed: 11, Policy: GenLoopOnly})
	if err != nil {
		b.Fatal(err)
	}
	tr, _, err := vm.Collect(marked, key.Input, 1)
	if err != nil {
		b.Fatal(err)
	}
	bits := tr.DecodeBits()
	serial, _, err := scanBits(bits, key, RecognizeOpts{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range scanBenchWorkers() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc, _, err := scanBits(bits, key, RecognizeOpts{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if acc.windows != serial.windows || acc.valid != serial.valid {
					b.Fatalf("worker count changed scan result: %d/%d vs %d/%d",
						acc.windows, acc.valid, serial.windows, serial.valid)
				}
			}
			b.ReportMetric(float64(serial.windows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mwindows/s")
		})
	}
}

// gradeLeg is one suspect of the served-grade benchmarks.
type gradeLeg struct {
	name string
	prog *vm.Program
}

// gradePairLegs builds the two suspects of a served grade under one
// 128-bit key: a marked CaffeineMark-like copy in 64 pieces (long trace
// over small, hot code) and a marked 60×150 Jess-like copy (short trace
// over large code).
func gradePairLegs(tb testing.TB) (*Key, []gradeLeg) {
	tb.Helper()
	key, err := NewKey(nil, feistel.KeyFromUint64(0x5eed, 0xfeed), 128)
	if err != nil {
		tb.Fatal(err)
	}
	mark := func(host *vm.Program, pieces int) *vm.Program {
		marked, _, err := Embed(host, RandomWatermark(128, 7), key, EmbedOptions{Seed: 1, Pieces: pieces})
		if err != nil {
			tb.Fatal(err)
		}
		return marked
	}
	return key, []gradeLeg{
		{"MarkedCaffeineMark", mark(workloads.CaffeineMark(), 64)},
		{"MarkedJessLike60x150", mark(workloads.JessLike(workloads.JessLikeOptions{Seed: 1, Methods: 60, BlockSize: 150}), 0)},
	}
}

// gradeOnce is one served or journaled grade of a one-key job: one
// TraceBits of the suspect on the key's input, then RecognizeBits, as
// jobs.Job.Run grades a trace unit of one cell.
func gradeOnce(p *vm.Program, key *Key) (*Recognition, error) {
	bits, err := TraceBits(p, key.Input, CorpusOpts{})
	if err != nil {
		return nil, err
	}
	return RecognizeBits(bits, key, RecognizeOpts{Workers: 1})
}

// BenchmarkGradePair times the unit of a served or journaled grade, so
// every op traces, scans, votes and merges.
func BenchmarkGradePair(b *testing.B) {
	key, legs := gradePairLegs(b)
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec, err := gradeOnce(leg.prog, key)
				if err != nil {
					b.Fatal(err)
				}
				if rec.Watermark == nil {
					b.Fatal("no watermark recovered")
				}
			}
		})
	}
}

// TestGradePairAllocs bounds the allocations of one grade, so that a
// per-window table cannot come back into the served path unnoticed. A
// grade measured 1,439 (CaffeineMark-like) and 1,453 (Jess-like)
// allocations when the bound was set; the bound leaves ~25 % headroom.
// The per-cipher decrypt memo this path once scanned through cost
// ~1,300 more per grade (2,861 and 2,748).
func TestGradePairAllocs(t *testing.T) {
	const maxAllocs = 1800
	key, legs := gradePairLegs(t)
	for _, leg := range legs {
		a := testing.AllocsPerRun(5, func() {
			if _, err := gradeOnce(leg.prog, key); err != nil {
				t.Fatal(err)
			}
		})
		if a > maxAllocs {
			t.Errorf("%s: %.0f allocations per grade, want at most %d", leg.name, a, maxAllocs)
		}
	}
}

func scanBenchWorkers() []int {
	ws := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		ws = append(ws, n)
	}
	return ws
}
