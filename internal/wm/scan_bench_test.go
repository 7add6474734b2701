package wm

import (
	"fmt"
	"runtime"
	"testing"

	"pathmark/internal/cache"
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

// BenchmarkScanCache measures the decrypt cache's effect on the scan
// stage: off (every window decrypted), cold (fresh cache per scan — the
// single-suspect case), and warm (cache reused across scans — the corpus
// case, where repeats are answered from the table). EXPERIMENTS.md's
// fleet amortization table quotes the off-vs-warm ratio.
func BenchmarkScanCache(b *testing.B) {
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
	run := func(b *testing.B, c *cache.Cache64) {
		b.Helper()
		b.ReportAllocs()
		var windows int
		for i := 0; i < b.N; i++ {
			acc, _, err := scanBits(bits, key, RecognizeOpts{Workers: 1, DecryptCache: c})
			if err != nil {
				b.Fatal(err)
			}
			windows = acc.windows
		}
		b.ReportMetric(float64(windows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mwindows/s")
	}
	b.Run("cache=off", func(b *testing.B) { run(b, nil) })
	b.Run("cache=cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := cache.NewCache64(0)
			if _, _, err := scanBits(bits, key, RecognizeOpts{Workers: 1, DecryptCache: c}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache=warm", func(b *testing.B) {
		c := cache.NewCache64(0)
		if _, _, err := scanBits(bits, key, RecognizeOpts{Workers: 1, DecryptCache: c}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, c)
	})
}

func scanBenchWorkers() []int {
	ws := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		ws = append(ws, n)
	}
	return ws
}
