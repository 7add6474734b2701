// Package pathmark_bench holds the benchmark harness: one testing.B
// benchmark per table/figure of the paper's evaluation (plus core-path
// microbenchmarks). Each figure benchmark performs the experiment's unit
// of work per iteration and attaches the paper-facing quantity via
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the numbers
// EXPERIMENTS.md records. The full sweeps (all series, all x-positions)
// are produced by cmd/experiments.
package pathmark_bench

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"pathmark/internal/attacks"
	"pathmark/internal/experiments"
	"pathmark/internal/feistel"
	"pathmark/internal/isa"
	"pathmark/internal/nativewm"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
	"pathmark/internal/workloads"
)

var benchCipher = feistel.KeyFromUint64(1, 2)

func benchKey(b *testing.B, bits int) *wm.Key {
	b.Helper()
	key, err := wm.NewKey(nil, benchCipher, bits)
	if err != nil {
		b.Fatal(err)
	}
	return key
}

// BenchmarkFig5Recovery measures one Monte-Carlo recovery trial of
// Figure 5 (reconstructing a 768-bit watermark from a random subset of
// pieces) and reports the empirical recovery probability at half coverage.
func BenchmarkFig5Recovery(b *testing.B) {
	key := benchKey(b, 768)
	w := wm.RandomWatermark(768, 5)
	stmts, err := key.Params.Split(w)
	if err != nil {
		b.Fatal(err)
	}
	total := key.Params.NumPairs()
	intact := total / 2
	rng := rand.New(rand.NewSource(1))
	maxW := key.Params.MaxWatermark()
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := rng.Perm(total)[:intact]
		sub := stmts[:0:0]
		for _, j := range idx {
			sub = append(sub, stmts[j])
		}
		v, m, err := key.Params.Reconstruct(sub)
		if err == nil && m.Cmp(maxW) == 0 && v.Cmp(w) == 0 {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "recovery-prob@50%intact")
}

// BenchmarkFig8aSlowdown runs the 64-piece watermarked CaffeineMark per
// iteration and reports the §5.1.1 slowdown versus the clean suite.
func BenchmarkFig8aSlowdown(b *testing.B) {
	prog := workloads.CaffeineMark()
	key := benchKey(b, 128)
	w := wm.RandomWatermark(128, 7)
	marked, _, err := wm.Embed(prog, w, key, wm.EmbedOptions{Pieces: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	base, err := vm.Run(prog, vm.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := vm.Run(marked, vm.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
	}
	b.ReportMetric(float64(steps-base.Steps)/float64(base.Steps), "slowdown")
}

// BenchmarkFig8bSize embeds 128 pieces per iteration and reports the
// per-piece code growth (the paper's ~25 bytes per piece).
func BenchmarkFig8bSize(b *testing.B) {
	prog := workloads.JessLike(workloads.JessLikeOptions{Seed: 1, Methods: 60, BlockSize: 150})
	key := benchKey(b, 128)
	w := wm.RandomWatermark(128, 9)
	var perPiece float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, report, err := wm.Embed(prog, w, key, wm.EmbedOptions{Pieces: 128, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		perPiece = float64(report.EmbeddedSize-report.OriginalSize) / 128
	}
	b.ReportMetric(perPiece, "instrs/piece")
}

// BenchmarkFig8cResilience performs one attack-and-recognize round of
// Figure 8(c): +100% random branches against a 128-piece embedding,
// reporting the survival rate across iterations.
func BenchmarkFig8cResilience(b *testing.B) {
	prog := workloads.JessLike(workloads.JessLikeOptions{Seed: 2, Methods: 60, BlockSize: 150})
	key := benchKey(b, 128)
	w := wm.RandomWatermark(128, 11)
	marked, _, err := wm.Embed(prog, w, key, wm.EmbedOptions{Pieces: 128, Seed: 3, Policy: wm.GenLoopOnly})
	if err != nil {
		b.Fatal(err)
	}
	survived := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		attacked := attacks.InsertRandomBranches(marked, rng, 1.0)
		rec, err := wm.Recognize(attacked, key)
		if err != nil {
			b.Fatal(err)
		}
		if rec.Matches(w) {
			survived++
		}
	}
	b.ReportMetric(float64(survived)/float64(b.N), "survival@+100%branches")
}

// BenchmarkFig8dAttackCost runs a +200%-branch-attacked CaffeineMark per
// iteration and reports the attacker-paid slowdown.
func BenchmarkFig8dAttackCost(b *testing.B) {
	prog := workloads.CaffeineMark()
	base, err := vm.Run(prog, vm.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	attacked := attacks.InsertRandomBranches(prog, rand.New(rand.NewSource(1)), 2.0)
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := vm.Run(attacked, vm.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
	}
	b.ReportMetric(float64(steps-base.Steps)/float64(base.Steps), "attack-slowdown")
}

// BenchmarkFig9aNativeSize embeds a 128-bit mark into the padded bzip2
// kernel per iteration and reports the Figure 9(a) size increase.
func BenchmarkFig9aNativeSize(b *testing.B) {
	k := workloads.PaddedNativeKernels(20000)[0]
	w := big.NewInt(0xBEEF)
	var increase float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, report, err := nativewm.Embed(k.Unit, w, 128, nativewm.EmbedOptions{
			Seed: int64(i), TamperProof: true, TrainInput: k.TrainInput, LabelPrefix: "w1_",
		})
		if err != nil {
			b.Fatal(err)
		}
		increase = report.SizeIncrease()
	}
	b.ReportMetric(increase*100, "size-increase-%")
}

// BenchmarkFig9bNativeTime runs the watermarked bzip2 kernel on its ref
// input per iteration and reports the Figure 9(b) slowdown.
func BenchmarkFig9bNativeTime(b *testing.B) {
	k := workloads.PaddedNativeKernels(20000)[0]
	w := big.NewInt(0xBEEF)
	marked, _, err := nativewm.Embed(k.Unit, w, 128, nativewm.EmbedOptions{
		Seed: 1, TamperProof: true, TrainInput: k.TrainInput, LabelPrefix: "w1_",
	})
	if err != nil {
		b.Fatal(err)
	}
	base, err := isa.Execute(k.Unit, k.RefInput, 0)
	if err != nil {
		b.Fatal(err)
	}
	img, err := isa.Assemble(marked)
	if err != nil {
		b.Fatal(err)
	}
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := isa.NewCPU(img, k.RefInput).Run(0)
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
	}
	b.ReportMetric(100*float64(steps-base.Steps)/float64(base.Steps), "slowdown-%")
}

// BenchmarkJavaAttackSurvival runs one random distortive attack plus
// recognition per iteration (the §5.1.2 table's unit of work).
func BenchmarkJavaAttackSurvival(b *testing.B) {
	prog := workloads.CaffeineMark()
	key := benchKey(b, 128)
	w := wm.RandomWatermark(128, 13)
	marked, _, err := wm.Embed(prog, w, key, wm.EmbedOptions{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	catalog := attacks.Distortive()
	survived := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := catalog[i%len(catalog)]
		attacked := a.Apply(marked, rand.New(rand.NewSource(int64(i))))
		rec, err := wm.Recognize(attacked, key)
		if err != nil {
			b.Fatal(err)
		}
		if rec.Matches(w) {
			survived++
		}
	}
	b.ReportMetric(float64(survived)/float64(b.N), "survival-rate")
}

// BenchmarkNativeAttackBypass measures the §5.2.2 bypass attack round:
// trace, patch, judge.
func BenchmarkNativeAttackBypass(b *testing.B) {
	_, table := experiments.NativeAttacksTable(experiments.Config{Quick: true, Seed: 1})
	_ = table
	// The table run above validates behavior; the timed loop measures the
	// underlying trace+judge cycle on one kernel.
	k := workloads.PaddedNativeKernels(800)[0]
	w := big.NewInt(0x1234)
	marked, _, err := nativewm.Embed(k.Unit, w, 32, nativewm.EmbedOptions{
		Seed: 1, TamperProof: true, TrainInput: k.TrainInput, LabelPrefix: "w1_",
	})
	if err != nil {
		b.Fatal(err)
	}
	img, err := isa.Assemble(marked)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nativewm.TraceMisReturns(img, k.TrainInput, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- core-path microbenchmarks ---

func BenchmarkEmbed(b *testing.B) {
	prog := workloads.CaffeineMark()
	key := benchKey(b, 128)
	w := wm.RandomWatermark(128, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wm.Embed(prog, w, key, wm.EmbedOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecognize(b *testing.B) {
	prog := workloads.CaffeineMark()
	key := benchKey(b, 128)
	w := wm.RandomWatermark(128, 17)
	marked, _, err := wm.Embed(prog, w, key, wm.EmbedOptions{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := wm.Recognize(marked, key)
		if err != nil || !rec.Matches(w) {
			b.Fatal("recognition failed")
		}
	}
}

// BenchmarkRecognizeScan measures the full recognition pipeline (trace →
// scan → vote) serial vs. parallel on a large marked host, reporting
// windows per second of the whole pipeline (pipeline-Mwindows/s), not of
// the scan kernel alone. The scan stage fans out over workers; at
// workers=1 the pipeline takes the allocation-lean serial path, which must
// not regress against the pre-pipeline recognizer.
func BenchmarkRecognizeScan(b *testing.B) {
	prog := workloads.JessLike(workloads.JessLikeOptions{Seed: 4, Methods: 60, BlockSize: 150})
	key := benchKey(b, 128)
	w := wm.RandomWatermark(128, 19)
	marked, _, err := wm.Embed(prog, w, key, wm.EmbedOptions{Pieces: 128, Seed: 7, Policy: wm.GenLoopOnly})
	if err != nil {
		b.Fatal(err)
	}
	cpus := runtime.GOMAXPROCS(0)
	configs := []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=2", 2},
		{fmt.Sprintf("workers=auto-%dcpu", cpus), 0},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var windows int
			for i := 0; i < b.N; i++ {
				rec, err := wm.RecognizeWithOpts(marked, key, wm.RecognizeOpts{Workers: c.workers})
				if err != nil || !rec.Matches(w) {
					b.Fatal("recognition failed")
				}
				windows = rec.Windows
			}
			b.ReportMetric(float64(windows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "pipeline-Mwindows/s")
		})
	}
}

func BenchmarkVMInterpreter(b *testing.B) {
	prog := workloads.CaffeineMark()
	var steps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := vm.Run(prog, vm.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

func BenchmarkNativeCPU(b *testing.B) {
	k := workloads.NativeKernels()[0]
	img, err := isa.Assemble(k.Unit)
	if err != nil {
		b.Fatal(err)
	}
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := isa.NewCPU(img, k.RefInput).Run(0)
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

func BenchmarkTraceDecode(b *testing.B) {
	prog := workloads.CaffeineMark()
	tr, _, err := vm.Collect(prog, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bits := tr.DecodeBits()
		if bits.Len() == 0 {
			b.Fatal("empty")
		}
	}
}
