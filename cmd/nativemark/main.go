// Command nativemark demonstrates branch-function watermarking on the
// native substrate (the paper's IA-32 side, §4) using the built-in
// SPEC-like kernels.
//
// Usage:
//
//	nativemark kernels                         # list the built-in kernels
//	nativemark demo   -kernel bzip2 -w 0xBEEF -wbits 32 [-seed S] [-tamper]
//	nativemark attack -kernel bzip2 -name bypass|nops|invert|reroute|double
//
// demo embeds a watermark, prints the binary layout and the mark (begin,
// end, bits), extracts it back with both tracers, and reports costs.
// attack watermarks the kernel, applies one §5.2.2 attack, and reports
// whether the program breaks and whether extraction still succeeds.
//
// Every subcommand accepts the shared observability flags -stats,
// -stats-json FILE, -stats-deterministic, -cpuprofile and -memprofile
// (see cmd/pathmark for their meaning); the embed pipeline's
// nativewm.profile/sites/assemble/finalize spans land in the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"pathmark/internal/isa"
	"pathmark/internal/nativeattacks"
	"pathmark/internal/nativewm"
	"pathmark/internal/obs"
	"pathmark/internal/wm"
	"pathmark/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "kernels":
		for _, k := range workloads.NativeKernels() {
			fmt.Printf("%-8s train=%v ref=%v text=%d instrs\n",
				k.Name, k.TrainInput, k.RefInput, len(k.Unit.Instrs))
		}
	case "demo":
		cmdDemo(os.Args[2:])
	case "attack":
		cmdAttack(os.Args[2:])
	case "extract":
		cmdExtract(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: nativemark {kernels|demo|attack|extract} [flags]")
	os.Exit(2)
}

// obsFlush, when set, flushes profiles and metric sinks; fatal runs it so
// a failed run still leaves its CPU profile and partial metrics behind.
var obsFlush func()

func fatal(err error) {
	if obsFlush != nil {
		obsFlush()
	}
	fmt.Fprintln(os.Stderr, "nativemark:", err)
	os.Exit(1)
}

// beginObs starts profiling per the registered CLI flags and returns the
// metrics registry (nil unless -stats/-stats-json was given).
func beginObs(cli *obs.CLI) *obs.Registry {
	reg, err := cli.Begin()
	if err != nil {
		fatal(err)
	}
	obsFlush = func() { cli.Finish() }
	return reg
}

func finishObs(cli *obs.CLI) {
	if err := cli.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "nativemark: stats:", err)
	}
}

func findKernel(name string, pad int) workloads.NativeKernel {
	for _, k := range workloads.PaddedNativeKernels(pad) {
		if k.Name == name {
			return k
		}
	}
	fatal(fmt.Errorf("unknown kernel %q (see `nativemark kernels`)", name))
	panic("unreachable")
}

func cmdDemo(args []string) {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	kernel := fs.String("kernel", "bzip2", "built-in kernel name")
	wStr := fs.String("w", "0xC0FFEE", "watermark value")
	wbits := fs.Int("wbits", 32, "watermark bits")
	seed := fs.Int64("seed", 1, "embedding seed")
	tamper := fs.Bool("tamper", true, "enable §4.3 tamper-proofing")
	helpers := fs.Int("helpers", 1, "branch-function helper chain depth")
	pad := fs.Int("pad", 4000, "cold-code padding instructions")
	out := fs.String("out", "", "write the watermarked binary (.pmrk image) here")
	markOut := fs.String("markout", "", "write the extraction mark (begin/end/bits JSON) here")
	var cli obs.CLI
	cli.Register(fs)
	fs.Parse(args)
	reg := beginObs(&cli)

	k := findKernel(*kernel, *pad)
	w := new(big.Int)
	if _, ok := w.SetString(*wStr, 0); !ok {
		fatal(fmt.Errorf("bad -w"))
	}
	marked, report, err := nativewm.Embed(k.Unit, w, *wbits, nativewm.EmbedOptions{
		Seed: *seed, TamperProof: *tamper, TrainInput: k.TrainInput,
		LabelPrefix: "w1_", HelperDepth: *helpers, Obs: reg,
	})
	if err != nil {
		fatal(err)
	}
	img, err := isa.Assemble(marked)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("kernel %s: %d -> %d bytes (+%.1f%%), %d call sites, %d tamper slots\n",
		k.Name, report.OriginalBytes, report.EmbeddedBytes, report.SizeIncrease()*100,
		len(report.Sites), report.TamperCount)
	fmt.Printf("mark: begin=%#x end=%#x bits=%d\n",
		report.Mark.Begin, report.Mark.End, report.Mark.Bits)

	base, err := isa.Execute(k.Unit, k.RefInput, 0)
	if err != nil {
		fatal(err)
	}
	res, err := isa.Execute(marked, k.RefInput, 0)
	if err != nil {
		fatal(err)
	}
	if !isa.SameOutput(base, res) {
		fatal(fmt.Errorf("watermarking changed behavior"))
	}
	fmt.Printf("time: %d -> %d steps (%+.2f%%), output unchanged\n",
		base.Steps, res.Steps, 100*float64(res.Steps-base.Steps)/float64(base.Steps))

	for _, kind := range []nativewm.TracerKind{nativewm.SimpleTracer, nativewm.SmartTracer} {
		span := reg.Start(fmt.Sprintf("nativewm.extract.%s", kind))
		ext, err := nativewm.Extract(img, k.TrainInput, report.Mark, kind, 0)
		span.Finish()
		if err != nil {
			fatal(err)
		}
		ok := "MISMATCH"
		if ext.Watermark.Cmp(w) == 0 {
			ok = "ok"
		}
		fmt.Printf("extract (%s tracer): 0x%x  [%s]\n", kind, ext.Watermark, ok)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := isa.WriteImage(f, img); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("binary written to %s\n", *out)
	}
	if *markOut != "" {
		data, err := json.MarshalIndent(report.Mark, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*markOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("mark written to %s (keep it secret)\n", *markOut)
	}
	finishObs(&cli)
}

func cmdExtract(args []string) {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	in := fs.String("in", "", "watermarked binary (.pmrk image)")
	markFile := fs.String("mark", "", "extraction mark JSON (from demo -markout)")
	tracer := fs.String("tracer", "smart", "tracer kind: simple|smart")
	input := fs.String("input", "", "comma-separated run input (must drive execution through begin)")
	var cli obs.CLI
	cli.Register(fs)
	fs.Parse(args)
	if *in == "" || *markFile == "" {
		fatal(fmt.Errorf("extract needs -in and -mark"))
	}
	reg := beginObs(&cli)
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	img, err := isa.ReadImage(f)
	if err != nil {
		fatal(err)
	}
	markData, err := os.ReadFile(*markFile)
	if err != nil {
		fatal(err)
	}
	var mark nativewm.Mark
	if err := json.Unmarshal(markData, &mark); err != nil {
		fatal(err)
	}
	kind := nativewm.SmartTracer
	if *tracer == "simple" {
		kind = nativewm.SimpleTracer
	}
	var runInput []int64
	for _, field := range strings.Split(*input, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		v, err := strconv.ParseInt(field, 0, 64)
		if err != nil {
			fatal(err)
		}
		runInput = append(runInput, v)
	}
	span := reg.Start(fmt.Sprintf("nativewm.extract.%s", kind))
	ext, err := nativewm.Extract(img, runInput, mark, kind, 0)
	span.Set("bits", int64(mark.Bits)).Finish()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("watermark: 0x%x (%d bits, %s tracer)\n", ext.Watermark, mark.Bits, kind)
	finishObs(&cli)
}

func cmdAttack(args []string) {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	kernel := fs.String("kernel", "bzip2", "built-in kernel name")
	name := fs.String("name", "bypass", "attack: nops|invert|double|bypass|reroute")
	seed := fs.Int64("seed", 1, "seed")
	pad := fs.Int("pad", 4000, "cold-code padding instructions")
	var cli obs.CLI
	cli.Register(fs)
	fs.Parse(args)
	reg := beginObs(&cli)

	k := findKernel(*kernel, *pad)
	w := wm.RandomWatermark(32, uint64(*seed))
	marked, report, err := nativewm.Embed(k.Unit, w, 32, nativewm.EmbedOptions{
		Seed: *seed, TamperProof: true, TrainInput: k.TrainInput, LabelPrefix: "w1_", Obs: reg,
	})
	if err != nil {
		fatal(err)
	}
	img, err := isa.Assemble(marked)
	if err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed))

	var attacked *isa.Image
	switch *name {
	case "nops":
		attacked = mustImg(nativeattacks.InsertNopAt(marked, 0))
	case "invert":
		attacked = mustImg(nativeattacks.InvertBranchSenses(marked, rng, 1.0))
	case "double":
		second, _, err := nativewm.Embed(marked, wm.RandomWatermark(32, 99), 32,
			nativewm.EmbedOptions{Seed: *seed + 1, TamperProof: true,
				TrainInput: k.TrainInput, LabelPrefix: "w2_", Obs: reg})
		if err != nil {
			fatal(err)
		}
		attacked = mustImg(second)
	case "bypass", "reroute":
		events, err := nativewm.TraceMisReturns(img, k.TrainInput, 0)
		if err != nil {
			fatal(err)
		}
		if *name == "bypass" {
			attacked, err = nativeattacks.Bypass(img, events)
		} else {
			attacked, err = nativeattacks.Reroute(img, events)
		}
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown attack %q", *name))
	}

	verdict := nativeattacks.Judge(img, attacked, k.RefInput, 0)
	fmt.Printf("attack %s on %s: program %s\n", *name, k.Name, verdict)
	if verdict == nativeattacks.Working {
		for _, kind := range []nativewm.TracerKind{nativewm.SimpleTracer, nativewm.SmartTracer} {
			ext, err := nativewm.Extract(attacked, k.TrainInput, report.Mark, kind, 0)
			switch {
			case err != nil:
				fmt.Printf("extract (%s tracer): failed (%v)\n", kind, err)
			case ext.Watermark.Cmp(w) == 0:
				fmt.Printf("extract (%s tracer): watermark recovered\n", kind)
			default:
				fmt.Printf("extract (%s tracer): wrong watermark 0x%x\n", kind, ext.Watermark)
			}
		}
	}
	finishObs(&cli)
}

func mustImg(u *isa.Unit) *isa.Image {
	img, err := isa.Assemble(u)
	if err != nil {
		fatal(err)
	}
	return img
}
