// Command pathmark embeds, recognizes, and attacks path-based watermarks
// in VM programs (the paper's Java-bytecode side, §3).
//
// Usage:
//
//	pathmark embed   -in prog.pasm -out marked.pasm -w 123456789 -wbits 128 [-pieces N] [-seed S] [-input 1,2,3]
//	pathmark recognize -in marked.pasm -wbits 128 [-input 1,2,3] [-workers N]
//	pathmark fleet embed    -in prog.pasm -outdir DIR -n N [-savekey DIR/fleet.key]
//	pathmark fleet identify -in suspect.pasm -manifest DIR/fleet.json -keyfile DIR/fleet.key
//	pathmark fleet grade    -manifest DIR/fleet.json -keyfile DIR/fleet.key -job JOBDIR [-suspects a.pasm,b.pasm]
//	pathmark fleet demo     [-n N] [-leak I]  # in-memory end-to-end fingerprinting demo
//	pathmark serve   -dir JOBROOT [-addr HOST:PORT]   # crash-safe recognition daemon (HTTP)
//	pathmark top     {-job JOBDIR | -url URL} [-interval 1s]  # live view of a job's trace stream
//	pathmark watch   [-in STREAM] [-format bits|events] [-follow]  # streaming recognition over a live trace
//	pathmark trace   -in prog.pasm [-input 1,2,3] [-level N] [-events]  # dump the decoded bit-string or raw events
//	pathmark attack  -in marked.pasm -out attacked.pasm -name branch-insertion [-seed S]
//	pathmark attacks                                    # list the attack catalog
//	pathmark run     -in prog.pasm [-input 1,2,3] [-vmprofile N]
//	pathmark inject  {-fault NAME | -all | -list} [-class recognition|storage] [-in prog.pasm] [-seed S]
//
// Programs are read and written in the textual assembly format of
// internal/vm (see examples/). The cipher key is derived from -key (two
// 64-bit halves, "hi:lo" hex); the prime basis from -wbits. Keep all of
// -key, -input and -wbits secret and stable between embed and recognize.
//
// Robustness: every subcommand accepts -timeout D (overall pipeline
// deadline; the run degrades or fails with a typed error instead of
// hanging) and -max-steps N (interpreter fuel for tracing runs). The
// inject subcommand drives the internal/faults catalog against a marked
// host and reports survive/degrade/fail per fault. `fleet grade` and
// `serve` run corpus recognition through the journaled jobs engine
// (internal/jobs): finished grades are fsynced to a write-ahead journal,
// so a killed run resumes where it stopped and produces a result
// manifest byte-identical to an uninterrupted one.
//
// Exit codes: 0 success (a watermark was found, where applicable), 1 hard
// error, 2 usage, 3 no-match — `recognize` and `fleet identify` ran fine
// but recovered no watermark. Shell pipelines can therefore distinguish a
// clean suspect (3) from a broken invocation (1).
//
// Observability: every subcommand accepts
//
//	-stats               per-stage timing/counter summary on stderr
//	-stats-json FILE     the same metrics as a JSONL event stream
//	-stats-deterministic omit wall times/timing histograms from the JSONL
//	                     (byte-stable across runs, workers, and machines)
//	-cpuprofile FILE     runtime/pprof CPU profile
//	-memprofile FILE     runtime/pprof heap profile
//
// With -stats, `run` additionally enables the VM profiler and reports the
// dynamic opcode mix and hottest basic blocks; -vmprofile N bounds the
// hot-block listing.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"pathmark/internal/attacks"
	"pathmark/internal/faults"
	"pathmark/internal/feistel"
	"pathmark/internal/obs"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
)

// Exit codes. No-match gets its own code so shell pipelines can tell "the
// suspect is clean" (3) from "the tool failed" (1) — grading a fleet of
// suspects with `pathmark recognize` in a loop needs the distinction.
const (
	exitOK      = 0
	exitError   = 1 // hard error (fatal)
	exitUsage   = 2
	exitNoMatch = 3 // pipeline ran fine but recovered no watermark
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "embed":
		cmdEmbed(args)
	case "recognize":
		os.Exit(cmdRecognize(args))
	case "fleet":
		os.Exit(cmdFleet(args))
	case "serve":
		os.Exit(cmdServe(args))
	case "top":
		os.Exit(cmdTop(args))
	case "watch":
		os.Exit(cmdWatch(args))
	case "trace":
		cmdTrace(args)
	case "attack":
		cmdAttack(args)
	case "attacks":
		os.Exit(cmdAttacks(args))
	case "tournament":
		os.Exit(cmdTournament(args))
	case "run":
		cmdRun(args)
	case "inject":
		cmdInject(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pathmark {embed|recognize|fleet|serve|top|watch|trace|attack|attacks|tournament|run|inject} [flags]")
	os.Exit(exitUsage)
}

// obsFlush, when set, flushes profiles and metric sinks; fatal runs it so
// a failed run still leaves its CPU profile and partial metrics behind.
var obsFlush func()

func fatal(err error) {
	if obsFlush != nil {
		obsFlush()
	}
	fmt.Fprintln(os.Stderr, "pathmark:", err)
	os.Exit(exitError)
}

type common struct {
	in       string
	input    string
	key      string
	keyfile  string
	wbits    int
	timeout  time.Duration
	maxSteps int64
	obs      obs.CLI
}

func (c *common) register(fs *flag.FlagSet) {
	fs.StringVar(&c.in, "in", "", "input program (.pasm)")
	fs.StringVar(&c.input, "input", "", "secret input sequence, comma-separated integers")
	fs.StringVar(&c.key, "key", "6b72616d68746170:504c444932303034", "cipher key as hi:lo hex halves")
	fs.StringVar(&c.keyfile, "keyfile", "", "load the watermark key from this file (overrides -key/-input/-wbits)")
	fs.IntVar(&c.wbits, "wbits", 128, "watermark size in bits (fixes the prime basis)")
	fs.DurationVar(&c.timeout, "timeout", 0, "overall deadline for the command's pipeline (0 = none)")
	fs.Int64Var(&c.maxSteps, "max-steps", 0, "interpreter step budget for tracing runs (0 = default)")
	c.obs.Register(fs)
}

// ctx returns the command's context: background, or deadline-bounded when
// -timeout was given. The cancel func is always non-nil.
func (c *common) ctx() (context.Context, context.CancelFunc) {
	if c.timeout > 0 {
		return context.WithTimeout(context.Background(), c.timeout)
	}
	return context.Background(), func() {}
}

// beginObs starts profiling and returns the metrics registry (nil unless
// -stats/-stats-json was given). Call finishObs before exiting; fatal
// also flushes via obsFlush.
func (c *common) beginObs() *obs.Registry {
	reg, err := c.obs.Begin()
	if err != nil {
		fatal(err)
	}
	obsFlush = func() { c.obs.Finish() }
	return reg
}

func (c *common) finishObs() {
	if err := c.obs.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "pathmark: stats:", err)
	}
}

func (c *common) loadProgram() *vm.Program {
	if c.in == "" {
		fatal(fmt.Errorf("missing -in"))
	}
	src, err := os.ReadFile(c.in)
	if err != nil {
		fatal(err)
	}
	p, err := vm.Assemble(string(src))
	if err != nil {
		fatal(err)
	}
	return p
}

func (c *common) secretInput() []int64 {
	if c.input == "" {
		return nil
	}
	var out []int64
	for _, f := range strings.Split(c.input, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 0, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -input element %q: %w", f, err))
		}
		out = append(out, v)
	}
	return out
}

func (c *common) wmKey() *wm.Key {
	if c.keyfile != "" {
		key, err := wm.LoadKeyFile(c.keyfile)
		if err != nil {
			fatal(err)
		}
		return key
	}
	halves := strings.SplitN(c.key, ":", 2)
	if len(halves) != 2 {
		fatal(fmt.Errorf("bad -key, want hi:lo hex"))
	}
	hi, err := strconv.ParseUint(halves[0], 16, 64)
	if err != nil {
		fatal(err)
	}
	lo, err := strconv.ParseUint(halves[1], 16, 64)
	if err != nil {
		fatal(err)
	}
	key, err := wm.NewKey(c.secretInput(), feistel.KeyFromUint64(hi, lo), c.wbits)
	if err != nil {
		fatal(err)
	}
	return key
}

func cmdEmbed(args []string) {
	fs := flag.NewFlagSet("embed", flag.ExitOnError)
	var c common
	c.register(fs)
	out := fs.String("out", "", "output file for the watermarked program")
	wStr := fs.String("w", "", "watermark value (decimal or 0x hex)")
	pieces := fs.Int("pieces", 0, "pieces to insert (0 = one per prime pair)")
	seed := fs.Int64("seed", 1, "embedding randomness seed")
	saveKey := fs.String("savekey", "", "write the watermark key to this file for later recognition")
	policy := fs.String("generator", "auto", "code generator: auto|loop|loop-unrolled|condition")
	fs.Parse(args)
	if *out == "" {
		fatal(fmt.Errorf("missing -out"))
	}
	reg := c.beginObs()
	p := c.loadProgram()
	key := c.wmKey()
	w := new(big.Int)
	if _, ok := w.SetString(*wStr, 0); !ok || *wStr == "" {
		fatal(fmt.Errorf("bad or missing -w"))
	}
	var pol wm.GeneratorPolicy
	switch *policy {
	case "auto":
		pol = wm.GenAuto
	case "loop":
		pol = wm.GenLoopOnly
	case "loop-unrolled":
		pol = wm.GenLoopUnrolledOnly
	case "condition":
		pol = wm.GenConditionOnly
	default:
		fatal(fmt.Errorf("unknown -generator %q", *policy))
	}
	ctx, cancel := c.ctx()
	defer cancel()
	marked, report, err := wm.Embed(p, w, key, wm.EmbedOptions{
		Pieces: *pieces, Seed: *seed, Policy: pol,
		Ctx: ctx, StepLimit: c.maxSteps, Obs: reg,
	})
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, []byte(vm.Dump(marked)), 0o644); err != nil {
		fatal(err)
	}
	if *saveKey != "" {
		// Atomic temp-then-rename: a crash mid-save must never tear an
		// existing keyfile, which would orphan every copy embedded under it.
		if err := wm.SaveKeyFile(*saveKey, key); err != nil {
			fatal(err)
		}
		fmt.Printf("key written to %s (keep it secret)\n", *saveKey)
	}
	fmt.Printf("embedded %d pieces (%d candidate sites, %d trace events)\n",
		len(report.Pieces), report.CandidateSite, report.TraceEvents)
	fmt.Printf("size: %d -> %d instructions (+%.1f%%)\n",
		report.OriginalSize, report.EmbeddedSize, report.SizeIncrease()*100)
	c.finishObs()
}

// cmdRecognize returns the process exit code: exitOK when a watermark was
// recovered, exitNoMatch when the pipeline ran but found nothing, and
// never returns on hard errors (fatal exits with exitError).
func cmdRecognize(args []string) int {
	fs := flag.NewFlagSet("recognize", flag.ExitOnError)
	var c common
	c.register(fs)
	workers := fs.Int("workers", 0, "scan goroutines (0 = one per CPU, 1 = serial)")
	fs.Parse(args)
	reg := c.beginObs()
	p := c.loadProgram()
	ctx, cancel := c.ctx()
	defer cancel()
	rec, err := wm.RecognizeWithOpts(p, c.wmKey(), wm.RecognizeOpts{
		Workers: *workers, Ctx: ctx, StepLimit: c.maxSteps, Obs: reg,
	})
	if rec == nil && err != nil {
		fatal(err)
	}
	// A non-nil Recognition alongside an error is a degraded run (e.g. a
	// recovered scan-worker crash): report the partial evidence instead of
	// discarding it.
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathmark: degraded:", err)
	}
	fmt.Printf("trace bits: %d, windows: %d, valid statements: %d (unique %d)\n",
		rec.TraceBits, rec.Windows, rec.ValidStatements, rec.UniqueStatements)
	fmt.Printf("voted out: %d, survivors: %d\n", rec.VotedOut, rec.Survivors)
	if rec.Degraded {
		fmt.Printf("degraded: true, confidence: %.4f (%d surviving statements)\n",
			rec.Confidence, len(rec.Surviving))
		for _, se := range rec.StageErrors {
			fmt.Fprintln(os.Stderr, "pathmark: stage error:", se)
		}
	}
	if rec.Watermark == nil {
		fmt.Println("no watermark recovered")
		c.finishObs()
		return exitNoMatch
	}
	fmt.Printf("full coverage: %v\n", rec.FullCoverage)
	fmt.Printf("watermark: %d (0x%x)\n", rec.Watermark, rec.Watermark)
	c.finishObs()
	return exitOK
}

func cmdTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	var c common
	c.register(fs)
	// The default matches the embedder's tracing phase, which keeps two
	// state snapshots per block (priming + payload) for codegen. Recognize
	// only decodes the bit-string and keeps one, so `-level 1` reproduces
	// its view; the decoded bits are identical either way — the level only
	// changes how much per-block state the trace retains.
	level := fs.Int("level", 2, "snapshots kept per block: 2 = embed's view, 1 = recognize's view")
	events := fs.Bool("events", false, "dump the raw event stream (the `pathmark watch -format events` input) instead of the bit-string")
	fs.Parse(args)
	p := c.loadProgram()
	tr, res, err := vm.Collect(p, c.secretInput(), *level)
	if err != nil {
		fatal(err)
	}
	if *events {
		// One event per line on stdout, nothing else: the dump pipes
		// straight into `pathmark watch -format events`.
		out := bufio.NewWriter(os.Stdout)
		writeTraceEvents(out, tr.Events)
		out.Flush()
		fmt.Fprintf(os.Stderr, "trace events: %d, branch executions: %d\n", len(tr.Events), tr.NumBranchExecs())
		return
	}
	bits := tr.DecodeBits()
	fmt.Printf("return: %d, output: %v, steps: %d\n", res.Return, res.Output, res.Steps)
	fmt.Printf("trace events: %d, branch executions: %d\n", len(tr.Events), tr.NumBranchExecs())
	fmt.Printf("bit-string (%d bits):\n%s\n", bits.Len(), bits)
}

// writeTraceEvents writes one "branch METHOD PC" or "block METHOD BLOCK"
// line per event: the `pathmark trace -events` dump, which is the
// `pathmark watch -format events` input.
func writeTraceEvents(w io.Writer, events []vm.Event) {
	for _, e := range events {
		kind := "block"
		if e.Kind == vm.EvBranchExec {
			kind = "branch"
		}
		fmt.Fprintf(w, "%s %d %d\n", kind, e.Method, e.Loc)
	}
}

func cmdAttack(args []string) {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	var c common
	c.register(fs)
	out := fs.String("out", "", "output file for the attacked program")
	name := fs.String("name", "", "attack name (see `pathmark attacks`)")
	seed := fs.Int64("seed", 1, "attack randomness seed")
	fs.Parse(args)
	// Validate everything before the (possibly slow) attack runs: the
	// output path must be given, and the name must be in the catalog.
	if *out == "" {
		fatal(fmt.Errorf("missing -out"))
	}
	atk, err := findAttack(*name)
	if err != nil {
		fatal(err)
	}
	p := c.loadProgram()
	attacked := atk.Apply(p, rand.New(rand.NewSource(*seed)))
	if err := os.WriteFile(*out, []byte(vm.Dump(attacked)), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("applied %s: %d -> %d instructions\n", atk.Name, p.CodeSize(), attacked.CodeSize())
}

// findAttack resolves an attack by name; an unknown name's error lists
// every catalog entry so the user need not run `pathmark attacks` first.
func findAttack(name string) (attacks.Attack, error) {
	catalog := attacks.Catalog()
	for _, a := range catalog {
		if a.Name == name {
			return a, nil
		}
	}
	names := make([]string, len(catalog))
	for i, a := range catalog {
		names[i] = a.Name
	}
	return attacks.Attack{}, fmt.Errorf("unknown attack %q (available: %s)", name, strings.Join(names, ", "))
}

// cmdInject runs the fault-injection harness: it embeds a fresh watermark
// into the host program (MiniCalc by default), then injects catalog
// faults and reports survive/degrade/fail per fault. Exit status is 0
// when every injection honored the graceful-degradation contract, 1 if
// any panic escaped the pipeline.
func cmdInject(args []string) {
	fs := flag.NewFlagSet("inject", flag.ExitOnError)
	var c common
	c.register(fs)
	name := fs.String("fault", "", "inject a single catalog fault by name")
	all := fs.Bool("all", false, "inject every catalog fault")
	list := fs.Bool("list", false, "list the fault catalog and exit")
	seed := fs.Int64("seed", 1, "injection randomness seed")
	workers := fs.Int("workers", 0, "scan goroutines for the recognition runs")
	class := fs.String("class", "recognition", "fault class: recognition (corrupt pipeline inputs) | storage (corrupt the disk under the job engine)")
	random := fs.Int("random", 2, "with -class storage: randomized schedules to run beyond the named catalog")
	fs.Parse(args)

	if *class == "storage" {
		cmdInjectStorage(&c, *list, *seed, *random)
		return
	}
	if *class != "recognition" {
		fatal(fmt.Errorf("unknown -class %q, want recognition or storage", *class))
	}

	if *list {
		for _, f := range faults.Catalog() {
			fmt.Printf("%-22s %-8s worst=%-8s %s\n", f.Name, f.Kind, f.Expect, f.Description)
		}
		return
	}
	var selected []faults.Fault
	switch {
	case *all:
		selected = faults.Catalog()
	case *name != "":
		f, ok := faults.Find(*name)
		if !ok {
			catalog := faults.Catalog()
			names := make([]string, len(catalog))
			for i, cf := range catalog {
				names[i] = cf.Name
			}
			fatal(fmt.Errorf("unknown fault %q (available: %s)", *name, strings.Join(names, ", ")))
		}
		selected = []faults.Fault{f}
	default:
		fatal(fmt.Errorf("need -fault NAME, -all, or -list"))
	}

	reg := c.beginObs()
	var host *faults.Host
	var err error
	if c.in == "" {
		host, err = faults.DefaultHost(*seed)
	} else {
		host, err = faults.NewHost(c.loadProgram(), c.secretInput(), c.wbits, *seed)
	}
	if err != nil {
		fatal(err)
	}

	timeout := c.timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	violations := 0
	for _, f := range selected {
		rep := faults.Assess(host, f, faults.Options{
			Seed: *seed, Timeout: timeout, Workers: *workers, Obs: reg,
		})
		line := fmt.Sprintf("%-22s %-8s confidence=%.4f", rep.Fault, rep.Outcome, rep.Confidence)
		if rep.Err != nil {
			line += "  err=" + rep.Err.Error()
		}
		fmt.Println(line)
		if rep.Recovered {
			violations++
			fmt.Fprintf(os.Stderr, "pathmark: CONTRACT VIOLATION: %s let a panic escape the pipeline\n", rep.Fault)
		}
	}
	c.finishObs()
	if violations > 0 {
		os.Exit(1)
	}
}

// cmdInjectStorage is the storage fault class of `pathmark inject`: instead
// of corrupting pipeline inputs it corrupts the disk under the journaled job
// engine — ENOSPC, short writes, failed fsyncs, torn renames, read-side bit
// rot — across kill/restart campaigns. The durability contract admits two
// endings per campaign (byte-identical resume, or clean quarantine with
// evidence); anything else is a violation and exits 1.
func cmdInjectStorage(c *common, list bool, seed int64, random int) {
	if list {
		for _, sf := range faults.StorageCatalog() {
			fmt.Printf("%-22s %s\n", sf.Name, sf.Description)
		}
		return
	}
	reg := c.beginObs()
	var host *faults.Host
	var err error
	if c.in == "" {
		host, err = faults.DefaultHost(seed)
	} else {
		host, err = faults.NewHost(c.loadProgram(), c.secretInput(), c.wbits, seed)
	}
	if err != nil {
		fatal(err)
	}
	violations := 0
	for _, rep := range faults.AssessAllStorage(host, random, faults.Options{Seed: seed, Obs: reg}) {
		line := fmt.Sprintf("%-22s %-12s lifetimes=%d fired=%d", rep.Fault, rep.Outcome, rep.Lifetimes, len(rep.Fired))
		if rep.Quarantined != "" {
			line += "  quarantined"
		}
		if rep.Err != nil {
			line += "  err=" + rep.Err.Error()
		}
		fmt.Println(line)
		if rep.Outcome == faults.StorageViolated {
			violations++
			fmt.Fprintf(os.Stderr, "pathmark: DURABILITY VIOLATION: %s: %v\n", rep.Fault, rep.Err)
		}
	}
	c.finishObs()
	if violations > 0 {
		os.Exit(1)
	}
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var c common
	c.register(fs)
	hot := fs.Int("vmprofile", 10, "hot blocks to list when profiling (with -stats)")
	fs.Parse(args)
	reg := c.beginObs()
	p := c.loadProgram()
	var prof *vm.Profile
	if reg != nil {
		prof = vm.NewProfile()
	}
	ctx, cancel := c.ctx()
	defer cancel()
	span := reg.Start("run")
	res, err := vm.Run(p, vm.RunOptions{
		Input: c.secretInput(), Profile: prof,
		Ctx: ctx, StepLimit: c.maxSteps,
	})
	span.Finish()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("return: %d\n", res.Return)
	fmt.Printf("output: %v\n", res.Output)
	fmt.Printf("steps: %d\n", res.Steps)
	if prof != nil {
		span.Set("steps", prof.Steps).Set("calls", prof.Calls).
			Set("max_depth", int64(prof.MaxObservedDepth))
		for _, e := range prof.OpMix() {
			reg.Counter("vm.op." + e.Op.String()).Add(e.Count)
		}
		fmt.Fprintf(os.Stderr, "vm profile: %d steps, %d calls, max depth %d\n",
			prof.Steps, prof.Calls, prof.MaxObservedDepth)
		fmt.Fprintln(os.Stderr, "hottest blocks (method:block count):")
		for _, b := range prof.TopBlocks(*hot) {
			fmt.Fprintf(os.Stderr, "  %s:%d  %d\n", p.Methods[b.Key.Method].Name, b.Key.Block, b.Count)
		}
	}
	c.finishObs()
}
