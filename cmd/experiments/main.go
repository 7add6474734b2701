// Command experiments regenerates the paper's evaluation (§5): every
// figure and table, printed as text tables with the same rows/series the
// paper reports.
//
// Usage:
//
//	experiments [-quick] [-seed N] [-jobs N] [-only fig5,fig8a,fig8b,fig8c,fig8d,javaattacks,fig9,nativeattacks,ablations,fleet,collusion]
//
// Independent sweep points run concurrently on -jobs workers (0 = one per
// CPU); every point seeds its RNG from its own index, so tables are
// identical at every job count.
//
// The shared observability flags -stats, -stats-json FILE,
// -stats-deterministic, -cpuprofile and -memprofile (see cmd/pathmark)
// record a span per experiment plus per-sweep-point timing histograms
// (exp.<table>.point_us) and point counters. Table contents never depend
// on these flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"pathmark/internal/experiments"
	"pathmark/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "shrink sweeps and trial counts")
	seed := flag.Int64("seed", 42, "experiment seed")
	jobs := flag.Int("jobs", 0, "concurrent sweep points (0 = one per CPU, 1 = serial)")
	only := flag.String("only", "", "comma-separated subset of experiments to run")
	timeout := flag.Duration("timeout", 0, "overall suite deadline; sweeps stop between points once it passes (0 = none)")
	var cli obs.CLI
	cli.Register(flag.CommandLine)
	flag.Parse()

	reg, err := cli.Begin()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cfg := experiments.Config{Quick: *quick, Seed: *seed, Jobs: *jobs, Ctx: ctx, Obs: reg}
	selected := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(name)] = true
		}
	}
	want := func(name string) bool { return len(selected) == 0 || selected[name] }

	type exp struct {
		name string
		run  func() []*experiments.Table
	}
	suite := []exp{
		{"fig5", func() []*experiments.Table {
			_, t := experiments.Figure5(cfg)
			return []*experiments.Table{t}
		}},
		{"fig8a", func() []*experiments.Table {
			_, t := experiments.Figure8a(cfg)
			return []*experiments.Table{t}
		}},
		{"fig8b", func() []*experiments.Table {
			_, t := experiments.Figure8b(cfg)
			return []*experiments.Table{t}
		}},
		{"fig8c", func() []*experiments.Table {
			_, t := experiments.Figure8c(cfg)
			return []*experiments.Table{t}
		}},
		{"fig8d", func() []*experiments.Table {
			_, t := experiments.Figure8d(cfg)
			return []*experiments.Table{t}
		}},
		{"javaattacks", func() []*experiments.Table {
			_, t := experiments.JavaAttacksTable(cfg)
			return []*experiments.Table{t}
		}},
		{"fig9", func() []*experiments.Table {
			_, size, tim := experiments.Figure9(cfg)
			return []*experiments.Table{size, tim}
		}},
		{"nativeattacks", func() []*experiments.Table {
			_, t := experiments.NativeAttacksTable(cfg)
			return []*experiments.Table{t}
		}},
		{"ablations", func() []*experiments.Table {
			return []*experiments.Table{experiments.Ablations(cfg)}
		}},
		{"fleet", func() []*experiments.Table {
			_, t := experiments.FleetIdentification(cfg)
			return []*experiments.Table{t}
		}},
		{"collusion", func() []*experiments.Table {
			_, t := experiments.CollusionThreshold(cfg)
			return []*experiments.Table{t}
		}},
	}

	effectiveJobs := *jobs
	if effectiveJobs <= 0 {
		effectiveJobs = runtime.GOMAXPROCS(0)
	}
	ran := 0
	var total time.Duration
	for _, e := range suite {
		if !want(e.name) {
			continue
		}
		// The span subsumes the old ad-hoc wall-clock print: its Finish
		// duration feeds both the [name: ... in Xs] line and the metrics
		// sinks. With stats off (nil registry) it falls back to time.Now.
		span := reg.Start("exp." + e.name)
		start := time.Now()
		tables := e.run()
		elapsed := span.Finish()
		if reg == nil {
			elapsed = time.Since(start)
		}
		span.Set("tables", int64(len(tables)))
		elapsed = elapsed.Round(time.Millisecond)
		total += elapsed
		for _, t := range tables {
			fmt.Println(t.Render())
		}
		// Wall-clock per table: the compute happens in e.run(), so a
		// multi-table experiment (fig9) amortizes one run across tables.
		fmt.Printf("[%s: %d table(s) in %v, jobs=%d]\n\n", e.name, len(tables), elapsed, effectiveJobs)
		ran++
	}
	if ran > 1 {
		fmt.Printf("[suite total: %v, jobs=%d]\n", total.Round(time.Millisecond), effectiveJobs)
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "experiments: nothing selected")
		os.Exit(2)
	}
	if err := cli.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: stats:", err)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "experiments: deadline exceeded; remaining sweep points were skipped and the printed tables may be incomplete")
		os.Exit(1)
	}
}
