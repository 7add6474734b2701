// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic substrates. Each Figure*/Table*
// function returns structured data plus a Render method that prints rows
// shaped like the paper's plots; cmd/experiments drives them and
// EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"time"

	"pathmark/internal/obs"
	"pathmark/internal/par"
)

// Config scales the experiment suite.
type Config struct {
	// Quick shrinks sweeps and trial counts for CI-speed runs.
	Quick bool
	// Seed drives all randomized parts; experiments are reproducible.
	Seed int64
	// Jobs bounds the worker pool independent sweep points run on:
	// 0 picks runtime.GOMAXPROCS(0), 1 forces the serial path. Every
	// randomized point derives its seed from Seed and its own identity —
	// pointSeed(Seed, table, index) for Monte-Carlo points, Seed plus the
	// sweep parameter for figure-8 points — never from a shared rand.Rand,
	// so tables are identical at every job count.
	Jobs int
	// Ctx, when non-nil, cancels a sweep between points: workers check it
	// before pulling the next point, so a deadline abandons the remaining
	// points promptly (already-started points run to completion). Tables
	// built from a cancelled sweep are incomplete; callers should check
	// Ctx.Err() before trusting them.
	Ctx context.Context
	// Obs, when non-nil, receives per-sweep-point timing histograms
	// (exp.<table>.point_us, a timing histogram) and point counters
	// (exp.<table>.points). Table contents never depend on Obs.
	Obs *obs.Registry
}

// jobs resolves the effective worker count.
func (cfg Config) jobs() int {
	if cfg.Jobs > 0 {
		return cfg.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(i) for every i in [0, n) on par.For, the module's one
// worker pool, with cfg.jobs() workers, stopping early once cfg.Ctx is
// cancelled. fn must confine its writes to index-i slots of pre-sized
// result slices; callers then assemble rows in index order, keeping
// output deterministic regardless of scheduling.
//
// table names the sweep for observability: when cfg.Obs is set, each
// point's wall time lands in the exp.<table>.point_us timing histogram
// (Observe is atomic-free but mutex-cheap, negligible against a sweep
// point's seconds of work) and the point count in exp.<table>.points.
func (cfg Config) forEach(table string, n int, fn func(i int)) {
	run := func(_, i int) { fn(i) }
	if cfg.Obs != nil {
		hist := cfg.Obs.TimingHistogram("exp." + table + ".point_us")
		points := cfg.Obs.Counter("exp." + table + ".points")
		run = func(_, i int) {
			t0 := time.Now()
			fn(i)
			hist.Observe(time.Since(t0).Microseconds())
			points.Add(1)
		}
	}
	par.For(n, cfg.jobs(), func() bool { return cfg.Ctx != nil && cfg.Ctx.Err() != nil }, run)
}

// pointSeed derives the deterministic RNG seed for sweep point `point` of
// the named table: a hash of (base seed, table name, point index). Points
// are seeded independently of execution order, which is what lets the
// pool run them concurrently without changing any table.
func pointSeed(base int64, table string, point int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", base, table, point)
	return int64(h.Sum64() & (1<<63 - 1))
}

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func pct(f float64) string  { return fmt.Sprintf("%.1f%%", f*100) }
func prob(f float64) string { return fmt.Sprintf("%.3f", f) }
func itoa(v int) string     { return fmt.Sprintf("%d", v) }
func f64(v float64) string  { return fmt.Sprintf("%.2f", v) }
func boolStr(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
