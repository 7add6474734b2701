package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"pathmark/internal/attacks"
)

var quick = Config{Quick: true, Seed: 42}

func TestFigure5ShapeAndAgreement(t *testing.T) {
	points, table := Figure5(quick)
	if len(points) < 5 {
		t.Fatalf("only %d points", len(points))
	}
	if points[0].Intact != 0 || points[0].Empirical != 0 {
		t.Errorf("zero intact pieces should never recover: %+v", points[0])
	}
	last := points[len(points)-1]
	if last.Empirical < 0.9 {
		t.Errorf("nearly all pieces intact should recover: %+v", last)
	}
	// Monotone-ish empirical curve and agreement with formula (1).
	for _, p := range points {
		if diff := p.Empirical - p.Theoretical; diff > 0.25 || diff < -0.25 {
			t.Errorf("intact=%d: empirical %.3f vs theoretical %.3f diverge", p.Intact, p.Empirical, p.Theoretical)
		}
	}
	if !strings.Contains(table.Render(), "Figure 5") {
		t.Error("table render broken")
	}
}

func TestFigure8aShape(t *testing.T) {
	points, _ := Figure8a(quick)
	if len(points) == 0 {
		t.Fatal("no points")
	}
	// Jess must stay cheap relative to CaffeineMark at the largest piece
	// count (the paper's central §5.1.1 contrast).
	var cafMax, jessMax float64
	for _, p := range points {
		if p.Workload == "CaffeineMark" && p.Slowdown > cafMax {
			cafMax = p.Slowdown
		}
		if p.Workload == "Jess" && p.Slowdown > jessMax {
			jessMax = p.Slowdown
		}
	}
	if cafMax <= jessMax {
		t.Errorf("CaffeineMark max slowdown %.3f not above Jess %.3f", cafMax, jessMax)
	}
	for _, p := range points {
		if p.Slowdown < 0 {
			t.Errorf("negative slowdown: %+v", p)
		}
	}
}

func TestFigure8bShape(t *testing.T) {
	points, _ := Figure8b(quick)
	// Size grows linearly: cost per piece roughly constant and small.
	for _, p := range points {
		if p.InstrPerPiece < 5 || p.InstrPerPiece > 700 {
			t.Errorf("instrs/piece = %.1f out of plausible band: %+v", p.InstrPerPiece, p)
		}
		if p.SizeIncrease <= 0 {
			t.Errorf("non-positive size increase: %+v", p)
		}
	}
	// More pieces, more size, same workload.
	byWorkload := map[string][]Fig8bPoint{}
	for _, p := range points {
		byWorkload[p.Workload] = append(byWorkload[p.Workload], p)
	}
	for wl, ps := range byWorkload {
		for i := 1; i < len(ps); i++ {
			if ps[i].Pieces > ps[i-1].Pieces && ps[i].SizeIncrease <= ps[i-1].SizeIncrease {
				t.Errorf("%s: size increase not monotone in pieces", wl)
			}
		}
	}
}

func TestFigure8cShape(t *testing.T) {
	points, _ := Figure8c(quick)
	if len(points) < 2 {
		t.Fatalf("too few points: %d", len(points))
	}
	// More pieces must survive at least as much insertion (within one
	// watermark size).
	for i := 1; i < len(points); i++ {
		a, b := points[i-1], points[i]
		if a.WBits == b.WBits && b.Pieces > a.Pieces &&
			b.SurvivableBranchPct < a.SurvivableBranchPct {
			t.Errorf("survivability regressed with more pieces: %+v -> %+v", a, b)
		}
	}
	// The largest configuration must survive something.
	last := points[len(points)-1]
	if last.SurvivableBranchPct <= 0 {
		t.Errorf("no branch insertion survived at %d pieces", last.Pieces)
	}
}

func TestFigure8dShape(t *testing.T) {
	points, _ := Figure8d(quick)
	for i := 1; i < len(points); i++ {
		a, b := points[i-1], points[i]
		if a.Workload == b.Workload && b.BranchIncrease > a.BranchIncrease && b.Slowdown < a.Slowdown {
			t.Errorf("attack slowdown not monotone: %+v -> %+v", a, b)
		}
	}
	// Inserting branches costs something.
	anyCost := false
	for _, p := range points {
		if p.BranchIncrease > 0 && p.Slowdown > 0 {
			anyCost = true
		}
	}
	if !anyCost {
		t.Error("branch insertion attack reported as free")
	}
}

func TestJavaAttacksTableMatchesPaper(t *testing.T) {
	rows, _ := JavaAttacksTable(quick)
	if len(rows) < 20 {
		t.Fatalf("only %d attacks evaluated", len(rows))
	}
	for _, r := range rows {
		if r.ExpectedToDestroy == r.Survived {
			t.Errorf("%s: survived=%v but paper expects destroys=%v", r.Attack, r.Survived, r.ExpectedToDestroy)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	points, sizeTable, timeTable := Figure9(quick)
	if len(points) != 10 {
		t.Fatalf("%d points, want 10 (quick = one wbits per kernel)", len(points))
	}
	for _, p := range points {
		if p.SizeIncrease <= 0 || p.SizeIncrease > 1.0 {
			t.Errorf("%s: size increase %.3f outside modest band", p.Program, p.SizeIncrease)
		}
		if p.Slowdown < -0.05 || p.Slowdown > 0.40 {
			t.Errorf("%s: slowdown %.3f outside near-zero band", p.Program, p.Slowdown)
		}
	}
	if !strings.Contains(sizeTable.Render(), "bzip2") || !strings.Contains(timeTable.Render(), "vpr") {
		t.Error("figure 9 tables incomplete")
	}
}

func TestNativeAttacksTableMatchesPaper(t *testing.T) {
	rows, _ := NativeAttacksTable(quick)
	byName := map[string]NativeAttackRow{}
	for _, r := range rows {
		byName[r.Attack] = r
	}
	for _, name := range []string{"no-op insertion", "branch sense inversion",
		"double watermarking", "bypass branch function"} {
		r := byName[name]
		if r.Broken != r.Total || r.Total == 0 {
			t.Errorf("%s: %d/%d broken, want all", name, r.Broken, r.Total)
		}
	}
	rr := byName["reroute entries"]
	if rr.Broken != 0 {
		t.Errorf("reroute: %d/%d broken, want none", rr.Broken, rr.Total)
	}
	if !strings.Contains(rr.Extra, "smart tracer recovered") {
		t.Errorf("reroute extra missing tracer outcomes: %q", rr.Extra)
	}
}

// TestJobsDeterminism is the concurrency engine's core guarantee: every
// table renders byte-for-byte identically at any job count, because sweep
// points seed their RNGs from their own index rather than a shared
// rand.Rand.
// TestFleetIdentification checks the §1 fingerprinting experiment: every
// leaked copy identifies as its own customer, the clean control stays
// clean, suspects are traced once per input (not once per key), and a
// warm corpus re-grade runs zero new traces.
func TestFleetIdentification(t *testing.T) {
	points, table := FleetIdentification(quick)
	if len(points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range points {
		if p.Identified != p.FleetSize {
			t.Errorf("fleet %d: only %d/%d copies identified", p.FleetSize, p.Identified, p.FleetSize)
		}
		if !p.CleanOK {
			t.Errorf("fleet %d: clean control matched a customer or a decoy key matched", p.FleetSize)
		}
		if p.TracesRun >= p.Pairs {
			t.Errorf("fleet %d: %d traces for %d pairs — no amortization", p.FleetSize, p.TracesRun, p.Pairs)
		}
		if p.WarmTraces != 0 {
			t.Errorf("fleet %d: warm re-grade ran %d traces, want 0", p.FleetSize, p.WarmTraces)
		}
		if p.Decrypted == 0 {
			t.Errorf("fleet %d: corpus decrypted nothing", p.FleetSize)
		}
	}
	if !strings.Contains(table.Render(), "Fleet identification") {
		t.Error("table render broken")
	}
}

func TestJobsDeterminism(t *testing.T) {
	serial := Config{Quick: true, Seed: 42, Jobs: 1}
	pooled := Config{Quick: true, Seed: 42, Jobs: 4}
	render := func(cfg Config) []string {
		_, t5 := Figure5(cfg)
		_, t8b := Figure8b(cfg)
		_, t8d := Figure8d(cfg)
		return []string{t5.Render(), t8b.Render(), t8d.Render()}
	}
	a, b := render(serial), render(pooled)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("table %d differs between jobs=1 and jobs=4:\n--- serial ---\n%s\n--- pooled ---\n%s", i, a[i], b[i])
		}
	}
}

func TestPointSeedStableAndDistinct(t *testing.T) {
	if pointSeed(42, "fig5", 3) != pointSeed(42, "fig5", 3) {
		t.Error("pointSeed not deterministic")
	}
	seen := map[int64]string{}
	for _, table := range []string{"fig5", "fig8a", "fig8b"} {
		for i := 0; i < 50; i++ {
			s := pointSeed(42, table, i)
			if s < 0 {
				t.Fatalf("pointSeed(%s,%d) = %d, want non-negative", table, i, s)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s/%d vs %s", table, i, prev)
			}
			seen[s] = fmt.Sprintf("%s/%d", table, i)
		}
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tbl := &Table{
		Title:   "T",
		Columns: []string{"a", "bbbb"},
		Rows:    [][]string{{"xxxxx", "y"}},
		Notes:   []string{"n"},
	}
	out := tbl.Render()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "note: n") {
		t.Errorf("render output malformed:\n%s", out)
	}
}

func TestAblations(t *testing.T) {
	table := Ablations(quick)
	out := table.Render()
	checks := []string{
		"first-successor (paper)", "bit-string invariant under inversion",
		"naive taken/not-taken", "bit-string changes",
		"tamper-proofing on (§4.3)", "bypass breaks the program",
		"tamper-proofing off", "bypass succeeds",
		"redundant",
	}
	for _, c := range checks {
		if !strings.Contains(out, c) {
			t.Errorf("ablation table missing %q:\n%s", c, out)
		}
	}
	// Redundant pieces must survive at least as often as minimal.
	var minimalRow, redundantRow string
	for _, row := range table.Rows {
		if row[0] == "error correction" {
			if strings.Contains(row[1], "minimal") {
				minimalRow = row[2]
			} else {
				redundantRow = row[2]
			}
		}
	}
	if minimalRow == "" || redundantRow == "" {
		t.Fatal("error-correction rows missing")
	}
	if !strings.Contains(redundantRow, "3/3") {
		t.Errorf("redundant embedding did not reliably survive: %s", redundantRow)
	}
}

func TestForEachContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, jobs := range []int{1, 4} {
		cfg := Config{Seed: 1, Jobs: jobs, Ctx: ctx}
		var ran atomic.Int64
		cfg.forEach("cancelled", 1000, func(i int) { ran.Add(1) })
		if n := ran.Load(); n != 0 {
			t.Errorf("jobs=%d: pre-cancelled sweep ran %d points, want 0", jobs, n)
		}
	}

	// Mid-sweep cancellation stops between points: with a serial pool the
	// point that cancels is the last one to run.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	cfg := Config{Seed: 1, Jobs: 1, Ctx: ctx2}
	var ran atomic.Int64
	cfg.forEach("midcancel", 1000, func(i int) {
		if ran.Add(1) == 3 {
			cancel2()
		}
	})
	if n := ran.Load(); n != 3 {
		t.Errorf("serial sweep ran %d points after cancellation at the 3rd, want 3", n)
	}
}

func TestCollusionThreshold(t *testing.T) {
	points, table := CollusionThreshold(quick)
	if len(points) != 4 {
		t.Fatalf("want 4 grid points, got %d", len(points))
	}
	byMode := func(harden bool, mode attacks.CollusionMode) *CollusionPoint {
		for i := range points {
			if points[i].Harden == harden && points[i].Mode == mode {
				return &points[i]
			}
		}
		t.Fatalf("missing point harden=%v mode=%v", harden, mode)
		return nil
	}
	// The hardening claim: the strip coalition defeats the baseline fleet
	// at some k, and the hardened fleet's threshold is strictly higher
	// (here: never defeated up to the fleet size).
	baseStrip := byMode(false, attacks.CollusionStrip)
	hardStrip := byMode(true, attacks.CollusionStrip)
	if baseStrip.Threshold == 0 {
		t.Error("strip never defeated the baseline fleet; nothing to harden against")
	}
	if hardStrip.Threshold != 0 && hardStrip.Threshold <= baseStrip.Threshold {
		t.Errorf("hardening did not raise the strip threshold: baseline %d, hardened %d",
			baseStrip.Threshold, hardStrip.Threshold)
	}
	if !strings.Contains(table.Render(), "Colluder threshold") {
		t.Error("table render broken")
	}
}
