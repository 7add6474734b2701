package jobs

import (
	"context"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"pathmark/internal/obs"
)

func readTrace(t *testing.T, dir string) []obs.TraceEvent {
	t.Helper()
	data, err := os.ReadFile(TracePath(dir))
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	return obs.DecodeTraceEvents(data)
}

// TestJobTrace: a run writes trace.jsonl next to the journal with the
// job ID as trace ID and the full stage ladder for every executed grade.
func TestJobTrace(t *testing.T) {
	spec := baseSpec(t)
	dir := t.TempDir()
	mustExecute(t, dir, spec)

	id, err := SpecID(spec)
	if err != nil {
		t.Fatal(err)
	}
	evs := readTrace(t, dir)
	if len(evs) == 0 {
		t.Fatal("empty trace")
	}
	byEvent := map[string]int{}
	for _, ev := range evs {
		if ev.Trace != id {
			t.Fatalf("event %q has trace %q, want job ID %q", ev.Event, ev.Trace, id)
		}
		byEvent[ev.Event]++
	}
	M, K := len(spec.Suspects), len(spec.Keys)
	cells := M * K
	if byEvent["job.open"] != 1 || byEvent["job.done"] != 1 {
		t.Errorf("lifecycle events = %v, want one job.open and one job.done", byEvent)
	}
	for _, stage := range []string{"grade.trace", "grade.scan", "grade.vote", "grade.done"} {
		if byEvent[stage] != cells {
			t.Errorf("%s events = %d, want %d (one per grade)", stage, byEvent[stage], cells)
		}
	}
	// Scan events carry the per-layer reject breakdown.
	for _, ev := range evs {
		if ev.Event != "grade.scan" {
			continue
		}
		for _, a := range []string{"windows", "decrypted", "valid",
			"reject_popcount", "reject_transitions", "reject_phase", "reject_framing"} {
			if _, ok := ev.Attrs[a]; !ok {
				t.Fatalf("grade.scan missing attr %q: %+v", a, ev)
			}
		}
		break
	}
}

// TestJobTraceDeterministicAcrossWorkers is the contract the CI diff
// step relies on: with DeterministicTrace, the sorted trace lines of the
// same spec are byte-identical at any worker count.
func TestJobTraceDeterministicAcrossWorkers(t *testing.T) {
	sortedTrace := func(workers int) string {
		spec := baseSpec(t)
		spec.Opts.Workers = workers
		spec.Opts.DeterministicTrace = true
		dir := t.TempDir()
		mustExecute(t, dir, spec)
		data, err := os.ReadFile(TracePath(dir))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	a, b := sortedTrace(1), sortedTrace(4)
	if a != b {
		t.Errorf("deterministic traces differ between worker counts:\n--- workers=1\n%s\n--- workers=4\n%s", a, b)
	}
	if strings.Contains(a, `"seq"`) || strings.Contains(a, "ts_us") {
		t.Error("deterministic trace carries seq/timestamp stampings")
	}
}

// TestJobTraceResume: a second process lifetime appends to the same
// stream under the same trace ID, and restored grades do not re-emit.
func TestJobTraceResume(t *testing.T) {
	spec := baseSpec(t)
	spec.Opts.Workers = 1
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec.Opts.OnEvent = func(ev GradeEvent) {
		if ev.Completed >= 4 {
			cancel() // synchronous: the serial worker sees it before the next grade
		}
	}
	if _, err := Execute(ctx, dir, spec); err == nil {
		t.Fatal("interrupted run reported success")
	}

	spec2 := baseSpec(t)
	spec2.Opts.Workers = 1
	mustExecute(t, dir, spec2)

	evs := readTrace(t, dir)
	ids := map[string]bool{}
	opens, dones, gradeDones := 0, 0, 0
	for _, ev := range evs {
		ids[ev.Trace] = true
		switch ev.Event {
		case "job.open":
			opens++
		case "job.done":
			dones++
		case "grade.done":
			gradeDones++
		}
	}
	if len(ids) != 1 {
		t.Errorf("trace IDs across lifetimes = %v, want exactly one", ids)
	}
	if opens != 2 || dones != 1 {
		t.Errorf("opens=%d dones=%d, want 2 opens (both lifetimes) and 1 done", opens, dones)
	}
	cells := len(spec.Suspects) * len(spec.Keys)
	if gradeDones != cells {
		t.Errorf("grade.done events = %d, want %d (restored grades must not re-emit)", gradeDones, cells)
	}
	// The resumed lifetime's job.open records how much it inherited.
	var resumed int64 = -1
	for _, ev := range evs {
		if ev.Event == "job.open" && ev.Attrs["resumed"] > 0 {
			resumed = ev.Attrs["resumed"]
		}
	}
	if resumed < 4 {
		t.Errorf("no job.open recorded resumed >= 4 (got %d)", resumed)
	}
}

// TestJobOnEventAndScanCounters: the OnEvent callback fires once per
// settled grade with the recognition attached, and the scan-layer
// counters land in the job registry (each grade scans without one).
func TestJobOnEventAndScanCounters(t *testing.T) {
	spec := baseSpec(t)
	reg := obs.NewRegistry()
	spec.Opts.Obs = reg
	var mu sync.Mutex
	events := 0
	withRec := 0
	spec.Opts.OnEvent = func(ev GradeEvent) {
		mu.Lock()
		defer mu.Unlock()
		events++
		if ev.Rec != nil {
			withRec++
		}
	}
	res := mustExecute(t, t.TempDir(), spec)

	cells := len(spec.Suspects) * len(spec.Keys)
	if events != cells {
		t.Errorf("OnEvent fired %d times, want %d", events, cells)
	}
	if withRec != cells-res.Failed {
		t.Errorf("OnEvent recognitions = %d, want %d", withRec, cells-res.Failed)
	}
	var wantWindows, wantPop int64
	for s := range res.Corpus.Recognitions {
		for _, rec := range res.Corpus.Recognitions[s] {
			if rec != nil {
				wantWindows += int64(rec.Windows)
				wantPop += int64(rec.RejectedByLayer.Popcount)
			}
		}
	}
	if got := reg.Counter("recognize.windows_total").Value(); got != wantWindows {
		t.Errorf("recognize.windows_total = %d, want %d", got, wantWindows)
	}
	if got := reg.Counter("scan.reject.popcount").Value(); got != wantPop {
		t.Errorf("scan.reject.popcount = %d, want %d", got, wantPop)
	}
	// The metrics endpoint contract: the counters exist even at zero.
	snap := reg.Snapshot()
	names := map[string]bool{}
	for _, c := range snap.Counters {
		names[c.Name] = true
	}
	for _, n := range []string{"scan.reject.transitions", "scan.reject.phase", "scan.reject.framing", "scan.decrypted"} {
		if !names[n] {
			t.Errorf("counter %s not registered", n)
		}
	}
}
