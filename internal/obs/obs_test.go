package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestSpanNesting checks that depth reflects the number of unfinished
// spans at Start time and that Finish ordering (including out-of-order
// and double Finish) never corrupts the registry.
func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	outer := r.Start("outer")
	inner := r.Start("inner")
	innermost := r.Start("innermost")
	innermost.Finish()
	inner.Finish()
	sibling := r.Start("sibling") // depth back to 1 after the two finishes
	sibling.Finish()
	outer.Finish()
	if d := outer.Finish(); d != outer.wall {
		t.Errorf("double Finish returned %v, want the recorded %v", d, outer.wall)
	}
	after := r.Start("after")
	after.Finish()

	snap := r.Snapshot()
	want := map[string]int{"outer": 0, "inner": 1, "innermost": 2, "sibling": 1, "after": 0}
	if len(snap.Spans) != len(want) {
		t.Fatalf("got %d spans, want %d", len(snap.Spans), len(want))
	}
	order := []string{"outer", "inner", "innermost", "sibling", "after"}
	for i, s := range snap.Spans {
		if s.Name != order[i] {
			t.Errorf("span %d = %q, want start-order %q", i, s.Name, order[i])
		}
		if s.Depth != want[s.Name] {
			t.Errorf("span %q depth = %d, want %d", s.Name, s.Depth, want[s.Name])
		}
		if s.WallNS <= 0 {
			t.Errorf("span %q has no wall time", s.Name)
		}
	}
}

// TestNilRegistry exercises every entry point on nil receivers: all must
// be no-ops (the disabled path of instrumented production code).
func TestNilRegistry(t *testing.T) {
	var r *Registry
	s := r.Start("x")
	s.Set("a", 1).Add("a", 2)
	if d := s.Finish(); d != 0 {
		t.Errorf("nil span Finish = %v, want 0", d)
	}
	r.Counter("c").Add(5)
	if v := r.Counter("c").Value(); v != 0 {
		t.Errorf("nil counter Value = %d", v)
	}
	r.Histogram("h").Observe(3)
	r.TimingHistogram("t").Observe(3)
	if err := r.WriteJSONL(&bytes.Buffer{}, JSONLOptions{}); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}
	if err := r.WriteSummary(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteSummary: %v", err)
	}
	if snap := r.Snapshot(); len(snap.Spans)+len(snap.Counters)+len(snap.Hists) != 0 {
		t.Errorf("nil Snapshot not empty: %+v", snap)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits")
			for i := 0; i < 1000; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("hits").Value(); v != 8000 {
		t.Errorf("counter = %d, want 8000", v)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sizes")
	for _, v := range []int64{0, 1, 2, 3, 1024, -5} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap.Hists) != 1 {
		t.Fatalf("got %d histograms", len(snap.Hists))
	}
	hs := snap.Hists[0]
	if hs.Count != 6 || hs.Sum != 1030 || hs.Min != 0 || hs.Max != 1024 {
		t.Errorf("stats = count %d sum %d min %d max %d", hs.Count, hs.Sum, hs.Min, hs.Max)
	}
	// 0 and -5 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 1024 → bucket 11.
	want := map[string]int64{"0": 2, "1": 1, "2": 2, "11": 1}
	for k, v := range want {
		if hs.Buckets[k] != v {
			t.Errorf("bucket %s = %d, want %d", k, hs.Buckets[k], v)
		}
	}
}

// TestJSONLDeterministic checks the JSONL sink round-trips through
// encoding/json and that two registries with identical metric content but
// different wall clocks produce byte-identical deterministic streams.
func TestJSONLDeterministic(t *testing.T) {
	build := func(extraWork int) *Registry {
		r := NewRegistry()
		s := r.Start("stage")
		for i := 0; i < extraWork; i++ {
			_ = r.Counter("side").Value() // vary wall time only
		}
		s.Set("items", 42).Finish()
		r.Counter("calls").Add(1)
		r.Histogram("lens").Observe(7)
		r.TimingHistogram("point_us").Observe(int64(123 + extraWork))
		return r
	}
	a, b := build(10), build(100000)

	var bufA, bufB bytes.Buffer
	if err := a.WriteJSONL(&bufA, JSONLOptions{Deterministic: true}); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSONL(&bufB, JSONLOptions{Deterministic: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Errorf("deterministic streams differ:\n%s\nvs\n%s", bufA.String(), bufB.String())
	}
	if strings.Contains(bufA.String(), "wall_ns") {
		t.Error("deterministic stream contains wall_ns")
	}
	if strings.Contains(bufA.String(), "point_us") {
		t.Error("deterministic stream contains a timing histogram")
	}

	// The full stream must round-trip line by line.
	var full bytes.Buffer
	if err := a.WriteJSONL(&full, JSONLOptions{}); err != nil {
		t.Fatal(err)
	}
	sawWall := false
	for _, line := range strings.Split(strings.TrimSpace(full.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %q does not parse: %v", line, err)
		}
		if ev["type"] == "" {
			t.Errorf("line %q has no type", line)
		}
		if _, ok := ev["wall_ns"]; ok {
			sawWall = true
		}
	}
	if !sawWall {
		t.Error("full stream has no wall_ns on any span")
	}
}

func TestSummary(t *testing.T) {
	r := NewRegistry()
	s := r.Start("scan")
	s.Set("windows", 1_000_000).Finish()
	r.Counter("calls").Add(3)
	r.Histogram("bits").Observe(64)
	var buf bytes.Buffer
	if err := r.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"scan", "windows=1000000", "Mwindows/s", "calls", "bits", "mean=64.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestCLILifecycle drives the flag bundle end to end: parse flags, Begin,
// record, Finish; the JSONL file must exist and parse, Finish must be
// idempotent.
func TestCLILifecycle(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "m.json")
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")

	var c CLI
	var summary bytes.Buffer
	c.SummaryTo = &summary
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.Register(fs)
	if err := fs.Parse([]string{
		"-stats", "-stats-json", jsonPath, "-cpuprofile", cpuPath, "-memprofile", memPath,
	}); err != nil {
		t.Fatal(err)
	}
	reg, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if reg == nil {
		t.Fatal("Begin returned nil registry with -stats set")
	}
	reg.Start("work").Set("n", 1).Finish()
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := c.Finish(); err != nil {
		t.Fatalf("second Finish: %v", err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("JSONL line %q: %v", line, err)
		}
	}
	if !strings.Contains(summary.String(), "work") {
		t.Errorf("summary missing span: %s", summary.String())
	}
	for _, p := range []string{cpuPath, memPath} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

// TestCLIDisabled: with no flags set, Begin returns a nil registry and
// Finish writes nothing.
func TestCLIDisabled(t *testing.T) {
	var c CLI
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	reg, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if reg != nil {
		t.Error("Begin returned a registry with stats disabled")
	}
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
}
