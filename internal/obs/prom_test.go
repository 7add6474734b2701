package obs

import (
	"bytes"
	"flag"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// promPage is the CI serve-smoke hook: when set, TestParsePrometheusCI
// validates a live daemon's /metrics page with the repo's own parser
// (the same code the tests below pin) instead of requiring promtool.
var promPage = flag.String("prom-page", "", "exposition page file to validate (CI hook)")

func TestParsePrometheusCI(t *testing.T) {
	if *promPage == "" {
		t.Skip("no -prom-page given")
	}
	data, err := os.ReadFile(*promPage)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(data)
	if err != nil {
		t.Fatalf("page does not parse: %v", err)
	}
	found := false
	for name := range samples {
		if strings.HasPrefix(name, "pathmark_") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("page has no pathmark_ samples (got %d samples)", len(samples))
	}
}

// TestQuantilePinned pins the power-of-two interpolation against exact
// hand-computed values.
func TestQuantilePinned(t *testing.T) {
	// Observations 1..8 land in buckets 1:{1} 2:{2,3} 3:{4..7} 4:{8}.
	// p50 rank = 0.5*8 = 4 → bucket 3 (cumulative 3 before it, 4 wide),
	// position (4-3)/4 = 0.25 of the way through [4,7] → 4 + 0.25*3 = 4.75.
	r := NewRegistry()
	h := r.Histogram("vals")
	for v := int64(1); v <= 8; v++ {
		h.Observe(v)
	}
	hs := r.Snapshot().Hists[0]
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 4.75},
		// p90 rank = 7.2 → bucket 4 ([8,15], 1 wide, cumulative 7 before):
		// 8 + 0.2*7 = 9.4, clamped to Max=8.
		{0.90, 8},
		{0.99, 8},
		// p12.5 rank = 1 → bucket 1 ([1,1]): exactly 1.
		{0.125, 1},
		{0, 1}, // q<=0 → Min
		{1, 8}, // q>=1 → Max
	}
	for _, c := range cases {
		if got := hs.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileDegenerate(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("same")
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	z := r.Histogram("zeros")
	z.Observe(0)
	z.Observe(0)
	var empty HistStat
	for _, c := range []struct {
		hs   HistStat
		q    float64
		want float64
	}{
		{r.Snapshot().Hists[0], 0.5, 5}, // identical values clamp exactly
		{r.Snapshot().Hists[0], 0.99, 5},
		{r.Snapshot().Hists[1], 0.5, 0}, // zero bucket
		{empty, 0.5, 0},                 // empty histogram
	} {
		if got := c.hs.Quantile(c.q); got != c.want {
			t.Errorf("%s Quantile(%v) = %v, want %v", c.hs.Name, c.q, got, c.want)
		}
	}
}

// TestSummaryQuantiles: WriteSummary histogram lines carry the derived
// p50/p90/p99 estimates.
func TestSummaryQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vals")
	for v := int64(1); v <= 8; v++ {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"p50=4.8", "p90=8.0", "p99=8.0"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, buf.String())
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("scan.reject.popcount").Add(42)
	r.Counter("jobs.retries").Add(3)
	h := r.Histogram("trace.bits")
	for _, v := range []int64{0, 1, 5, 1000} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, "pathmark"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	samples, err := ParsePrometheus(buf.Bytes())
	if err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, out)
	}
	want := map[string]float64{
		"pathmark_scan_reject_popcount":           42,
		"pathmark_jobs_retries":                   3,
		"pathmark_trace_bits_count":               4,
		"pathmark_trace_bits_sum":                 1006,
		"pathmark_trace_bits_bucket{le=\"0\"}":    1,
		"pathmark_trace_bits_bucket{le=\"1\"}":    2,
		"pathmark_trace_bits_bucket{le=\"7\"}":    3, // 5 → bucket 3, le=2^3-1
		"pathmark_trace_bits_bucket{le=\"1023\"}": 4, // 1000 → bucket 10
		"pathmark_trace_bits_bucket{le=\"+Inf\"}": 4,
	}
	for k, v := range want {
		if got, ok := samples[k]; !ok || got != v {
			t.Errorf("sample %s = %v (present=%v), want %v\n%s", k, got, ok, v, out)
		}
	}
	if _, ok := samples["pathmark_trace_bits_p50"]; !ok {
		t.Errorf("missing derived p50 gauge:\n%s", out)
	}
	if _, ok := samples["pathmark_trace_bits_p99"]; !ok {
		t.Errorf("missing derived p99 gauge:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE pathmark_scan_reject_popcount counter") {
		t.Errorf("missing counter TYPE line:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE pathmark_trace_bits histogram") {
		t.Errorf("missing histogram TYPE line:\n%s", out)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestWritePrometheusSpanFree: a scrape's cost does not grow with the
// spans the registry holds. A daemon opens a span per job and never drops
// one, so a page that copied them would cost more with every job served.
func TestWritePrometheusSpanFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	allocs := func(spans int) float64 {
		r := NewRegistry()
		r.Counter("serve.jobs.completed").Add(1)
		r.TimingHistogram("http.duration_us").Observe(250)
		for i := 0; i < spans; i++ {
			r.Start("jobs.run").Set("grades", 4).Finish()
		}
		return testing.AllocsPerRun(20, func() { r.WritePrometheus(io.Discard, "pathmark") })
	}
	if few, many := allocs(10), allocs(10_000); few != many {
		t.Errorf("WritePrometheus allocates %v times per call with 10 finished spans, %v with 10,000", few, many)
	}
}

func TestWritePrometheusNil(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, "x"); err != nil || buf.Len() != 0 {
		t.Errorf("nil WritePrometheus wrote %q, err %v", buf.String(), err)
	}
}

func TestParsePrometheusRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"bad name", "9metric 1\n"},
		{"no value", "metric\n"},
		{"bad value", "metric abc\n"},
		{"bad type", "# TYPE m widget\nm 1\n"},
		{"unbalanced braces", "m}{le=\"1\" 1\n"},
		{"malformed label", "m{le=1} 1\n"},
		{"duplicate sample", "m 1\nm 2\n"},
		{"non-cumulative buckets", "h_bucket{le=\"1\"} 5\nh_bucket{le=\"3\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n"},
		{"missing inf", "h_bucket{le=\"1\"} 5\nh_count 5\n"},
		{"inf-count mismatch", "h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_count 7\n"},
	}
	for _, c := range cases {
		if _, err := ParsePrometheus([]byte(c.in)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", c.name, c.in)
		}
	}
	good := "# HELP m something\n# TYPE m counter\nm 12\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 2\nh_count 2\n"
	samples, err := ParsePrometheus([]byte(good))
	if err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	if samples["m"] != 12 || samples["h_count"] != 2 {
		t.Errorf("samples = %v", samples)
	}
}
