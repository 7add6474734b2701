package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// SpanStat is the exported snapshot of one finished span.
type SpanStat struct {
	Name     string           `json:"name"`
	Depth    int              `json:"depth"`
	WallNS   int64            `json:"wall_ns,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// CounterStat is the exported snapshot of one counter.
type CounterStat struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistStat is the exported snapshot of one histogram. Buckets maps the
// power-of-two bucket index (as a decimal string, to survive JSON) to its
// count; empty buckets are omitted.
type HistStat struct {
	Name    string           `json:"name"`
	Timing  bool             `json:"timing,omitempty"`
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Min     int64            `json:"min"`
	Max     int64            `json:"max"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of the registry, the payload every sink
// renders. Spans appear in start order; counters and histograms are
// sorted by name.
type Snapshot struct {
	Spans    []SpanStat    `json:"spans,omitempty"`
	Counters []CounterStat `json:"counters,omitempty"`
	Hists    []HistStat    `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current contents. Unfinished spans are
// included with WallNS 0 so that a mid-run snapshot still shows what is
// in flight.
func (r *Registry) Snapshot() Snapshot { return r.snapshot(true) }

// snapshot copies the counters and histograms, and the spans too when
// spans is set. The Prometheus page leaves them out: the registry never
// drops a span, so copying them would make every scrape of a
// long-running daemon cost more than the last.
func (r *Registry) snapshot(spans bool) Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	if spans {
		for _, s := range r.spans {
			st := SpanStat{Name: s.name, Depth: s.depth, Counters: copyCounters(s.counters)}
			if s.done {
				st.WallNS = int64(s.wall)
			}
			snap.Spans = append(snap.Spans, st)
		}
	}
	for _, name := range sortedKeys(r.counters) {
		snap.Counters = append(snap.Counters, CounterStat{Name: name, Value: r.counters[name].v.Load()})
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		h.mu.Lock()
		hs := HistStat{Name: name, Timing: h.timing, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		for i, b := range h.buckets {
			if b != 0 {
				if hs.Buckets == nil {
					hs.Buckets = make(map[string]int64)
				}
				hs.Buckets[fmt.Sprintf("%d", i)] = b
			}
		}
		h.mu.Unlock()
		snap.Hists = append(snap.Hists, hs)
	}
	r.mu.Unlock()
	return snap
}

// JSONLOptions tunes the JSONL sink.
type JSONLOptions struct {
	// Deterministic omits every schedule-dependent record — span wall
	// times and timing histograms — leaving only input-derived metrics.
	// The resulting stream is byte-identical across runs, worker counts,
	// and machines for the same input and seed, which is what CI baselines
	// diff against.
	Deterministic bool
}

// WriteJSONL streams the registry as JSON Lines: one object per span (in
// start order), then one per counter and histogram (sorted by name). Every
// object carries a "type" field ("span", "counter", "hist"); map keys are
// emitted in sorted order by encoding/json, so equal registries produce
// byte-identical streams.
func (r *Registry) WriteJSONL(w io.Writer, opts JSONLOptions) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	enc := json.NewEncoder(w)
	for _, s := range snap.Spans {
		ev := map[string]any{"type": "span", "name": s.Name, "depth": s.Depth}
		if !opts.Deterministic && s.WallNS > 0 {
			ev["wall_ns"] = s.WallNS
		}
		if len(s.Counters) > 0 {
			ev["counters"] = s.Counters
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	for _, c := range snap.Counters {
		if err := enc.Encode(map[string]any{"type": "counter", "name": c.Name, "value": c.Value}); err != nil {
			return err
		}
	}
	for _, h := range snap.Hists {
		if opts.Deterministic && h.Timing {
			continue
		}
		ev := map[string]any{
			"type": "hist", "name": h.Name,
			"count": h.Count, "sum": h.Sum, "min": h.Min, "max": h.Max,
		}
		if h.Timing {
			ev["timing"] = true
		}
		if len(h.Buckets) > 0 {
			ev["buckets"] = h.Buckets
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// rateCounters names the span counters the summary sink derives a
// per-second throughput from (windows/s for the scan stage, instrs/s for
// interpreter runs). Rates are computed at render time from the span's
// wall clock, never stored, so the registry content stays deterministic.
var rateCounters = []string{"windows", "steps"}

// WriteSummary renders a human-readable report: the span tree (indented
// by nesting depth) with wall times, counters, and derived rates, then
// the counters and histogram statistics.
func (r *Registry) WriteSummary(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	var sb strings.Builder
	sb.WriteString("== obs summary ==\n")
	if len(snap.Spans) > 0 {
		sb.WriteString("spans:\n")
		for _, s := range snap.Spans {
			fmt.Fprintf(&sb, "  %s%-*s %10s", strings.Repeat("  ", s.Depth),
				34-2*s.Depth, s.Name, fmtWall(s.WallNS))
			for _, k := range sortedKeys(s.Counters) {
				fmt.Fprintf(&sb, "  %s=%d", k, s.Counters[k])
			}
			for _, rc := range rateCounters {
				if v, ok := s.Counters[rc]; ok && s.WallNS > 0 {
					fmt.Fprintf(&sb, "  (%.2f M%s/s)", float64(v)*1e3/float64(s.WallNS), rc)
				}
			}
			sb.WriteByte('\n')
		}
	}
	if len(snap.Counters) > 0 {
		sb.WriteString("counters:\n")
		for _, c := range snap.Counters {
			fmt.Fprintf(&sb, "  %-36s %d\n", c.Name, c.Value)
		}
	}
	if len(snap.Hists) > 0 {
		sb.WriteString("histograms:\n")
		for _, h := range snap.Hists {
			mean := 0.0
			if h.Count > 0 {
				mean = float64(h.Sum) / float64(h.Count)
			}
			fmt.Fprintf(&sb, "  %-36s count=%d sum=%d min=%d max=%d mean=%.1f p50=%.1f p90=%.1f p99=%.1f\n",
				h.Name, h.Count, h.Sum, h.Min, h.Max, mean,
				h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99))
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func fmtWall(ns int64) string {
	if ns <= 0 {
		return "-"
	}
	return time.Duration(ns).Round(time.Microsecond).String()
}
