package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Per-layer metrics of a traced run. Every timing layer reports its busy
// (self) time per op in ms and its share of the traced op latency; every
// count is a per-op mean. A layer that does no work on a workload
// reports 0.

type layerMetric struct {
	name, unit, better string
}

// timedLayers are the span names whose self time is reported, each as
// <layer>_ms and <layer>.share.
var timedLayers = []string{
	"vm.collect", "vm.decode", "vm.asm", "vm.collect_embed", "vm.verify",
	"wm.digest", "wm.scan", "wm.vote", "wm.rescan", "wm.stream_append", "wm.embed", "wm.load_key",
	"jobs.spec", "jobs.open", "jobs.run", "jobs.wal_append", "jobs.result_write", "jobs.close",
	"jobs.stream_open", "jobs.stream_feed", "jobs.stream_finish",
	"serve.request_write", "serve.submit", "serve.poll", "serve.chunk", "serve.final", "serve.result",
	"serve.residual",
}

// countMetrics are per-op means of the tracer's counters, except the two
// ratios, which are computed over the run's sums.
var countMetrics = []layerMetric{
	{"vm.steps", "count", "lower"},
	{"vm.trace_bits", "bits", "lower"},
	{"vm.asm_bytes", "bytes", "lower"},
	{"wm.digest_calls", "count", "lower"},
	{"wm.scan_windows", "count", "lower"},
	{"wm.scan_decrypted", "count", "lower"},
	{"wm.scan_valid_per_decrypted", "ratio", "higher"},
	{"wm.scan_reject.popcount", "count", "higher"},
	{"wm.scan_reject.transitions", "count", "higher"},
	{"wm.scan_reject.phase", "count", "higher"},
	{"wm.scan_reject.framing", "count", "lower"},
	{"wm.vote_unique", "count", "lower"},
	{"wm.stream_probes", "count", "lower"},
	{"wm.stream_peak_buffered_bits", "bits", "lower"},
	{"cache.decrypt_hit_ratio", "ratio", "higher"},
	{"jobs.wal_records", "count", "lower"},
	{"jobs.wal_bytes", "bytes", "lower"},
	{"serve.poll_count", "count", "lower"},
}

// runMetrics describe the traced run as a whole.
var runMetrics = []layerMetric{
	{"traced.op_ms", "ms", "lower"},
	{"traced.ops", "count", "higher"},
	{"trace.overhead_ms", "ms", "lower"},
}

// perLayerMetrics lists every per-layer metric in output order.
func perLayerMetrics() []layerMetric {
	var out []layerMetric
	for _, l := range timedLayers {
		out = append(out, layerMetric{l + "_ms", "ms", "lower"}, layerMetric{l + ".share", "ratio", "lower"})
	}
	out = append(out, countMetrics...)
	return append(out, runMetrics...)
}

func perLayer(o *outcome) map[string]metric {
	tr := o.tr
	self := tr.selfTimes()
	self["serve.residual"] = o.residual
	opTotal := tr.totals()["op"]
	n := float64(max(tr.ops, 1))
	m := map[string]metric{}
	for _, l := range timedLayers {
		share := 0.0
		if opTotal > 0 {
			share = float64(self[l]) / float64(opTotal)
		}
		m[l+"_ms"] = metric{ms(self[l]) / n, "ms"}
		m[l+".share"] = metric{share, "ratio"}
	}
	for _, c := range countMetrics {
		m[c.name] = metric{tr.counts[c.name] / n, c.unit}
	}
	ratio := func(a, b string) float64 {
		if tr.counts[b] == 0 {
			return 0
		}
		return tr.counts[a] / tr.counts[b]
	}
	m["wm.scan_valid_per_decrypted"] = metric{ratio("wm.scan_valid", "wm.scan_decrypted"), "ratio"}
	m["cache.decrypt_hit_ratio"] = metric{ratio("cache.decrypt_hits", "cache.decrypt_lookups"), "ratio"}
	m["traced.op_ms"] = metric{ms(opTotal) / n, "ms"}
	m["traced.ops"] = metric{float64(tr.ops), "count"}
	m["trace.overhead_ms"] = metric{quantile(latMS(o.lat), 0.5) - quantile(latMS(o.untracedLat), 0.5), "ms"}
	return m
}

// printLayerTable prints the traced run's split: every span's self time
// per op and share of op latency, grouped by root, and the sum of each
// root's partition, so one can see that the layers (plus, for served
// ops, serve.residual) account for the op latency.
func printLayerTable(w io.Writer, o *outcome, m map[string]metric) {
	tr := o.tr
	self := tr.selfTimes()
	opTotal := tr.totals()["op"]
	n := float64(max(tr.ops, 1))
	roots := map[string]map[string]bool{}
	var rootOf func(i int) string
	rootOf = func(i int) string {
		for tr.spans[i].parent >= 0 {
			i = tr.spans[i].parent
		}
		return tr.spans[i].name
	}
	for i, s := range tr.spans {
		r := rootOf(i)
		if roots[r] == nil {
			roots[r] = map[string]bool{}
		}
		roots[r][s.name] = true
	}
	if o.residual != 0 {
		roots["replay"]["serve.residual"] = true
		self["serve.residual"] = o.residual
	}
	fmt.Fprintf(w, "perfbench: traced ops=%d, mean op latency %.3f ms, tracing overhead (p50 traced - untraced) %.3f ms\n",
		tr.ops, ms(opTotal)/n, m["trace.overhead_ms"].Value)
	rootNames := make([]string, 0, len(roots))
	for r := range roots {
		rootNames = append(rootNames, r)
	}
	sort.Strings(rootNames)
	for _, r := range rootNames {
		names := make([]string, 0, len(roots[r]))
		for s := range roots[r] {
			names = append(names, s)
		}
		sort.Strings(names)
		var sum time.Duration
		fmt.Fprintf(w, "perfbench:   [%s]\n", r)
		for _, s := range names {
			sum += self[s]
			fmt.Fprintf(w, "perfbench:     %-22s %10.3f ms/op  share %6.3f\n", s, ms(self[s])/n, float64(self[s])/float64(max(opTotal, 1)))
		}
		fmt.Fprintf(w, "perfbench:     %-22s %10.3f ms/op  share %6.3f\n", "(sum)", ms(sum)/n, float64(sum)/float64(max(opTotal, 1)))
	}
	var counts []string
	for _, c := range countMetrics {
		counts = append(counts, c.name)
	}
	for _, c := range counts {
		fmt.Fprintf(w, "perfbench:     %-30s %14.3f %s\n", c, m[c].Value, m[c].Unit)
	}
}
