package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file renders a Registry in the Prometheus text exposition format
// (version 0.0.4), which is what `pathmark serve` mounts at /metrics.
// The mapping is mechanical:
//
//   - counters become `# TYPE <name> counter` samples;
//   - power-of-two histograms become cumulative `_bucket{le="..."}`
//     series (bucket i covers [2^(i-1), 2^i), so its inclusive upper
//     bound — the `le` value — is 2^i - 1), plus `_sum`, `_count`, and
//     derived `_p50`/`_p99` gauges interpolated from the buckets;
//   - spans are skipped: they are per-run narrative, not time series,
//     and live in the summary/JSONL/trace sinks instead.
//
// ParsePrometheus is the matching validator, small enough to keep CI
// free of a promtool dependency: it checks TYPE lines, sample syntax,
// the metric-name charset, histogram bucket monotonicity, and the
// +Inf-equals-count invariant.

// Quantile estimates the q-th quantile (0 <= q <= 1) of the histogram
// by linear interpolation inside its power-of-two buckets. Bucket i
// spans [2^(i-1), 2^i - 1] (bucket 0 holds only zeros); the estimate
// walks the cumulative counts to the bucket containing rank q*Count and
// interpolates linearly within it, then clamps to the recorded
// [Min, Max] so single-valued histograms report exactly.
func (h HistStat) Quantile(q float64) float64 {
	if h.Count <= 0 {
		return 0
	}
	if q <= 0 {
		return float64(h.Min)
	}
	if q >= 1 {
		return float64(h.Max)
	}
	target := q * float64(h.Count)
	cum := 0.0
	for i := 0; i <= 64; i++ {
		b := h.Buckets[strconv.Itoa(i)]
		if b <= 0 {
			continue
		}
		if cum+float64(b) >= target {
			lo, hi := bucketBounds(i)
			v := lo + (target-cum)/float64(b)*(hi-lo)
			return math.Max(float64(h.Min), math.Min(float64(h.Max), v))
		}
		cum += float64(b)
	}
	return float64(h.Max)
}

// bucketBounds returns the inclusive value range of power-of-two bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 0
	}
	lo = math.Ldexp(1, i-1)
	hi = math.Ldexp(1, i) - 1
	return lo, hi
}

// bucketUpper renders bucket i's inclusive upper bound as the exact
// decimal Prometheus `le` label (2^i - 1; "0" for the zero bucket).
func bucketUpper(i int) string {
	if i == 0 {
		return "0"
	}
	if i >= 64 {
		return strconv.FormatUint(^uint64(0), 10)
	}
	return strconv.FormatUint(uint64(1)<<uint(i)-1, 10)
}

// promName sanitizes a dotted metric name into the Prometheus charset
// ([a-zA-Z0-9_:]) and prefixes the namespace, so "scan.reject.popcount"
// under namespace "pathmark" becomes "pathmark_scan_reject_popcount".
func promName(namespace, name string) string {
	var sb strings.Builder
	if namespace != "" {
		sb.WriteString(namespace)
		sb.WriteByte('_')
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			sb.WriteByte(c)
		case c >= '0' && c <= '9' && sb.Len() > 0:
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format. Counters export as counters; histograms as cumulative-bucket
// histogram series with derived p50/p99 gauges; spans are omitted. A nil
// registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer, namespace string) error {
	if r == nil {
		return nil
	}
	snap := r.snapshot(false)
	var sb strings.Builder
	for _, c := range snap.Counters {
		n := promName(namespace, c.Name)
		fmt.Fprintf(&sb, "# TYPE %s counter\n%s %d\n", n, n, c.Value)
	}
	for _, h := range snap.Hists {
		n := promName(namespace, h.Name)
		fmt.Fprintf(&sb, "# TYPE %s histogram\n", n)
		cum := int64(0)
		for i := 0; i <= 64; i++ {
			b := h.Buckets[strconv.Itoa(i)]
			if b <= 0 {
				continue
			}
			cum += b
			fmt.Fprintf(&sb, "%s_bucket{le=\"%s\"} %d\n", n, bucketUpper(i), cum)
		}
		fmt.Fprintf(&sb, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(&sb, "%s_sum %d\n", n, h.Sum)
		fmt.Fprintf(&sb, "%s_count %d\n", n, h.Count)
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"p50", 0.50}, {"p99", 0.99}} {
			qn := n + "_" + q.suffix
			fmt.Fprintf(&sb, "# TYPE %s gauge\n%s %s\n", qn, qn, promFloat(h.Quantile(q.q)))
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// ParsePrometheus validates a text-exposition payload and returns its
// samples keyed by the sample identifier as written (metric name plus
// any label block, e.g. `http_duration_us_bucket{le="1023"}`). It
// enforces the invariants a scraper relies on: names match the
// Prometheus charset, every sample parses as a float, TYPE lines name a
// known type, histogram bucket series are cumulative (non-decreasing),
// and the `+Inf` bucket equals the `_count` sample.
func ParsePrometheus(data []byte) (map[string]float64, error) {
	samples := make(map[string]float64)
	type histCheck struct {
		last    float64
		inf     float64
		hasInf  bool
		ordered bool
	}
	hists := make(map[string]*histCheck)
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("prom: line %d: malformed TYPE line", ln+1)
				}
				if !validPromName(fields[2]) {
					return nil, fmt.Errorf("prom: line %d: bad metric name %q", ln+1, fields[2])
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("prom: line %d: unknown type %q", ln+1, fields[3])
				}
			}
			continue // HELP and free comments pass through
		}
		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("prom: line %d: %w", ln+1, err)
		}
		key := name + labels
		if _, dup := samples[key]; dup {
			return nil, fmt.Errorf("prom: line %d: duplicate sample %s", ln+1, key)
		}
		samples[key] = value
		if base, ok := strings.CutSuffix(name, "_bucket"); ok && strings.Contains(labels, "le=") {
			hc := hists[base]
			if hc == nil {
				hc = &histCheck{ordered: true}
				hists[base] = hc
			}
			if strings.Contains(labels, `le="+Inf"`) {
				hc.inf, hc.hasInf = value, true
			} else {
				if value < hc.last {
					hc.ordered = false
				}
				hc.last = value
			}
		}
	}
	for base, hc := range hists {
		if !hc.ordered {
			return nil, fmt.Errorf("prom: histogram %s: bucket series not cumulative", base)
		}
		if !hc.hasInf {
			return nil, fmt.Errorf("prom: histogram %s: missing +Inf bucket", base)
		}
		if hc.inf < hc.last {
			return nil, fmt.Errorf("prom: histogram %s: +Inf bucket below last le bucket", base)
		}
		if count, ok := samples[base+"_count"]; ok && count != hc.inf {
			return nil, fmt.Errorf("prom: histogram %s: +Inf bucket %g != count %g", base, hc.inf, count)
		}
	}
	return samples, nil
}

func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// parsePromSample splits one sample line into name, normalized label
// block (sorted, "" when absent), and value.
func parsePromSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		j := strings.IndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unbalanced label braces")
		}
		name = rest[:i]
		raw := rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
		var pairs []string
		for _, p := range strings.Split(raw, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			k, v, found := strings.Cut(p, "=")
			if !found || !validPromName(k) || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return "", "", 0, fmt.Errorf("malformed label %q", p)
			}
			pairs = append(pairs, k+"="+v)
		}
		sort.Strings(pairs)
		labels = "{" + strings.Join(pairs, ",") + "}"
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", "", 0, fmt.Errorf("sample needs a name and a value")
		}
		name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	if !validPromName(name) {
		return "", "", 0, fmt.Errorf("bad metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return "", "", 0, fmt.Errorf("malformed value %q", rest)
	}
	value, err = parsePromValue(fields[0])
	if err != nil {
		return "", "", 0, err
	}
	return name, labels, value, nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad sample value %q", s)
	}
	return v, nil
}
