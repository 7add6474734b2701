package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads VmHWM (peak resident set size) of a process from
// /proc; pid "self" reads the harness's own.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS restarts a process's VmHWM count at its current RSS.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// span is one timed call at a layer boundary. Spans of one op share its
// op number; parent is the index of the enclosing span (-1 for a root).
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int
	op         int
}

// tracer keeps spans and per-op counts in memory; nothing is written
// until the run ends. A nil *tracer records nothing, so untraced runs
// pass nil and pay one pointer check per boundary.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64 // summed over traced ops
	ops    int
	// filled tracks, per parent span, how much of its interval the
	// attributed children placed so far occupy.
	filled map[int]time.Duration
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: map[string]float64{}, filled: map[int]time.Duration{}}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent, op int, f func()) time.Duration {
	id := t.begin(name, parent, op)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// attribute records d of work that parent did internally, measured by a
// separate call on the same inputs, as a child of parent. It is placed
// in the part of the parent's interval earlier attributions left free,
// so the parent's self time drops by d (never below zero). It returns
// the new span's id, which can itself take attributions.
func (t *tracer) attribute(name string, parent int, d time.Duration) int {
	if t == nil || parent < 0 {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	start := p.start + t.filled[parent]
	end := start + d
	if end > p.end {
		end = p.end
	}
	if start > end {
		start = end
	}
	t.filled[parent] += end - start
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, op: p.op})
	return len(t.spans) - 1
}

// count adds v to a per-op counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// opDone counts one traced op toward the per-op means.
func (t *tracer) opDone() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ops++
	t.mu.Unlock()
}

// selfTimes returns each span name's summed self time: a span's
// duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].start < t.spans[kids[b]].start })
		covered := time.Duration(0)
		cur := s.start
		for _, k := range kids {
			lo, hi := t.spans[k].start, t.spans[k].end
			if hi < 0 {
				continue
			}
			if lo < cur {
				lo = cur
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.name] += s.end - s.start - covered
	}
	return self
}

// totals returns each span name's summed duration.
func (t *tracer) totals() map[string]time.Duration {
	tot := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.end >= 0 {
			tot[s.name] += s.end - s.start
		}
	}
	return tot
}
