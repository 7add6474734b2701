// Package obs is the observability spine of the repository: lightweight
// wall-clock spans with attached counters, monotonic counters, simple
// power-of-two histograms, and pluggable sinks (human-readable summary,
// JSONL event stream, Prometheus text exposition). Every pipeline stage — tracing,
// scanning, voting, embedding, the experiments sweeps — records into a
// *Registry that callers thread through options structs.
//
// Two properties shape the design:
//
//   - Zero cost when disabled. Every entry point is nil-safe: a nil
//     *Registry returns nil spans/counters/histograms whose methods are
//     no-ops, so instrumented hot paths pay exactly one pointer nil-check
//     when observability is off. Production call sites therefore never
//     need to guard instrumentation behind their own flags.
//
//   - Deterministic metrics. Span counters and plain histograms record
//     quantities derived from the *input* (windows scanned, statements
//     decoded), never from the execution schedule, so the metric content
//     of a run is byte-identical at any worker count. Wall times and
//     timing histograms are the only schedule-dependent records, and the
//     sinks can omit them (see JSONLOptions.Deterministic), which is what
//     makes metrics diffable across runs and machines.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry collects spans, counters, and histograms for one run. The zero
// value is not usable; call NewRegistry. All methods are safe for
// concurrent use, and all methods on a nil *Registry are no-ops.
type Registry struct {
	start time.Time

	mu       sync.Mutex
	spans    []*Span
	depth    int // number of currently unfinished spans
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Span measures one pipeline stage: the wall time between Start and Finish
// plus any int64 counters attached along the way. Spans nest: the depth
// recorded at Start is the number of spans still unfinished, which the
// summary sink renders as indentation. All methods on a nil *Span are
// no-ops, so instrumented code never checks whether observability is on.
type Span struct {
	reg      *Registry
	name     string
	depth    int
	start    time.Time
	wall     time.Duration
	done     bool
	counters map[string]int64
}

// Start opens a span. The returned span must be closed with Finish;
// nesting is inferred from the number of unfinished spans at Start time.
func (r *Registry) Start(name string) *Span {
	if r == nil {
		return nil
	}
	s := &Span{reg: r, name: name, start: time.Now()}
	r.mu.Lock()
	s.depth = r.depth
	r.depth++
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

// Set records counter value v on the span, overwriting any prior value.
// It returns the span for chaining.
func (s *Span) Set(counter string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.reg.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[counter] = v
	s.reg.mu.Unlock()
	return s
}

// Add increments counter by delta on the span and returns the span.
func (s *Span) Add(counter string, delta int64) *Span {
	if s == nil {
		return nil
	}
	s.reg.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[counter] += delta
	s.reg.mu.Unlock()
	return s
}

// Finish closes the span, recording its wall time, and returns it. Finish
// is idempotent: the first call wins, later calls return the recorded
// duration without touching the registry.
func (s *Span) Finish() time.Duration {
	if s == nil {
		return 0
	}
	s.reg.mu.Lock()
	if !s.done {
		s.done = true
		s.wall = time.Since(s.start)
		if s.reg.depth > 0 {
			s.reg.depth--
		}
	}
	d := s.wall
	s.reg.mu.Unlock()
	return d
}

// Counter is a monotonic (well, add-only; deltas may be negative but the
// intended use is monotonic) process-wide counter. Add is a single atomic
// operation, safe to call from any goroutine.
type Counter struct {
	name string
	v    atomic.Int64
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	r.mu.Unlock()
	return c
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-shape power-of-two histogram over non-negative
// int64 values: bucket i counts observations v with bits.Len64(v) == i
// (i.e. bucket 0 holds zeros, bucket i holds [2^(i-1), 2^i)). The shape
// needs no configuration, which keeps Observe allocation-free, and the
// exponential buckets match the quantities observed here (trace lengths,
// window counts, microsecond timings) which span orders of magnitude.
type Histogram struct {
	name   string
	timing bool

	mu       sync.Mutex
	count    int64
	sum      int64
	min, max int64
	buckets  [65]int64
}

// Histogram returns the named histogram, creating it on first use. Plain
// histograms record input-derived (deterministic) quantities; use
// TimingHistogram for wall-clock observations.
func (r *Registry) Histogram(name string) *Histogram {
	return r.histogram(name, false)
}

// TimingHistogram returns the named histogram marked as timing-valued.
// Timing histograms hold schedule-dependent observations (per-point wall
// times), so the deterministic JSONL mode omits them.
func (r *Registry) TimingHistogram(name string) *Histogram {
	return r.histogram(name, true)
}

func (r *Registry) histogram(name string, timing bool) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{name: name, timing: timing}
		r.hists[name] = h
	}
	r.mu.Unlock()
	return h
}

// Observe records one value; negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(uint64(v))]++
	h.mu.Unlock()
}

func copyCounters(m map[string]int64) map[string]int64 {
	if m == nil {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
