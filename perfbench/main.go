// Command perfbench is pathmark's benchmark: four closed-loop workloads
// (in-process recognize and embed-fleet, and serve-grade and serve-stream
// against a real `pathmark serve` child process), each checked against
// ground truth fixed when its inputs are generated. An untraced run
// (-trace 0) prints the end-to-end metrics; a traced run (-trace 1)
// prints the per-layer split. -spread runs every workload repeatedly and
// reports each end-to-end metric's quartiles against its bound in
// BENCHMARK.json. See README.md.
//
// Build and run it through perfbench/run.sh from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	pathmark string // the pathmark binary the served workloads start
	workdir  string // scratch space inside the checkout (job roots, replays)
	minOps   int    // ops a measurement phase runs at least
	setups   int    // set-ups per run at least; setup_s is their median
	// progress, when set, receives one line per measurement phase
	// (tests leave it nil).
	progress func(format string, args ...any)
}

// outcome is what one workload run measured.
type outcome struct {
	attempted int
	failed    int // failed, refused or wrong-verdict ops
	wrong     int // wrong verdicts (a subset of failed)
	lat       []time.Duration
	timed     time.Duration // wall time the ops ran in, checks excluded
	setup     []float64     // seconds per set-up
	rssMB     float64

	settle   []float64 // share of a session's bits uploaded before it settled
	growth   []float64 // code growth of Jess-like copies, %
	overhead []float64 // step overhead of CaffeineMark-like copies, %

	problems []string // cross-check or determinism failures

	tr          *tracer
	untracedLat []time.Duration // traced runs: the untraced phase's latencies
	residual    time.Duration   // served traced runs: op latency not covered by the replay
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloadRuns = map[string]func(config) (*outcome, error){
	"recognize":    runRecognize,
	"serve-grade":  runServeGrade,
	"serve-stream": runServeStream,
	"embed-fleet":  runEmbedFleet,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadRuns))
	for n := range workloadRuns {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Op statuses reported by a workload's op function.
const (
	opOK = iota
	opWrong
	opFailed
)

type opResult struct {
	lat    time.Duration // the op's timed part
	status int
	err    error
}

// loop is a closed-loop measurement phase: each client sends its next
// op only when its previous one completed. It runs for at least dur and
// at least minOps ops, never more than maxOps, and gives up starting new
// ops after maxWall. afterOp, when set, runs after every op with the
// number of ops completed so far.
type loop struct {
	lat       []time.Duration
	attempted int
	failed    int
	wrong     int
	wall      time.Duration
	sumLat    time.Duration
	firstErr  error
}

const maxWall = 120 * time.Second

func closedLoop(clients int, dur time.Duration, minOps, maxOps int, afterOp func(n int), op func(i int) opResult) *loop {
	var (
		mu   sync.Mutex
		next atomic.Int64
		done atomic.Int64
		wg   sync.WaitGroup
		l    loop
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				el := time.Since(start)
				if (el >= dur && int(done.Load()) >= minOps) || el >= maxWall {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= maxOps {
					return
				}
				r := op(i)
				if n := int(done.Add(1)); afterOp != nil {
					afterOp(n)
				}
				mu.Lock()
				l.attempted++
				switch r.status {
				case opOK:
				case opWrong:
					l.wrong++
					l.failed++
				default:
					l.failed++
				}
				if r.err != nil && l.firstErr == nil {
					l.firstErr = fmt.Errorf("op %d: %w", i, r.err)
				}
				if r.status != opFailed {
					l.lat = append(l.lat, r.lat)
					l.sumLat += r.lat
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	l.wall = time.Since(start)
	return &l
}

// absorb folds a measurement phase into the outcome. Single-client
// phases count the ops' own time (checks between ops excluded); with
// several clients the ops overlap, so the phase's wall time counts.
func (o *outcome) absorb(l *loop, clients int) {
	o.attempted += l.attempted
	o.failed += l.failed
	o.wrong += l.wrong
	o.lat = append(o.lat, l.lat...)
	if clients == 1 {
		o.timed += l.sumLat
	} else {
		o.timed += l.wall
	}
	if l.firstErr != nil {
		o.problem("%v", l.firstErr)
	}
}

// phases runs the measurement: one phase when untraced; when traced, an
// untraced half then a traced half, so the tracing overhead can be
// reported. Only the traced half's ops feed the per-layer numbers.
// afterOp, when set, runs after every op of an untraced run.
func phases(cfg config, o *outcome, clients, maxOps int, afterOp func(n int), op func(i int, tr *tracer) opResult) {
	dur := time.Duration(cfg.seconds * float64(time.Second))
	var base int64
	run := func(d time.Duration, tr *tracer, minOps int) *loop {
		offset := int(atomic.LoadInt64(&base))
		hook := afterOp
		if cfg.trace {
			hook = nil
		}
		l := closedLoop(clients, d, minOps, maxOps-offset, hook, func(i int) opResult {
			return op(offset+i, tr)
		})
		atomic.AddInt64(&base, int64(l.attempted))
		if cfg.progress != nil {
			cfg.progress("%s: %d ops in %.1fs (traced=%v)", cfg.workload, l.attempted, l.wall.Seconds(), tr != nil)
		}
		return l
	}
	if !cfg.trace {
		o.absorb(run(dur, nil, cfg.minOps), clients)
		return
	}
	// The traced run reports no p90, so its halves need fewer ops.
	untraced := run(dur/2, nil, cfg.minOps/4)
	o.untracedLat = untraced.lat
	o.tr = newTracer()
	traced := run(dur/2, o.tr, cfg.minOps/4)
	o.absorb(untraced, clients)
	o.lat = nil // the traced phase's latencies are the traced op latency
	o.absorb(traced, clients)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func latMS(lat []time.Duration) []float64 {
	xs := make([]float64, len(lat))
	for i, d := range lat {
		xs[i] = ms(d)
	}
	sort.Float64s(xs)
	return xs
}

// endToEnd assembles the end-to-end metrics of an untraced run.
func endToEnd(o *outcome) map[string]metric {
	xs := latMS(o.lat)
	ok := o.attempted - o.failed
	m := map[string]metric{
		"setup_s":           {median(o.setup), "s"},
		"ops_per_s":         {float64(ok) / o.timed.Seconds(), "ops/s"},
		"op_p50_ms":         {quantile(xs, 0.5), "ms"},
		"op_p90_ms":         {quantile(xs, 0.9), "ms"},
		"peak_rss_mb":       {o.rssMB, "MB"},
		"settle_fraction":   {median(o.settle), "ratio"},
		"code_growth_pct":   {median(o.growth), "%"},
		"step_overhead_pct": {median(o.overhead), "%"},
	}
	return m
}

func main() {
	var cfg config
	var traceN int
	spread := flag.Bool("spread", false, "run every workload repeatedly and report each end-to-end metric's spread against its bound")
	runs := flag.Int("runs", 10, "with -spread: runs per workload, each with its own seed")
	only := flag.String("workloads", "", "with -spread: comma-separated workloads (default all)")
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measurement time per run")
	flag.IntVar(&traceN, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.pathmark, "pathmark", "", "the pathmark binary (built by run.sh)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory for job roots and replays")
	flag.Parse()
	cfg.trace = traceN == 1
	// At least 100 ops, so that at least 10 lie beyond the p90.
	cfg.minOps = 100
	cfg.setups = 3
	cfg.progress = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}

	if *spread {
		if err := spreadReport(cfg, "BENCHMARK.json", *runs, *only); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	run, ok := workloadRuns[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if cfg.pathmark != "" {
		abs, err := filepath.Abs(cfg.pathmark)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		cfg.pathmark = abs
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep := report{
		Correct:   len(o.problems) == 0 && o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
	}
	if cfg.trace {
		rep.Metrics = perLayer(o)
		printLayerTable(os.Stderr, o, rep.Metrics)
	} else {
		rep.Metrics = endToEnd(o)
	}
	summarize(cfg, o, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// summarize prints the human-readable lines: error rate, sample counts
// and every problem found.
func summarize(cfg config, o *outcome, rep report) {
	errRate := 0.0
	if o.attempted > 0 {
		errRate = float64(o.failed) / float64(o.attempted)
	}
	xs := latMS(o.lat)
	beyond := 0
	p90 := quantile(xs, 0.9)
	for _, x := range xs {
		if x > p90 {
			beyond++
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%v: attempted=%d failed=%d wrong=%d error_rate=%.4f ratio, latency samples=%d (%d beyond p90)\n",
		cfg.workload, cfg.seed, cfg.trace, o.attempted, o.failed, o.wrong, errRate, len(xs), beyond)
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	if !cfg.trace {
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "perfbench:   %-20s %12.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
		}
	}
}
