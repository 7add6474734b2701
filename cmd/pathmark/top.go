package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"pathmark/internal/jobs"
	"pathmark/internal/obs"
)

// cmdTop tails a job's trace.jsonl event stream — from a job directory
// on disk or over HTTP from a serve daemon's GET /jobs/{id}/trace — and
// renders live throughput: grades and windows per second, the per-layer
// reject breakdown, and job progress. It is the
// operator's view of a running grade; the stream itself is append-only
// telemetry, so watching it perturbs nothing.
//
// It exits when the stream carries a job.done or stream.done event (the
// final frame is still rendered), after -n renders when given, or on
// interrupt.
func cmdTop(args []string) int {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	jobDir := fs.String("job", "", "job directory holding trace.jsonl")
	url := fs.String("url", "", "trace stream URL (a serve daemon's /jobs/{id}/trace)")
	interval := fs.Duration("interval", time.Second, "refresh interval")
	renders := fs.Int("n", 0, "exit after N renders (0 = until job.done)")
	fs.Parse(args)
	if (*jobDir == "") == (*url == "") {
		fatal(fmt.Errorf("need exactly one of -job DIR or -url URL"))
	}
	fetch := func() ([]byte, error) {
		if *jobDir != "" {
			return os.ReadFile(jobs.TracePath(*jobDir))
		}
		resp, err := http.Get(*url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %s", *url, resp.Status)
		}
		return io.ReadAll(resp.Body)
	}

	var prev topStats
	prevAt := time.Now()
	for tick := 1; ; tick++ {
		data, err := fetch()
		if err != nil {
			fatal(err)
		}
		st := aggregateTrace(obs.DecodeTraceEvents(data))
		now := time.Now()
		elapsed := now.Sub(prevAt)
		if tick == 1 {
			elapsed = 0 // no previous frame — rates would be nonsense
		}
		renderTop(os.Stdout, st, prev, elapsed)
		prev, prevAt = st, now
		if st.dones > 0 {
			return exitOK
		}
		if *renders > 0 && tick >= *renders {
			return exitOK
		}
		time.Sleep(*interval)
	}
}

// topStats is the rolled-up view of one trace stream.
type topStats struct {
	traceID string
	total   int64 // suspects*keys from the latest job.open, keys from stream.open
	resumed int64
	opens   int
	dones   int

	grades  int64 // settled grades seen in the stream (grade.done + grade.skipped)
	failed  int64
	skipped int64
	retries int64

	windows   int64
	decrypted int64
	valid     int64
	rej       [4]int64 // popcount, transitions, phase, framing
}

func aggregateTrace(evs []obs.TraceEvent) topStats {
	var st topStats
	for _, ev := range evs {
		if st.traceID == "" {
			st.traceID = ev.Trace
		}
		switch ev.Event {
		case "job.open":
			st.opens++
			st.total = ev.Attrs["suspects"] * ev.Attrs["keys"]
			st.resumed = ev.Attrs["resumed"]
		case "stream.open":
			// A stream job grades each key once, when the stream finishes.
			st.opens++
			st.total = ev.Attrs["keys"]
		case "job.done", "stream.done":
			st.dones++
		case "grade.done":
			st.grades++
			st.failed += ev.Attrs["failed"]
		case "grade.skipped":
			st.grades++
			st.skipped++
		case "grade.retry":
			st.retries++
		case "grade.scan":
			st.windows += ev.Attrs["windows"]
			st.decrypted += ev.Attrs["decrypted"]
			st.valid += ev.Attrs["valid"]
			st.rej[0] += ev.Attrs["reject_popcount"]
			st.rej[1] += ev.Attrs["reject_transitions"]
			st.rej[2] += ev.Attrs["reject_phase"]
			st.rej[3] += ev.Attrs["reject_framing"]
		}
	}
	// A resumed lifetime inherits journaled grades that re-emit nothing:
	// fold them into progress so 18/18 means done, not "events seen".
	st.grades += st.resumed
	return st
}

// renderTop writes one status frame. Rates come from the delta against
// the previous frame; the first frame (zero elapsed) shows totals only.
func renderTop(w io.Writer, st, prev topStats, elapsed time.Duration) {
	rate := func(cur, old int64) string {
		if elapsed <= 0 || cur < old {
			return "-"
		}
		return fmt.Sprintf("%.1f/s", float64(cur-old)/elapsed.Seconds())
	}
	pct := func(part int64) string {
		if st.windows == 0 {
			return "0.0%"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(st.windows))
	}
	status := "running"
	if st.dones > 0 {
		status = "done"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "job %s  %s  grades %d/%d (%d resumed, %d failed, %d skipped, %d retries)  %s\n",
		shortID(st.traceID), status, st.grades, st.total,
		st.resumed, st.failed, st.skipped, st.retries, rate(st.grades, prev.grades))
	fmt.Fprintf(&sb, "  scan: windows %d (%s)  decrypted %d  valid %d\n",
		st.windows, rate(st.windows, prev.windows), st.decrypted, st.valid)
	fmt.Fprintf(&sb, "  rejects: popcount %s  transitions %s  phase %s  framing %s\n",
		pct(st.rej[0]), pct(st.rej[1]), pct(st.rej[2]), pct(st.rej[3]))
	io.WriteString(w, sb.String())
}

func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	if id == "" {
		return "?"
	}
	return id
}
