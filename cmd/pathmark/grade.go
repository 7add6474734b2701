package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"pathmark/internal/jobs"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
)

// cmdFleetGrade grades a corpus of suspects against the fleet key with
// the journaled jobs engine: every finished (suspect, key) grade is
// fsynced to -job/journal.jsonl before it counts, so a crash — power
// loss, OOM kill, `-crash-after` in the CI smoke test — loses at most
// the in-flight grades. Re-running the identical invocation resumes
// from the journal and produces a result.json byte-identical to an
// uninterrupted run.
//
// Exit codes: 0 at least one suspect identified, 3 the job completed
// but no suspect matched any customer, 2 manifest/usage problems, 1
// hard errors.
func cmdFleetGrade(args []string) int {
	fs := flag.NewFlagSet("fleet grade", flag.ExitOnError)
	var c common
	c.register(fs)
	manifest := fs.String("manifest", "", "fleet manifest (fleet.json) naming each customer's watermark")
	jobDir := fs.String("job", "", "job directory for the journal and result manifest (created if missing)")
	suspects := fs.String("suspects", "", "comma-separated suspect .pasm files (default: every copy in the manifest)")
	workers := fs.Int("workers", 0, "concurrent grades (0 = one per CPU; results identical at any count)")
	retries := fs.Int("retries", 0, "max attempts per grade for retryable faults (0 = default)")
	retryDelay := fs.Duration("retry-delay", 0, "base backoff between attempts (0 = none)")
	breaker := fs.Int("breaker", 0, "per-key circuit breaker: consecutive hard failures before skipping the key (0 = default, -1 = off)")
	wave := fs.Int("wave", 0, "suspects per breaker wave (0 = default)")
	gradeTimeout := fs.Duration("grade-timeout", 0, "deadline per grade attempt (0 = none)")
	crashAfter := fs.Int("crash-after", 0, "TESTING: exit the process abruptly after N grades are journaled")
	noVerify := fs.Bool("no-verify", false, "skip the manifest-vs-file program digest check")
	noSync := fs.Bool("no-sync", false, "skip the per-record fsync (faster, loses tail grades on a crash)")
	progress := fs.Bool("progress", false, "print grade progress to stderr as the job runs")
	traceDet := fs.Bool("trace-deterministic", false, "omit seq numbers and timestamps from trace.jsonl (sorted lines identical across worker counts)")
	fs.Parse(args)
	if *manifest == "" {
		fatal(fmt.Errorf("missing -manifest"))
	}
	if *jobDir == "" {
		fatal(fmt.Errorf("missing -job"))
	}
	reg := c.beginObs()
	man, ws, err := loadManifest(*manifest)
	if err != nil {
		return manifestExit(err)
	}

	// Resolve the suspect set: explicit files, or the manifest's own
	// copies (the self-audit mode CI uses). Manifest copies are digest-
	// checked against the manifest so a swapped or edited file cannot be
	// silently graded under another customer's name.
	var paths []string
	fromManifest := *suspects == ""
	if fromManifest {
		base := filepath.Dir(*manifest)
		for _, name := range man.Copies {
			paths = append(paths, filepath.Join(base, name))
		}
	} else {
		for _, p := range strings.Split(*suspects, ",") {
			if p = strings.TrimSpace(p); p != "" {
				paths = append(paths, p)
			}
		}
	}
	if len(paths) == 0 {
		fatal(fmt.Errorf("no suspects to grade"))
	}
	progs := make([]*vm.Program, len(paths))
	for i, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		p, err := vm.Assemble(string(src))
		if err != nil {
			fatal(fmt.Errorf("suspect %s: %w", path, err))
		}
		if fromManifest && !*noVerify {
			if err := verifyCopyDigest(man, *manifest, i, p); err != nil {
				return manifestExit(err)
			}
		}
		progs[i] = p
	}

	spec := jobs.Spec{
		Suspects: progs,
		Keys:     []*wm.Key{c.wmKey()},
		Opts: jobs.Options{
			Workers:            *workers,
			StepLimit:          c.maxSteps,
			GradeTimeout:       *gradeTimeout,
			Retry:              jobs.RetryPolicy{MaxAttempts: *retries, BaseDelay: *retryDelay},
			Breaker:            jobs.BreakerPolicy{Threshold: *breaker, Wave: *wave},
			Obs:                reg,
			NoSync:             *noSync,
			DeterministicTrace: *traceDet,
		},
	}
	// OnEvent is called from worker goroutines; the mutex serializes the
	// progress throttle state and keeps stderr lines whole. The crash
	// check runs first, so -crash-after still fires with -progress on.
	gradeTotal := len(progs) // one key per grade job
	var progMu sync.Mutex
	var last time.Time
	spec.Opts.OnEvent = func(ev jobs.GradeEvent) {
		if n := *crashAfter; n > 0 && ev.Completed >= n {
			// Deliberately abrupt — no flushes, no deferred cleanup — so
			// the CI smoke test exercises the same recovery path a kill -9
			// would. The journal record for grade N is already fsynced
			// when OnEvent fires.
			fmt.Fprintf(os.Stderr, "pathmark: -crash-after %d: simulating crash\n", n)
			os.Exit(exitError)
		}
		if !*progress {
			return
		}
		progMu.Lock()
		defer progMu.Unlock()
		if now := time.Now(); ev.Completed == gradeTotal || now.Sub(last) >= 200*time.Millisecond {
			last = now
			fmt.Fprintf(os.Stderr, "pathmark: graded %d/%d\n", ev.Completed, gradeTotal)
		}
	}

	ctx, cancel := c.ctx()
	defer cancel()
	t0 := time.Now()
	res, err := jobs.Execute(ctx, *jobDir, spec)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(t0)

	matched := 0
	for s, path := range paths {
		rec := res.Corpus.Recognitions[s][0]
		switch {
		case res.Skipped[s][0]:
			fmt.Printf("%-24s skipped: %v\n", filepath.Base(path), res.Corpus.Errors[s][0])
		case rec == nil:
			fmt.Printf("%-24s failed after %d attempts: %v\n",
				filepath.Base(path), res.Attempts[s][0], res.Corpus.Errors[s][0])
		default:
			who := "no customer matched"
			for i, w := range ws {
				if rec.Matches(w) {
					who = fmt.Sprintf("matches %s (copy %s)", man.customerName(i), man.Copies[i])
					matched++
					break
				}
			}
			fmt.Printf("%-24s %s\n", filepath.Base(path), who)
		}
	}
	total := res.Suspects * res.Keys
	fmt.Printf("graded %d/%d (%d resumed from journal, %d failed) in %v; result: %s\n",
		total-res.Reused, total, res.Reused, res.Failed,
		elapsed.Round(time.Millisecond), jobs.ResultPath(*jobDir))
	c.finishObs()
	if matched == 0 {
		return exitNoMatch
	}
	return exitOK
}
