package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pathmark/internal/cache"
	"pathmark/internal/obs"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
)

func transientErr() error {
	return &wm.StageError{Stage: "trace", Worker: -1,
		Cause: &vm.ResourceError{Resource: "steps", Limit: 10, Used: 10, Cause: vm.ErrStepLimit}}
}

// TestRetryTransientFaultRecovers: a grade that fails its first attempts
// with a retryable error and then succeeds ends up clean — and the
// manifest is byte-identical to a run that never faulted, because
// attempt counts are journal-only bookkeeping.
func TestRetryTransientFaultRecovers(t *testing.T) {
	cleanBytes := mustEncode(t, mustExecute(t, t.TempDir(), baseSpec(t)))

	reg := obs.NewRegistry()
	spec := baseSpec(t)
	spec.Opts.Obs = reg
	spec.Opts.Retry = RetryPolicy{MaxAttempts: 3}
	spec.Opts.gradeHook = func(s, k, attempt int) error {
		if s == 0 && k == 0 && attempt < 3 {
			return transientErr()
		}
		return nil
	}
	res := mustExecute(t, t.TempDir(), spec)

	if res.Attempts[0][0] != 3 {
		t.Errorf("Attempts[0][0] = %d, want 3", res.Attempts[0][0])
	}
	if res.Corpus.Recognitions[0][0] == nil || res.Corpus.Errors[0][0] != nil {
		t.Errorf("transient fault not cleared: rec=%v err=%v",
			res.Corpus.Recognitions[0][0], res.Corpus.Errors[0][0])
	}
	if retries := reg.Counter("jobs.retries").Value(); retries != 2 {
		t.Errorf("jobs.retries = %d, want 2", retries)
	}
	if got := mustEncode(t, res); !bytes.Equal(got, cleanBytes) {
		t.Error("recovered run's manifest differs from a never-faulted run")
	}
}

// TestRetryExhaustion: a persistently failing grade stops at MaxAttempts
// and records the final failure.
func TestRetryExhaustion(t *testing.T) {
	reg := obs.NewRegistry()
	spec := baseSpec(t)
	spec.Opts.Obs = reg
	spec.Opts.Retry = RetryPolicy{MaxAttempts: 4}
	spec.Opts.Breaker = BreakerPolicy{Threshold: -1}
	spec.Opts.gradeHook = func(s, k, attempt int) error {
		if s == 0 && k == 0 {
			return transientErr()
		}
		return nil
	}
	res := mustExecute(t, t.TempDir(), spec)
	if res.Attempts[0][0] != 4 {
		t.Errorf("Attempts[0][0] = %d, want 4", res.Attempts[0][0])
	}
	if !errors.Is(res.Corpus.Errors[0][0], vm.ErrStepLimit) {
		t.Errorf("final failure lost its typed cause: %v", res.Corpus.Errors[0][0])
	}
	if res.Failed != 1 {
		t.Errorf("Failed = %d, want 1", res.Failed)
	}
	if retries := reg.Counter("jobs.retries").Value(); retries != 3 {
		t.Errorf("jobs.retries = %d, want 3", retries)
	}
}

// TestTerminalErrorsNotRetried: key-file damage and unknown errors are
// terminal — one attempt, no retries.
func TestTerminalErrorsNotRetried(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"key file error", &wm.KeyFileError{Field: "primes", Offset: 3, Msg: "invalid basis"}},
		{"wrapped key file error", fmt.Errorf("layer: %w", &wm.KeyFileError{Offset: -1, Msg: "truncated"})},
		{"unknown error", errors.New("some unclassified explosion")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			spec := baseSpec(t)
			spec.Opts.Obs = reg
			spec.Opts.Retry = RetryPolicy{MaxAttempts: 5}
			spec.Opts.Breaker = BreakerPolicy{Threshold: -1}
			spec.Opts.gradeHook = func(s, k, attempt int) error {
				if s == 1 && k == 2 {
					return tc.err
				}
				return nil
			}
			res := mustExecute(t, t.TempDir(), spec)
			if res.Attempts[1][2] != 1 {
				t.Errorf("Attempts[1][2] = %d, want 1 (terminal errors must not retry)", res.Attempts[1][2])
			}
			if retries := reg.Counter("jobs.retries").Value(); retries != 0 {
				t.Errorf("jobs.retries = %d, want 0", retries)
			}
		})
	}
}

// TestRetryRetracesRealFailures drives a real resource failure (no
// hook): with StepLimit 1 every trace dies, and each retry must actually
// retrace — the cached failure is forgotten first — rather than replay
// the memo. Trace-cache misses prove it.
func TestRetryRetracesRealFailures(t *testing.T) {
	spec := baseSpec(t)
	spec.Opts.StepLimit = 1
	spec.Opts.Workers = 1
	spec.Opts.Retry = RetryPolicy{MaxAttempts: 2}
	spec.Opts.Breaker = BreakerPolicy{Threshold: -1}
	res := mustExecute(t, t.TempDir(), spec)

	total := res.Suspects * res.Keys
	if res.Failed != total {
		t.Fatalf("Failed = %d, want %d (every trace is starved)", res.Failed, total)
	}
	for s := 0; s < res.Suspects; s++ {
		for k := 0; k < res.Keys; k++ {
			if res.Attempts[s][k] != 2 {
				t.Errorf("Attempts[%d][%d] = %d, want 2", s, k, res.Attempts[s][k])
			}
			if !errors.Is(res.Corpus.Errors[s][k], vm.ErrStepLimit) {
				t.Errorf("cell (%d,%d): lost typed cause: %v", s, k, res.Corpus.Errors[s][k])
			}
		}
	}
	// Without ForgetTrace, misses would stop at the distinct (suspect,
	// input) count; with it, every retry is a fresh trace. Exact count:
	// each grade's final attempt recomputes (first attempts may hit the
	// previous grade's memoized failure), so misses >= total.
	if misses := res.Corpus.TraceStats.Misses; misses < int64(total) {
		t.Errorf("trace misses = %d for %d grades with retries — retries replayed the memoized failure", misses, total)
	}
}

func TestRetryableClassification(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("a: %w", fmt.Errorf("b: %w", err)) }
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"stage error", &wm.StageError{Stage: "scan", Worker: 1, Cause: errors.New("x")}, true},
		{"resource error", &vm.ResourceError{Resource: "heap", Limit: 1, Used: 2, Cause: vm.ErrHeapLimit}, true},
		{"wrapped stage+resource", wrap(transientErr()), true},
		{"key file error", &wm.KeyFileError{Msg: "bad"}, false},
		{"key file inside stage error", &wm.StageError{Stage: "trace", Worker: -1, Cause: &wm.KeyFileError{Msg: "bad"}}, false},
		{"plain error", errors.New("nope"), false},
		{"wrapped plain error", wrap(errors.New("nope")), false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("%s: Retryable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestBackoffDeterministic: the jittered backoff is a pure function of
// (policy, job, cell, attempt), grows exponentially, and respects the
// 32×BaseDelay cap and the ±25% jitter band.
func TestBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond}
	const maxDelay = 32 * 100 * time.Millisecond
	job := cache.DigestBytes([]byte("job"))

	var prevLo time.Duration
	for attempt := 1; attempt <= 8; attempt++ {
		d1 := p.backoff(job, 2, 3, attempt)
		d2 := p.backoff(job, 2, 3, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, d1, d2)
		}
		base := p.BaseDelay << uint(attempt-1)
		if base > maxDelay {
			base = maxDelay
		}
		lo, hi := base-base/4, base+base/4
		if d1 < lo || d1 > hi {
			t.Errorf("attempt %d: backoff %v outside jitter band [%v, %v]", attempt, d1, lo, hi)
		}
		if lo < prevLo {
			t.Errorf("attempt %d: backoff band shrank", attempt)
		}
		prevLo = lo
	}
	if d := p.backoff(job, 2, 3, 60); d < maxDelay-maxDelay/4 || d > maxDelay+maxDelay/4 {
		t.Errorf("attempt 60: backoff %v escaped the 32×BaseDelay cap", d)
	}
	if d := p.backoff(job, 0, 0, 1); d == p.backoff(job, 0, 1, 1) && d == p.backoff(job, 1, 0, 1) {
		t.Error("jitter identical across cells — hash is ignoring coordinates")
	}
	if (RetryPolicy{}).backoff(job, 0, 0, 1) != 0 {
		t.Error("zero BaseDelay must not sleep")
	}
}

// TestRetryDoInterrupted: a context that ends during the backoff sleep
// ends the loop at once, reported as an interruption (the caller leaves
// the work unsettled), not as a failure after a further attempt.
func TestRetryDoInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Hour}
	calls := 0
	n, interrupted, err := p.Do(ctx, cache.Digest{}, 0, 0,
		func(int) error { calls++; return transientErr() },
		func(int, error) { cancel() })
	if !interrupted || err == nil || n != 1 || calls != 1 {
		t.Fatalf("Do = (%d, %v, %v) after %d calls; want (1, true, non-nil) after 1", n, interrupted, err, calls)
	}
}

// TestGradeTimeout: a per-grade deadline turns a hung grade into a
// retryable failure instead of wedging the job.
func TestGradeTimeout(t *testing.T) {
	spec := baseSpec(t)
	spec.Opts.Workers = 1
	spec.Opts.Retry = RetryPolicy{MaxAttempts: 1}
	spec.Opts.Breaker = BreakerPolicy{Threshold: -1}
	spec.Opts.GradeTimeout = time.Nanosecond
	res, err := Execute(context.Background(), t.TempDir(), spec)
	if err != nil {
		t.Fatalf("Execute: %v (per-grade timeouts must not abort the job)", err)
	}
	if res.Failed != res.Suspects*res.Keys {
		t.Errorf("Failed = %d, want all %d", res.Failed, res.Suspects*res.Keys)
	}
	cellErr := res.Corpus.Errors[0][0]
	if !errors.Is(cellErr, context.DeadlineExceeded) {
		t.Errorf("timed-out grade: want DeadlineExceeded in chain, got %v", cellErr)
	}
	if !Retryable(cellErr) {
		t.Errorf("timed-out grade not classified retryable: %v", cellErr)
	}
}
