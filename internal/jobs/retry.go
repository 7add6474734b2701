package jobs

import (
	"context"
	"encoding/binary"
	"errors"
	"time"

	"pathmark/internal/cache"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
)

// RetryPolicy bounds how hard the runner works to complete one grade.
// Failures split three ways at the retry boundary:
//
//   - retryable: pipeline-stage failures (*wm.StageError) and resource
//     exhaustion (*vm.ResourceError) — a slow trace hitting a per-grade
//     deadline, a scan worker lost to a fault. Deterministic cases (a
//     genuine step-limit overrun) retry to the same outcome, which the
//     bounded attempt count makes cheap and the journal makes harmless.
//   - terminal: malformed inputs (*wm.KeyFileError) and anything
//     untyped — retrying cannot fix a bad key.
//   - interruption: the job's own context is done. Not a failure at all:
//     the grade is not journaled and re-runs on resume.
type RetryPolicy struct {
	// MaxAttempts is the total tries per grade (first attempt included);
	// <= 0 means DefaultMaxAttempts.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; attempt n
	// waits BaseDelay·2^(n-2), capped at 32×BaseDelay and jittered ±25%.
	// 0 disables sleeping (the retries still happen, back to back).
	BaseDelay time.Duration
}

// DefaultMaxAttempts is the per-grade attempt bound when the policy does
// not set one.
const DefaultMaxAttempts = 3

// maxBackoffFactor caps the exponential backoff at this many BaseDelays.
const maxBackoffFactor = 32

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return p.MaxAttempts
}

// backoff returns the pause before attempt+1, with deterministic jitter:
// the ±25% spread is drawn from a hash of (id, a, b, attempt), so two
// runs of the same job or campaign jitter identically — retry timing,
// like everything else here, replays.
func (p RetryPolicy) backoff(id cache.Digest, a, b, attempt int) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	d := p.BaseDelay << uint(attempt-1)
	max := maxBackoffFactor * p.BaseDelay
	if d > max || d <= 0 { // d <= 0 guards shift overflow
		d = max
	}
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(a))
	binary.LittleEndian.PutUint64(buf[8:], uint64(b))
	binary.LittleEndian.PutUint64(buf[16:], uint64(attempt))
	h := cache.DigestBytes(id[:], buf[:])
	r := binary.LittleEndian.Uint64(h[:8])
	// jitter in [-25%, +25%): d/2 wide, centered on d.
	return d - d/4 + time.Duration(r%uint64(d/2+1))
}

// Do is the one retry loop of every engine layered on the jobs tier
// (corpus grades, tournament cells). It calls attempt with attempt
// numbers 1, 2, … until one returns nil, one fails terminally (not
// Retryable), or the policy's attempt bound is spent. Before each retry
// it calls onRetry with the failed attempt's number and error, then
// sleeps the backoff drawn for (id, a, b, attempt). It returns the number
// of attempts made and the last attempt's error. interrupted reports
// that ctx ended with the work unfinished: the caller leaves the work
// unsettled, to re-run on resume, instead of recording the failure.
func (p RetryPolicy) Do(ctx context.Context, id cache.Digest, a, b int,
	attempt func(n int) error, onRetry func(n int, err error)) (n int, interrupted bool, err error) {
	done := func() bool { return ctx != nil && ctx.Err() != nil }
	for n = 1; ; n++ {
		if err = attempt(n); err == nil {
			return n, false, nil
		}
		if done() {
			return n, true, err
		}
		if n >= p.attempts() || !Retryable(err) {
			return n, false, err
		}
		onRetry(n, err)
		sleepCtx(ctx, p.backoff(id, a, b, n))
		if done() {
			return n, true, err
		}
	}
}

// Retryable classifies an error from one grade attempt: true for the
// transient-capable typed failures (stage and resource errors), false
// for terminal ones (key-file damage, unknown errors). Classification is
// errors.Is/As-based, so it survives any number of %w wrapping layers.
func Retryable(err error) bool {
	var kfe *wm.KeyFileError
	if errors.As(err, &kfe) {
		return false
	}
	var re *vm.ResourceError
	var se *wm.StageError
	return errors.As(err, &re) || errors.As(err, &se)
}

// sleepCtx pauses for d unless ctx finishes first.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	if ctx == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
