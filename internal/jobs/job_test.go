package jobs

import (
	"bytes"
	"context"
	"errors"
	"os"
	"sync/atomic"
	"testing"

	"pathmark/internal/iofault"
	"pathmark/internal/obs"
	"pathmark/internal/wm"
)

// abortAt runs the job in dir, cancelling the run once n grades have
// been journaled — the in-process stand-in for kill -9 at a checkpoint
// (the on-disk state is the same: a journal with >= n records and no
// result manifest). Returns the number of grades journaled at exit.
func abortAt(t *testing.T, dir string, spec Spec, n int) int {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec.Opts.OnEvent = func(ev GradeEvent) {
		if ev.Completed >= n {
			cancel()
		}
	}
	j, err := Open(dir, spec)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	if _, err := j.Run(ctx); err == nil {
		t.Fatal("aborted run reported success")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted run: want context.Canceled in chain, got %v", err)
	}
	done, _ := j.Progress()
	return done
}

// TestGradeEventCompletedOnResume: GradeEvent.Completed counts journaled
// grades, restored plus new, so the first event of a resumed job carries
// restored+1 and every later one counts up to the whole matrix.
func TestGradeEventCompletedOnResume(t *testing.T) {
	dir := t.TempDir()
	spec := baseSpec(t)
	spec.Opts.Workers = 1
	restored := abortAt(t, dir, spec, 3)

	var got []int
	spec = baseSpec(t)
	spec.Opts.Workers = 1
	spec.Opts.OnEvent = func(ev GradeEvent) { got = append(got, ev.Completed) }
	res := mustExecute(t, dir, spec)
	if res.Reused != restored {
		t.Fatalf("resume restored %d grades, the aborted run journaled %d", res.Reused, restored)
	}
	total := res.Suspects * res.Keys
	if len(got) != total-restored {
		t.Fatalf("%d events on resume, want %d", len(got), total-restored)
	}
	for i, c := range got {
		if c != restored+1+i {
			t.Fatalf("event %d: Completed = %d, want %d (restored %d + %d new)", i, c, restored+1+i, restored, i+1)
		}
	}
}

// TestJobResumeAfterCompletion: re-running a finished job executes
// nothing and reproduces the manifest.
func TestJobResumeAfterCompletion(t *testing.T) {
	dir := t.TempDir()
	refBytes := mustEncode(t, mustExecute(t, dir, baseSpec(t)))

	reg := obs.NewRegistry()
	spec := baseSpec(t)
	spec.Opts.Obs = reg
	res, err := Execute(context.Background(), dir, spec)
	if err != nil {
		t.Fatalf("re-run: %v", err)
	}
	if got := mustEncode(t, res); !bytes.Equal(got, refBytes) {
		t.Error("re-run of finished job changed the manifest")
	}
	if ran := reg.Counter("jobs.grades.run").Value(); ran != 0 {
		t.Errorf("re-run executed %d grades, want 0", ran)
	}
	if res.Corpus.Traces != 0 {
		t.Errorf("re-run ran %d traces, want 0", res.Corpus.Traces)
	}
}

// TestRunHaltsOnJournalFailure: a failed journal fsync stops every grade
// worker, not only the one whose settle hit it. Syncs #0-#2 commit the
// header and two grades; the third grade's sync fails, after which at
// most the grades already running on the other workers may still settle.
func TestRunHaltsOnJournalFailure(t *testing.T) {
	const workers = 4
	spec := baseSpec(t)
	spec.Opts.NoSync = false
	spec.Opts.Workers = workers
	spec.Opts.FS = iofault.NewFaultFS(iofault.OS, []iofault.Fault{
		{Op: iofault.OpSync, Kind: iofault.KindSyncFail, After: 3, Path: "journal"},
	})
	var settled atomic.Int64
	spec.Opts.OnEvent = func(GradeEvent) { settled.Add(1) }
	if _, err := Execute(context.Background(), t.TempDir(), spec); err == nil {
		t.Fatal("run survived a journal fsync failure")
	}
	if n := settled.Load(); n > 2+(workers-1) {
		t.Fatalf("%d grades settled, want at most %d: workers kept grading after the journal failed",
			n, 2+(workers-1))
	}
}

// TestJournalMismatchRefused: resuming over a journal written by a
// different spec fails with the typed error rather than mixing results,
// and writes nothing: the identity check runs before the torn tail is
// truncated, so the other job's journal stays byte-identical.
func TestJournalMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	mustExecute(t, dir, baseSpec(t))
	path := JournalPath(dir)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"type":"grade","s":`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Different result-affecting option -> different job digest.
	other := baseSpec(t)
	other.Opts.StepLimit = 12345
	if _, err := Open(dir, other); !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("step-limit change: got %v, want ErrJournalMismatch", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("refused open rewrote the journal: %d bytes before, %d after (err %v)", len(before), len(after), err)
	}

	// Different key set.
	fewer := baseSpec(t)
	fewer.Keys = fewer.Keys[:2]
	if _, err := Open(dir, fewer); !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("key-set change: got %v, want ErrJournalMismatch", err)
	}

	// Scheduling knobs are NOT part of the identity: same job, different
	// workers resumes fine.
	sched := baseSpec(t)
	sched.Opts.Workers = 7
	j, err := Open(dir, sched)
	if err != nil {
		t.Errorf("worker-count change refused: %v", err)
	} else {
		j.Close()
	}
}

// TestJobBreaker drives the circuit breaker with an injected poisoned
// key: after Threshold consecutive hard failures (in suspect order,
// evaluated at wave boundaries) the key's remaining grades are recorded
// as typed skips — deterministically at any worker count, and stably
// across crash/resume.
func TestJobBreaker(t *testing.T) {
	poison := func(s, k, attempt int) error {
		if k == 1 {
			return &wm.StageError{Stage: "trace", Worker: -1, Cause: errors.New("injected poison")}
		}
		return nil
	}
	mkSpec := func(workers int) Spec {
		spec := baseSpec(t)
		spec.Opts.Workers = workers
		spec.Opts.Retry = RetryPolicy{MaxAttempts: 1}
		spec.Opts.Breaker = BreakerPolicy{Threshold: 2, Wave: 2}
		spec.Opts.gradeHook = poison
		return spec
	}

	reg := obs.NewRegistry()
	spec := mkSpec(1)
	spec.Opts.Obs = reg
	res := mustExecute(t, t.TempDir(), spec)
	refBytes := mustEncode(t, res)

	// Waves of 2 suspects: suspects 0-1 fail key 1 (threshold reached),
	// so suspects 2..5 skip it — 4 skips, 2 hard failures.
	skips := 0
	for s := 0; s < res.Suspects; s++ {
		for k := 0; k < res.Keys; k++ {
			if res.Skipped[s][k] {
				skips++
				var boe *BreakerOpenError
				if !errors.As(res.Corpus.Errors[s][k], &boe) || boe.Key != 1 {
					t.Errorf("skip (%d,%d): want BreakerOpenError for key 1, got %v", s, k, res.Corpus.Errors[s][k])
				}
				if s < 2 || k != 1 {
					t.Errorf("unexpected skip at (%d,%d)", s, k)
				}
			}
		}
	}
	if skips != 4 {
		t.Errorf("got %d skips, want 4", skips)
	}
	if res.Corpus.Recognitions[0][1] != nil || res.Corpus.Errors[0][1] == nil {
		t.Error("poisoned grades before the trip must record their hard failure")
	}
	if trips := reg.Counter("jobs.breaker.trips").Value(); trips != 1 {
		t.Errorf("jobs.breaker.trips = %d, want 1", trips)
	}
	if skipped := reg.Counter("jobs.grades.skipped").Value(); skipped != 4 {
		t.Errorf("jobs.grades.skipped = %d, want 4", skipped)
	}

	// Deterministic at other worker counts.
	if b := mustEncode(t, mustExecute(t, t.TempDir(), mkSpec(4))); !bytes.Equal(b, refBytes) {
		t.Error("breaker outcome differs at workers=4")
	}

	// And across crash/resume: abort mid-run, resume, same bytes.
	dir := t.TempDir()
	abortAt(t, dir, mkSpec(2), 5)
	resumed, err := Execute(context.Background(), dir, mkSpec(3))
	if err != nil {
		t.Fatalf("resume with breaker: %v", err)
	}
	if b := mustEncode(t, resumed); !bytes.Equal(b, refBytes) {
		t.Error("breaker outcome differs after crash/resume")
	}
}

// TestBreakerDisabled: Threshold < 0 turns the breaker off — every grade
// runs, even against a fully poisoned key.
func TestBreakerDisabled(t *testing.T) {
	spec := baseSpec(t)
	spec.Opts.Retry = RetryPolicy{MaxAttempts: 1}
	spec.Opts.Breaker = BreakerPolicy{Threshold: -1, Wave: 2}
	spec.Opts.gradeHook = func(s, k, attempt int) error {
		if k == 1 {
			return &wm.StageError{Stage: "trace", Worker: -1, Cause: errors.New("injected poison")}
		}
		return nil
	}
	res := mustExecute(t, t.TempDir(), spec)
	for s := 0; s < res.Suspects; s++ {
		if res.Skipped[s][1] {
			t.Fatalf("disabled breaker still skipped (%d,1)", s)
		}
		if res.Corpus.Errors[s][1] == nil {
			t.Fatalf("poisoned grade (%d,1) lost its failure", s)
		}
	}
	if res.Failed != res.Suspects {
		t.Errorf("Failed = %d, want %d", res.Failed, res.Suspects)
	}
}

func TestOpenValidation(t *testing.T) {
	suspects, keys, _ := fixture(t)
	if _, err := Open(t.TempDir(), Spec{Keys: keys}); err == nil {
		t.Error("no suspects accepted")
	}
	if _, err := Open(t.TempDir(), Spec{Suspects: suspects}); err == nil {
		t.Error("no keys accepted")
	}
}

// TestOpenReusesSpecDigests: once a spec's ID has been taken, Open of
// that spec (as the daemon's runner gets it, by value) reuses the kept
// per-suspect digests instead of digesting the suspects again, and
// yields the ID SpecID computes anew.
func TestOpenReusesSpecDigests(t *testing.T) {
	spec := baseSpec(t)
	want, err := SpecID(spec)
	if err != nil {
		t.Fatal(err)
	}
	id, err := spec.ID()
	if err != nil || id != want {
		t.Fatalf("ID = %s, %v; want SpecID's %s", id, err, want)
	}
	j, err := Open(t.TempDir(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.ID() != want {
		t.Errorf("Open ID = %s, want %s", j.ID(), want)
	}
	if len(j.spec.progDigests) != len(spec.Suspects) || &j.spec.progDigests[0] != &spec.progDigests[0] {
		t.Error("Open digested the suspects again instead of reusing the spec's digests")
	}
}

// TestSpecIDsPinned pins job identity: the corpus and stream job IDs of
// fixed specs must never drift, or every persisted job directory,
// journal header and daemon resume would be orphaned. The filter stack
// is no longer an option, but its six DefaultFilters ints stay in both
// digests (tags pathmark.job.v2 / pathmark.stream.v1) to keep these
// values.
func TestSpecIDsPinned(t *testing.T) {
	suspects, keys, _ := fixture(t)
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Spec{Suspects: suspects, Keys: keys},
			"05cf9e816cadfc06be7606e2178a9d5ddabedb47f3769df49d027dc0b6fac59f"},
		{Spec{Suspects: suspects[:2], Keys: keys[:1], Opts: Options{
			StepLimit: 5_000_000, MaxHeap: 1 << 20, Workers: 3}},
			"d4af670a35d34cb5a3efdb23730b6ad64ed15ae72001a287861ad27a0cafd5a9"},
	} {
		if got, err := SpecID(c.spec); err != nil || got != c.want {
			t.Errorf("SpecID = %s, %v; want %s", got, err, c.want)
		}
	}
	for _, c := range []struct {
		spec StreamSpec
		want string
	}{
		{StreamSpec{Keys: keys},
			"ce717296e374bb1f8dba587eeffc3b8e46ec4b1e26110318c99ee58010df1346"},
		{StreamSpec{Keys: keys[:1], Opts: StreamOptions{
			CheckEvery: 1024, SettleChecks: 2, MinConfidence: 0.5, Workers: 3}},
			"9be68186d400d10727bbacf17a6c8eadb7043393ba06300368d0f8cd86c23474"},
	} {
		if got, err := StreamSpecID(c.spec); err != nil || got != c.want {
			t.Errorf("StreamSpecID = %s, %v; want %s", got, err, c.want)
		}
	}
}
