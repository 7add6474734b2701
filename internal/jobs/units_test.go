package jobs

import (
	"errors"
	"fmt"
	"testing"

	"pathmark/internal/obs"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
)

// TestTraceUnitRule pins how corpus grading shares traces: one tracing
// run per distinct (program digest, input), so a suspect listed twice
// and keys sharing an input share one, in RecognizeCorpus and in a
// journaled job, at workers 1 and 4, with every cell equal to a
// standalone RecognizeWithOpts. A suspect whose trace faults costs one
// trace per input across its keys' first attempts, not one per key.
func TestTraceUnitRule(t *testing.T) {
	fix, keys, _ := fixture(t)
	faulty, err := vm.Assemble("statics 0\nentry main\nmethod main 0 0\n  const 1\n  const 0\n  div\n  ret\n")
	if err != nil {
		t.Fatal(err)
	}
	suspects := []*vm.Program{fix[0], fix[1], fix[0], faulty}
	// Programs fix[0], fix[1] and faulty, inputs nil (keys 0 and 1) and
	// {5, 6} (key 2): 6 traces for 12 cells.
	const wantTraces = 6

	check := func(leg string, res *wm.CorpusResult) {
		t.Helper()
		if res.Traces != wantTraces {
			t.Errorf("%s: %d traces, want %d", leg, res.Traces, wantTraces)
		}
		for s, p := range suspects {
			for k, key := range keys {
				want, wantErr := wm.RecognizeWithOpts(p, key, wm.RecognizeOpts{Workers: 1})
				got, gotErr := res.Recognitions[s][k], res.Errors[s][k]
				if !sameRec(got, want) || (gotErr == nil) != (wantErr == nil) {
					t.Errorf("%s: cell (%d,%d) = (%v, %v), standalone (%v, %v)", leg, s, k, got, gotErr, want, wantErr)
				}
				var re *vm.RuntimeError
				if s == 3 && !errors.As(gotErr, &re) {
					t.Errorf("%s: faulty cell (3,%d) error %v, want a vm.RuntimeError", leg, k, gotErr)
				}
			}
		}
	}

	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		res, err := wm.RecognizeCorpus(suspects, keys, wm.CorpusOpts{Workers: workers, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("corpus workers=%d", workers), res)
		if n := reg.Counter("recognize.corpus.traces").Value(); n != wantTraces {
			t.Errorf("corpus workers=%d: recognize.corpus.traces = %d, want %d", workers, n, wantTraces)
		}

		spec := Spec{Suspects: suspects, Keys: keys, Opts: Options{
			Workers: workers, NoSync: true, Retry: RetryPolicy{MaxAttempts: 1},
		}}
		job := mustExecute(t, t.TempDir(), spec)
		check(fmt.Sprintf("job workers=%d", workers), job.Corpus)
		if job.Failed != len(keys) {
			t.Errorf("job workers=%d: %d failed grades, want %d (the faulty suspect's)", workers, job.Failed, len(keys))
		}
	}
}
