package jobs

import (
	"bytes"
	"testing"
)

// TestSingleSuspectSharding pins the intra-suspect sharding contract:
// when a wave has fewer pending grades than pool workers, Run boosts the
// per-grade scan parallelism (workers / pending) — and that boost must
// be invisible in the output. A one-suspect, one-key job graded with a
// wide worker pool produces a result manifest byte-identical to the
// fully serial run.
func TestSingleSuspectSharding(t *testing.T) {
	suspects, keys, _ := fixture(t)
	spec := Spec{
		Suspects: suspects[:1],
		Keys:     keys[:1],
		Opts:     Options{NoSync: true, Workers: 1},
	}
	want := mustEncode(t, mustExecute(t, t.TempDir(), spec))
	for _, workers := range []int{4, 8} {
		spec.Opts.Workers = workers
		got := mustEncode(t, mustExecute(t, t.TempDir(), spec))
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: sharded manifest diverged from serial run", workers)
		}
	}
}

// TestShardingTailWave checks the boost in its natural habitat: a corpus
// whose final wave is smaller than the pool, so late grades run with
// boosted scan workers while early ones ran 1-wide. The full-corpus
// manifest must still match the serial one exactly.
func TestShardingTailWave(t *testing.T) {
	suspects, keys, _ := fixture(t)
	spec := Spec{
		// 3 suspects x 1 key with 8 workers: every wave is smaller than
		// the pool, so each grade gets a different boost factor.
		Suspects: suspects[:3],
		Keys:     keys[:1],
		Opts:     Options{NoSync: true, Workers: 1},
	}
	want := mustEncode(t, mustExecute(t, t.TempDir(), spec))
	spec.Opts.Workers = 8
	got := mustEncode(t, mustExecute(t, t.TempDir(), spec))
	if !bytes.Equal(got, want) {
		t.Error("tail-wave sharded manifest diverged from serial run")
	}
}
