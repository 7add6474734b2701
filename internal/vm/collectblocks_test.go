package vm_test

import (
	"fmt"
	"reflect"
	"testing"

	"pathmark/internal/feistel"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
)

// TestCollectBlocksMatchesCollectWith: on every dumpCorpus program, at
// snapshot limits 1 to 3 and under a step budget, the embedder's
// blocks-only run gives CollectWith's result, steps and error text, and
// records the same entry counts and snapshots in every block; its
// Events is the length of CollectWith's log.
func TestCollectBlocksMatchesCollectWith(t *testing.T) {
	for _, c := range dumpCorpus(t) {
		for _, opts := range []vm.RunOptions{
			{Input: equivInput},
			{Input: equivInput, SnapshotLimit: 1},
			{Input: equivInput, SnapshotLimit: 3},
			{Input: equivInput, StepLimit: 4097},
		} {
			name := fmt.Sprintf("%s/limit=%d/steps=%d", c.name, opts.SnapshotLimit, opts.StepLimit)
			tr, tres, terr := vm.CollectWith(c.prog, opts)
			blocks, bres, berr := vm.CollectBlocks(c.prog, opts)
			if fmt.Sprint(terr) != fmt.Sprint(berr) || !reflect.DeepEqual(tres, bres) {
				t.Errorf("%s: CollectBlocks gave %+v, %v; CollectWith %+v, %v", name, bres, berr, tres, terr)
				continue
			}
			if terr != nil {
				continue
			}
			want := tr.Blocks
			if len(blocks.Methods) != len(want.Methods) {
				t.Fatalf("%s: %d method parts, want %d", name, len(blocks.Methods), len(want.Methods))
			}
			for mi, m := range blocks.Methods {
				w := want.Methods[mi]
				if !reflect.DeepEqual(m.CFG, w.CFG) || !reflect.DeepEqual(m.Count, w.Count) {
					t.Errorf("%s: method %d counts %v, want %v", name, mi, m.Count, w.Count)
					continue
				}
				for bi := range m.Count {
					if got, want := m.Snapshots(bi), w.Snapshots(bi); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: method %d block %d snapshots %v, want %v", name, mi, bi, got, want)
					}
				}
			}
			if blocks.Events() != int64(len(tr.Events)) {
				t.Errorf("%s: %d events, CollectWith logged %d", name, blocks.Events(), len(tr.Events))
			}
		}
	}
}

// TestEmbedReportTraceEvents: an embedding reports as its trace events
// the length of the event log a vm.Collect of the host records on the
// key's input, as it did when the embedder logged them.
func TestEmbedReportTraceEvents(t *testing.T) {
	key, err := wm.NewKey(equivInput, feistel.KeyFromUint64(0x7ace, 0x0e7e), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range dumpCorpus(t) {
		_, report, err := wm.Embed(c.prog, wm.RandomWatermark(64, uint64(i)+1), key, wm.EmbedOptions{Seed: int64(i)})
		if err != nil {
			t.Fatalf("%s: embed: %v", c.name, err)
		}
		tr, _, err := vm.Collect(c.prog, equivInput, 2)
		if err != nil {
			t.Fatal(err)
		}
		if report.TraceEvents != len(tr.Events) {
			t.Errorf("%s: report.TraceEvents = %d, vm.Collect logged %d", c.name, report.TraceEvents, len(tr.Events))
		}
	}
}
