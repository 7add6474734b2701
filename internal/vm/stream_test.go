package vm

import (
	"math/rand"
	"testing"
)

// synthTrace builds an event sequence exercising every decoder shape:
// repeated branches, consecutive branches sharing one successor, blocks
// with no preceding branch, and (when cut) trailing branches.
func synthTrace(seed int64, n int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{}
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			t.Events = append(t.Events, Event{Kind: EvBlockEnter,
				Method: int32(rng.Intn(3)), Loc: int32(rng.Intn(5))})
		default:
			t.Events = append(t.Events, Event{Kind: EvBranchExec, Taken: rng.Intn(2) == 0,
				Method: int32(rng.Intn(3)), Loc: int32(rng.Intn(7))})
		}
	}
	return t
}

// TestStreamDecoderMatchesBatchAtEveryCut feeds a trace through the
// incremental decoder split at every possible boundary and requires the
// concatenated output to equal the batch decode of the unsplit trace —
// including cuts that separate a branch event from its successor block,
// the shape the old per-chunk DecodeBits silently dropped.
func TestStreamDecoderMatchesBatchAtEveryCut(t *testing.T) {
	tr := synthTrace(1, 200)
	want := tr.DecodeBits().String()
	for cut := 0; cut <= len(tr.Events); cut++ {
		d := NewStreamDecoder()
		bits := d.Feed(nil, tr.Events[:cut]...)
		bits = d.Feed(bits, tr.Events[cut:]...)
		if got := bits.String(); got != want {
			t.Fatalf("cut at %d: split decode %q, batch %q", cut, got, want)
		}
	}
}

// TestStreamDecoderBranchThenCutContinuation is the regression pinned by
// the bugfix: a trace cut immediately after a branch event decodes, once
// its continuation arrives, to exactly the unsplit trace's bits. Decoding
// the halves through two independent decoders (the old behavior) must
// demonstrably lose the cut branch's bit.
func TestStreamDecoderBranchThenCutContinuation(t *testing.T) {
	tr := &Trace{}
	ev := func(kind EventKind, m, loc int32) Event { return Event{Kind: kind, Method: m, Loc: loc} }
	tr.Events = []Event{
		ev(EvBlockEnter, 0, 0),
		ev(EvBranchExec, 0, 4), // first occurrence -> 0, successor block 1
		ev(EvBlockEnter, 0, 1),
		ev(EvBranchExec, 0, 4), // same successor -> 0
		ev(EvBlockEnter, 0, 1),
		ev(EvBranchExec, 0, 4), // CUT HERE: successor (block 2) is in the next chunk
		ev(EvBlockEnter, 0, 2), // different successor -> 1
		ev(EvBranchExec, 0, 4),
		ev(EvBlockEnter, 0, 1), // first successor again -> 0
	}
	cut := 6 // chunk 1 ends with the third EvBranchExec
	want := tr.DecodeBits().String()
	if want != "0010" {
		t.Fatalf("batch decode = %q, want 0010 (test premise)", want)
	}

	d := NewStreamDecoder()
	bits := d.Feed(nil, tr.Events[:cut]...)
	if d.Pending() != 1 {
		t.Fatalf("after branch-then-cut chunk: pending = %d, want 1", d.Pending())
	}
	bits = d.Feed(bits, tr.Events[cut:]...)
	if got := bits.String(); got != want {
		t.Fatalf("carried-over decode %q, want %q", got, want)
	}

	// The broken shape: two independent decoders drop the cut branch's bit
	// and re-seed the first-successor map in the second half.
	half1 := &Trace{}
	half1.Events = tr.Events[:cut]
	half2 := &Trace{}
	half2.Events = tr.Events[cut:]
	if naive := half1.DecodeBits().String() + half2.DecodeBits().String(); naive == want {
		t.Fatalf("independent per-chunk decode unexpectedly matched (%q); regression premise gone", naive)
	}
}

// TestDecodeBitsTruncatedTraceDropsTrailingBranch pins the batch
// contract on truncated traces: a trailing branch with no successor
// contributes no bit, and the decoder reports it as pending.
func TestDecodeBitsTruncatedTraceDropsTrailingBranch(t *testing.T) {
	tr := &Trace{}
	tr.Events = []Event{
		{Kind: EvBlockEnter, Method: 0, Loc: 0},
		{Kind: EvBranchExec, Method: 0, Loc: 3},
		{Kind: EvBlockEnter, Method: 0, Loc: 1},
		{Kind: EvBranchExec, Method: 0, Loc: 3}, // truncated here
	}
	if got := tr.DecodeBits().Len(); got != 1 {
		t.Fatalf("truncated trace decoded %d bits, want 1", got)
	}
	d := NewStreamDecoder()
	d.Feed(nil, tr.Events...)
	if d.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", d.Pending())
	}
}

// TestStreamDecoderSingleEventFeeds drives the decoder one event at a
// time — the worst-case chunking — over a larger random trace.
func TestStreamDecoderSingleEventFeeds(t *testing.T) {
	tr := synthTrace(7, 500)
	want := tr.DecodeBits().String()
	d := NewStreamDecoder()
	var bits = d.Feed(nil)
	for _, e := range tr.Events {
		bits = d.Feed(bits, e)
	}
	if got := bits.String(); got != want {
		t.Fatalf("per-event decode diverged from batch")
	}
}
