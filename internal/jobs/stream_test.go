package jobs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathmark/internal/bitstring"
	"pathmark/internal/iofault"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
)

// streamFixture returns the decoded trace bit-string of one marked
// suspect (as a '0'/'1' string) plus the fixture keys: the real key
// recognizes the trace, the decoys do not.
func streamFixture(t *testing.T) (string, []*wm.Key) {
	t.Helper()
	suspects, keys, _ := fixture(t)
	tr, _, err := vm.CollectWith(suspects[0], vm.RunOptions{
		Input: keys[0].Input, SnapshotLimit: 1, StepLimit: 100_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.DecodeBits().String(), keys
}

func feedAll(t *testing.T, sj *StreamJob, bits string, chunk int) {
	t.Helper()
	for lo := 0; lo < len(bits); lo += chunk {
		hi := lo + chunk
		if hi > len(bits) {
			hi = len(bits)
		}
		if _, err := sj.Feed(int64(lo), bits[lo:hi]); err != nil {
			t.Fatalf("feed at %d: %v", lo, err)
		}
	}
}

// TestStreamJobMatchesBatchRecognition pins the job layer end to end:
// chunked upload through the journal yields, per key, the batch
// RecognizeBits result, and the real key's watermark is recovered.
func TestStreamJobMatchesBatchRecognition(t *testing.T) {
	bits, keys := streamFixture(t)
	spec := StreamSpec{Keys: keys, Opts: StreamOptions{NoSync: true}}
	sj, err := OpenStream(t.TempDir(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sj.Close()
	feedAll(t, sj, bits, 1024)
	res, err := sj.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Bits != int64(len(bits)) {
		t.Fatalf("result bits %d != %d", res.Bits, len(bits))
	}
	if !res.Recognitions[0].FullCoverage {
		t.Fatal("real key did not reach full coverage over the streamed trace")
	}
	// The wrong-cipher decoy must fail. The wrong-input decoy shares the
	// real cipher and legitimately matches here: a stream job scans the
	// uploaded trace as-is — the key's secret input only matters when the
	// recognizer does the tracing itself.
	if res.Recognitions[1].FullCoverage {
		t.Fatal("wrong-cipher decoy reached full coverage")
	}
	// Cross-check against batch recognition under the same options.
	parsed, err := bitstring.FromString(bits)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := wm.RecognizeBits(parsed, keys[0], wm.RecognizeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recognitions[0].Watermark.Cmp(batch.Watermark) != 0 ||
		res.Recognitions[0].Windows != batch.Windows {
		t.Fatalf("stream job diverged from batch: %+v vs %+v", res.Recognitions[0], batch)
	}
}

// TestStreamJobDuplicateAndGapChunks pins the upload contract: full
// duplicates are no-ops, overlapping re-sends are trimmed, and a chunk
// starting past the committed offset is refused with ErrStreamGap.
func TestStreamJobDuplicateAndGapChunks(t *testing.T) {
	bits, keys := streamFixture(t)
	spec := StreamSpec{Keys: keys[:1], Opts: StreamOptions{NoSync: true}}
	sj, err := OpenStream(t.TempDir(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sj.Close()

	if _, err := sj.Feed(0, bits[:100]); err != nil {
		t.Fatal(err)
	}
	// Full duplicate: committed unchanged, no journal growth.
	recordsBefore := sj.wal.Records()
	if off, err := sj.Feed(0, bits[:100]); err != nil || off != 100 {
		t.Fatalf("duplicate chunk: off=%d err=%v", off, err)
	}
	if sj.wal.Records() != recordsBefore {
		t.Fatal("duplicate chunk was journaled")
	}
	// Overlapping re-send: only the new suffix lands.
	if off, err := sj.Feed(50, bits[50:200]); err != nil || off != 200 {
		t.Fatalf("overlapping chunk: off=%d err=%v", off, err)
	}
	// Gap: refused, offset reported.
	if _, err := sj.Feed(300, bits[300:400]); !errors.Is(err, ErrStreamGap) {
		t.Fatalf("gap chunk: err=%v, want ErrStreamGap", err)
	}
	if sj.Committed() != 200 {
		t.Fatalf("committed %d after gap refusal, want 200", sj.Committed())
	}
}

// TestStreamJobCrashResume is the crash-safety property: kill the job at
// an arbitrary chunk boundary (drop the in-memory state, reopen over the
// same directory), resume the upload from the reported committed offset,
// and require the final result manifest to be byte-identical to an
// uninterrupted stream's.
func TestStreamJobCrashResume(t *testing.T) {
	bits, keys := streamFixture(t)
	spec := StreamSpec{Keys: keys, Opts: StreamOptions{NoSync: true}}

	finish := func(dir string, upTo int, chunk int) string {
		sj, err := OpenStream(dir, spec)
		if err != nil {
			t.Fatal(err)
		}
		start := int(sj.Committed())
		for lo := start; lo < upTo; lo += chunk {
			hi := lo + chunk
			if hi > upTo {
				hi = upTo
			}
			if _, err := sj.Feed(int64(lo), bits[lo:hi]); err != nil {
				t.Fatalf("feed at %d: %v", lo, err)
			}
		}
		if upTo == len(bits) {
			if _, err := sj.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		if err := sj.Close(); err != nil {
			t.Fatal(err)
		}
		if upTo < len(bits) {
			return ""
		}
		b, err := os.ReadFile(ResultPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	// Uninterrupted reference run.
	refDir := t.TempDir()
	want := finish(refDir, len(bits), 777)

	// Crash mid-stream, then resume in a "new process".
	crashDir := t.TempDir()
	finish(crashDir, len(bits)/2, 777) // first lifetime: half the trace, then "crash"
	got := finish(crashDir, len(bits), 777)
	if got != want {
		t.Fatal("crash-resumed stream result differs from uninterrupted run")
	}

	// Resume must also tolerate a torn tail: append garbage to the chunk
	// journal (a crash mid-append) and reopen.
	tornDir := t.TempDir()
	finish(tornDir, len(bits)/3, 500)
	f, err := os.OpenFile(StreamPath(tornDir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"chunk","off":`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got = finish(tornDir, len(bits), 500)
	if got != want {
		t.Fatal("torn-tail resume result differs from uninterrupted run")
	}
}

// TestStreamJobFinishSealsStream pins the lifecycle: after Finish, Feed
// refuses with ErrStreamFinished, Finish is idempotent, and a reopened
// job sees the stream as finished.
func TestStreamJobFinishSealsStream(t *testing.T) {
	bits, keys := streamFixture(t)
	dir := t.TempDir()
	spec := StreamSpec{Keys: keys[:1], Opts: StreamOptions{NoSync: true}}
	sj, err := OpenStream(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, sj, bits, 4096)
	first, err := sj.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sj.Feed(sj.Committed(), "0101"); !errors.Is(err, ErrStreamFinished) {
		t.Fatalf("feed after finish: err=%v, want ErrStreamFinished", err)
	}
	again, err := sj.Finish()
	if err != nil || again.Recognitions[0] != first.Recognitions[0] {
		t.Fatalf("Finish not idempotent: %v", err)
	}
	sj.Close()

	re, err := OpenStream(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Finished() {
		t.Fatal("reopened stream not marked finished")
	}
	if _, err := re.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamPathHelpers pins the artifact naming contract all layers
// share.
func TestStreamPathHelpers(t *testing.T) {
	for _, tc := range []struct {
		got, want string
	}{
		{JournalPath("d"), filepath.Join("d", "journal.jsonl")},
		{ResultPath("d"), filepath.Join("d", "result.json")},
		{TracePath("d"), filepath.Join("d", "trace.jsonl")},
		{StreamPath("d"), filepath.Join("d", "stream.jsonl")},
	} {
		if tc.got != tc.want {
			t.Fatalf("path helper returned %q, want %q", tc.got, tc.want)
		}
	}
	if !strings.HasSuffix(StreamPath("d"), "stream.jsonl") {
		t.Fatal("unreachable")
	}
}

// TestStreamJournalCorruptHeader: a bit flip inside the stream journal's
// header line — with intact records after it, so this is mid-log
// corruption, not a torn tail — must refuse the resume with a typed
// *iofault.CorruptError, the signal the daemon quarantines on.
func TestStreamJournalCorruptHeader(t *testing.T) {
	bits, keys := streamFixture(t)
	dir := t.TempDir()
	spec := StreamSpec{Keys: keys, Opts: StreamOptions{NoSync: true}}
	sj, err := OpenStream(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, sj, bits[:1024], 256)
	sj.Close()

	path := StreamPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nl := strings.IndexByte(string(data), '\n')
	data[nl-2] ^= 0x40 // inside the header payload, after the frame prefix
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenStream(dir, spec)
	if !iofault.IsCorrupt(err) {
		t.Fatalf("corrupt header resume: err=%v, want *iofault.CorruptError", err)
	}

	// A torn header (no complete first line at all) is a different story:
	// still refused, but as an unusable journal, not proven corruption.
	if err := os.WriteFile(path, data[:nl/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenStream(dir, spec)
	if err == nil {
		t.Fatal("torn header accepted")
	}
	if iofault.IsCorrupt(err) {
		t.Fatalf("torn header misclassified as proven corruption: %v", err)
	}
}

// TestStreamJournalCorruptRecord: damage to a mid-log chunk record (with
// a valid record after it) is detected by the per-record checksum and
// surfaces as a typed corruption error rather than a silent bad resume.
func TestStreamJournalCorruptRecord(t *testing.T) {
	bits, keys := streamFixture(t)
	dir := t.TempDir()
	spec := StreamSpec{Keys: keys, Opts: StreamOptions{NoSync: true}}
	sj, err := OpenStream(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, sj, bits[:2048], 256) // header + 8 chunk records
	sj.Close()

	path := StreamPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	mid := []byte(lines[3])
	mid[len(mid)/2] ^= 0x01
	lines[3] = string(mid)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenStream(dir, spec)
	if !iofault.IsCorrupt(err) {
		t.Fatalf("corrupt chunk record resume: err=%v, want *iofault.CorruptError", err)
	}
}
