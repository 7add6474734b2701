package jobs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
