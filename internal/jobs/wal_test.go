package jobs

import (
	"os"
	"path/filepath"
	"testing"

	"pathmark/internal/iofault"
)

// walLines decodes every framed line of a WAL file, failing the test on
// any torn or corrupt content — the invariant fail-stop recovery must
// uphold: whatever ends up on disk is a clean framed prefix.
func walLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := iofault.NewLogScanner(data, path)
	var lines []string
	for {
		payload, ok := sc.Next()
		if !ok {
			break
		}
		lines = append(lines, string(payload))
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("journal corrupt after fail-stop recovery: %v", err)
	}
	if sc.Good() != int64(len(data)) {
		t.Fatalf("journal has a torn tail after fail-stop recovery: %d good of %d bytes", sc.Good(), len(data))
	}
	return lines
}

type walRec struct {
	N int `json:"n"`
}

// TestWALFailStopSync: a failed fsync poisons the handle. The failing
// append reports the error and commits nothing; the next append reopens
// the file, verifies its size against the committed prefix, and continues
// — and the record whose sync failed is NOT silently resurrected.
func TestWALFailStopSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	ffs := iofault.NewFaultFS(iofault.OS, []iofault.Fault{
		// Sync #0 is the header's; fail the second record's sync.
		{Op: iofault.OpSync, Kind: iofault.KindSyncFail, After: 2},
	})
	w, err := CreateWAL(ffs, path, walRec{N: 100}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRec{N: 1}); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	err = w.Append(walRec{N: 2})
	if err == nil {
		t.Fatal("append survived injected sync failure")
	}
	if !iofault.IsStorageFault(err) {
		t.Fatalf("sync failure not classified as storage fault: %v", err)
	}
	if got := w.Records(); got != 1 {
		t.Fatalf("failed append counted as committed: %d records", got)
	}
	// The record may be in the file (write succeeded, sync failed) but it
	// is not committed; recovery truncates it away before appending more.
	if err := w.Append(walRec{N: 3}); err != nil {
		t.Fatalf("append after fail-stop did not recover: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lines := walLines(t, path)
	want := []string{`{"n":100}`, `{"n":1}`, `{"n":3}`}
	if len(lines) != len(want) {
		t.Fatalf("journal lines = %q, want %q", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != w.Bytes() {
		t.Fatalf("committed bytes %d != file size %d", w.Bytes(), info.Size())
	}
}

// TestWALFailStopShortWrite: a short write leaves a torn half-record on
// disk. Recovery must truncate it back to the committed prefix so the
// next record never concatenates onto a partial line.
func TestWALFailStopShortWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	ffs := iofault.NewFaultFS(iofault.OS, []iofault.Fault{
		{Op: iofault.OpWrite, Kind: iofault.KindShortWrite, After: 1},
	})
	w, err := CreateWAL(ffs, path, walRec{N: 100}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRec{N: 1}); err == nil {
		t.Fatal("append survived injected short write")
	}
	// The torn half-line is on disk right now; prove recovery removes it.
	if err := w.Append(walRec{N: 2}); err != nil {
		t.Fatalf("append after short write did not recover: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lines := walLines(t, path)
	if len(lines) != 2 || lines[1] != `{"n":2}` {
		t.Fatalf("journal lines = %q, want header + {\"n\":2}", lines)
	}
}

// TestWALDoubleFault: recovery itself can fail (the disk is still sick).
// Append must keep returning errors without committing anything, then
// recover once the fault clears.
func TestWALDoubleFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	ffs := iofault.NewFaultFS(iofault.OS, []iofault.Fault{
		{Op: iofault.OpSync, Kind: iofault.KindSyncFail, After: 1},
		{Op: iofault.OpOpen, Kind: iofault.KindOpenFail, After: 1},
	})
	w, err := CreateWAL(ffs, path, walRec{N: 100}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRec{N: 1}); err == nil {
		t.Fatal("append survived injected sync failure")
	}
	// Reopen hits the open fault: still broken, still erroring.
	if err := w.Append(walRec{N: 2}); err == nil {
		t.Fatal("append survived failed reopen")
	}
	if got := w.Records(); got != 0 {
		t.Fatalf("records committed during double fault: %d", got)
	}
	// Faults are spent; the WAL heals on the next append.
	if err := w.Append(walRec{N: 3}); err != nil {
		t.Fatalf("append after faults cleared: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lines := walLines(t, path)
	if len(lines) != 2 || lines[1] != `{"n":3}` {
		t.Fatalf("journal lines = %q, want header + {\"n\":3}", lines)
	}
}

// TestWALOpenTruncatesTornTail: openWAL trims the file back to the valid
// prefix the replayer reported before appending.
func TestWALOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	w, err := CreateWAL(nil, path, walRec{N: 100}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRec{N: 1}); err != nil {
		t.Fatal(err)
	}
	good, records := w.Bytes(), w.Records()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("deadbeef {\"torn")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := openWAL(iofault.OS, path, good, records, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(walRec{N: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	lines := walLines(t, path)
	if len(lines) != 3 || lines[2] != `{"n":2}` {
		t.Fatalf("journal lines = %q", lines)
	}
}

// TestWALOpenRejectsShrunkenFile: a file shorter than the committed
// prefix means lost committed data — refuse to append, loudly.
func TestWALOpenRejectsShrunkenFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	w, err := CreateWAL(nil, path, walRec{N: 100}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := openWAL(iofault.OS, path, w.Bytes()+1000, 0, false); err == nil {
		t.Fatal("openWAL accepted a file shorter than its committed prefix")
	}
}

// TestWALAppendAfterClose: a deliberate Close is terminal, not a
// fail-stop — Append must not silently reopen a retired journal.
func TestWALAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	w, err := CreateWAL(nil, path, walRec{N: 100}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRec{N: 1}); err == nil {
		t.Fatal("append to a closed journal succeeded")
	}
}
