package wm

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestScanOnlyMatchesRecognizeBits pins ScanOnly to RecognizeBits' scan
// configuration: with Workers left at 0 it fans out over GOMAXPROCS
// workers (the scan hook sees more than one worker id) and its counters
// equal the Recognition's. The hook holds chunk 0 until another worker
// has taken a chunk, so a serial scan shows up as a single worker id
// after the timeout instead of passing by luck of scheduling.
func TestScanOnlyMatchesRecognizeBits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	bits, key := markedTraceBits(t, 0)
	if n := bits.NumWindows64(); n < 2*scanChunkWindows {
		t.Fatalf("trace has %d raw windows, want at least two chunks (test premise)", n)
	}
	var mu sync.Mutex
	seen := map[int]bool{}
	other := make(chan struct{})
	var once sync.Once
	record := func(worker, chunk int) {
		mu.Lock()
		seen[worker] = true
		n := len(seen)
		mu.Unlock()
		if n > 1 {
			once.Do(func() { close(other) })
		}
		if chunk == 0 {
			select {
			case <-other:
			case <-time.After(5 * time.Second):
			}
		}
	}
	st, err := ScanOnly(bits, key, RecognizeOpts{ScanHook: record})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 2 {
		t.Errorf("ScanOnly with Workers=0 ran %d scan worker(s), want GOMAXPROCS fan-out", len(seen))
	}
	rec, err := RecognizeBits(bits, key, RecognizeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := ScanStats{Windows: rec.Windows, Decrypted: rec.Decrypted,
		Valid: rec.ValidStatements, Rejected: rec.RejectedByLayer}
	if st != want {
		t.Errorf("ScanOnly stats %+v, want RecognizeBits counters %+v", st, want)
	}
}
