package tournament

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"pathmark/internal/iofault"
	"pathmark/internal/jobs"
)

// dirSyncFS logs directory creations and directory fsyncs; a SyncDir of
// failSync fails with an injected EIO.
type dirSyncFS struct {
	iofault.FS
	ops      []string
	failSync string
}

func (r *dirSyncFS) MkdirAll(path string, perm os.FileMode) error {
	r.ops = append(r.ops, "mkdir:"+path)
	return r.FS.MkdirAll(path, perm)
}

func (r *dirSyncFS) SyncDir(dir string) error {
	r.ops = append(r.ops, "syncdir:"+dir)
	if dir == r.failSync {
		return &iofault.InjectedError{Op: "syncdir", Path: dir, Err: syscall.EIO}
	}
	return r.FS.SyncDir(dir)
}

// testManifest is the demo grid — small enough for unit tests, complete
// enough to cover catalog, composed and collusion attacks on baseline and
// hardened fleets.
func testManifest() *Manifest { return DemoManifest() }

func TestManifestValidateRejectsBadGrids(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Manifest)
	}{
		{"version", func(m *Manifest) { m.Version = 99 }},
		{"host", func(m *Manifest) { m.Host = "nonesuch" }},
		{"wbits", func(m *Manifest) { m.WBits = 0 }},
		{"no-fleets", func(m *Manifest) { m.Fleets = nil }},
		{"fleet-size", func(m *Manifest) { m.Fleets[0].Size = 0 }},
		{"no-attacks", func(m *Manifest) { m.Attacks = nil }},
		{"unknown-attack", func(m *Manifest) { m.Attacks[0].Name = "nonesuch" }},
		{"unknown-in-sequence", func(m *Manifest) { m.Attacks[1].Sequence[1] = "nonesuch" }},
		{"bad-collusion-mode", func(m *Manifest) { m.Attacks[2].Collusion = "melt" }},
		{"two-kinds-set", func(m *Manifest) { m.Attacks[2].Name = "block-split" }},
		{"no-strengths", func(m *Manifest) { m.Strengths = nil }},
		{"strength-range", func(m *Manifest) { m.Strengths[0] = 0 }},
	}
	for _, tc := range cases {
		m := testManifest()
		tc.mut(m)
		err := m.Validate()
		var me *ManifestError
		if err == nil || !errors.As(err, &me) {
			t.Errorf("%s: want *ManifestError, got %v", tc.name, err)
		}
	}
	if err := testManifest().Validate(); err != nil {
		t.Fatalf("demo manifest invalid: %v", err)
	}
}

func TestManifestRoundTripAndDigest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.json")
	m := testManifest()
	if err := SaveManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := m.DigestHex()
	d2, _ := got.DigestHex()
	if d1 != d2 {
		t.Fatalf("digest changed across round trip: %s vs %s", d1, d2)
	}
	if _, err := LoadManifest(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("want error for missing manifest")
	}
}

// TestMatrixDeterministicAcrossWorkers is the acceptance property: the
// demo grid's matrix bytes are identical at any worker count.
func TestMatrixDeterministicAcrossWorkers(t *testing.T) {
	m := testManifest()
	var ref []byte
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		mx, err := Execute(dir, m, Options{Workers: workers, NoSync: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := EncodeMatrix(mx)
		if err != nil {
			t.Fatal(err)
		}
		onDisk, err := os.ReadFile(MatrixPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, onDisk) {
			t.Fatalf("workers=%d: matrix.json differs from EncodeMatrix", workers)
		}
		if ref == nil {
			ref = b
		} else if !bytes.Equal(ref, b) {
			t.Fatalf("workers=%d: matrix differs from workers=1", workers)
		}
	}
}

// TestCollusionHardeningRaisesThreshold pins the tentpole result on the
// demo grid: the strip coalition at k=2 defeats the baseline fleet and
// does NOT defeat the hardened fleet.
func TestCollusionHardeningRaisesThreshold(t *testing.T) {
	m := testManifest()
	mx, err := Execute(t.TempDir(), m, Options{Workers: 4, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// Attack index 2 is collusion-strip; strength index 1 is k=2.
	base := mx.Cell(0, 2, 1)
	hard := mx.Cell(1, 2, 1)
	if base == nil || hard == nil {
		t.Fatal("strip cells missing from matrix")
	}
	if base.Outcome == OutcomeSurvive {
		t.Fatalf("baseline fleet survived strip collusion at k=%d; hardening has nothing to prove", base.Colluders)
	}
	if hard.Outcome != OutcomeSurvive {
		t.Fatalf("hardened fleet lost to strip collusion at k=%d (outcome %s)", hard.Colluders, hard.Outcome)
	}
	// Sanity on the rest of the grid: the light distortive attack always
	// survives, the trace-destroying sequence never does.
	for fi := range m.Fleets {
		for si := range m.Strengths {
			if c := mx.Cell(fi, 0, si); c == nil || c.Outcome != OutcomeSurvive {
				t.Errorf("fleet %d nop-insertion strength %d: want survive, got %+v", fi, si, c)
			}
			if c := mx.Cell(fi, 1, si); c == nil || c.Outcome == OutcomeSurvive {
				t.Errorf("fleet %d flattening sequence strength %d: want defeat, got %+v", fi, si, c)
			}
		}
	}
}

// TestCrashResume kills the run (by context) after two settled cells,
// resumes, and checks (a) no settled cell is re-graded, (b) the final
// matrix is byte-identical to an uninterrupted run's.
func TestCrashResume(t *testing.T) {
	m := testManifest()
	ref, err := Execute(t.TempDir(), m, Options{Workers: 1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	refBytes, _ := EncodeMatrix(ref)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	c, err := Open(dir, m, Options{
		Workers: 1, NoSync: true, Ctx: ctx,
		OnCell: func(settled int, _ CellResult) {
			if settled >= 2 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err == nil {
		t.Fatal("interrupted run should report an error")
	}
	c.Close()

	// Resume. The two settled cells must be restored, not re-run.
	c2, err := Open(dir, m, Options{Workers: 4, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Reused() < 2 {
		t.Fatalf("resume reused %d cells, want >= 2", c2.Reused())
	}
	reused := c2.Reused()
	mx, err := c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	c2.Close()
	got, _ := EncodeMatrix(mx)
	if !bytes.Equal(refBytes, got) {
		t.Fatal("resumed matrix differs from uninterrupted run")
	}

	// The journal must hold exactly one record per cell: header line +
	// len(cells) records, no duplicates.
	data, err := os.ReadFile(jobs.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	want := 1 + len(m.Fleets)*len(m.Attacks)*len(m.Strengths)
	if lines != want {
		t.Fatalf("journal has %d lines, want %d (reused %d): duplicate cell records", lines, want, reused)
	}
}

// TestTornTailRecovery: a partial trailing record (torn mid-append by a
// crash) is discarded and truncated; the cell it described re-runs.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	m := testManifest()
	ref, err := Execute(dir, m, Options{Workers: 1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	refBytes, _ := EncodeMatrix(ref)

	path := jobs.JournalPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half and re-run.
	last := bytes.LastIndexByte(data[:len(data)-1], '\n')
	torn := data[:last+1+12]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(MatrixPath(dir))
	mx, err := Execute(dir, m, Options{Workers: 1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := EncodeMatrix(mx)
	if !bytes.Equal(refBytes, got) {
		t.Fatal("matrix differs after torn-tail recovery")
	}
}

// TestRenderMentionsEveryAttack: the rendered table is the human artifact;
// it must name every attack label and fleet.
func TestRenderMentionsEveryAttack(t *testing.T) {
	m := testManifest()
	mx, err := Execute(t.TempDir(), m, Options{Workers: 4, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	table := mx.Render()
	for _, a := range m.Attacks {
		if !strings.Contains(table, a.Label()) {
			t.Errorf("render missing attack %q", a.Label())
		}
	}
	if !strings.Contains(table, "hardened") || !strings.Contains(table, "baseline") {
		t.Error("render missing fleet modes")
	}
}

// TestJournalCorruptionDetected: a bit flip in the campaign journal —
// header line or a mid-log cell record, with intact framed records after
// it — must refuse the resume with a typed *iofault.CorruptError; a torn
// header is refused too, but not classified as proven corruption.
func TestJournalCorruptionDetected(t *testing.T) {
	m := testManifest()
	seed := t.TempDir()
	if _, err := Execute(seed, m, Options{Workers: 1, NoSync: true}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(jobs.JournalPath(seed))
	if err != nil {
		t.Fatal(err)
	}

	reopen := func(data []byte) error {
		dir := t.TempDir()
		if err := os.WriteFile(jobs.JournalPath(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir, m, Options{Workers: 1, NoSync: true})
		if err == nil {
			c.Close()
		}
		return err
	}

	// Flip a byte inside the header payload (frame prefix is 9 bytes).
	nl := bytes.IndexByte(good, '\n')
	corruptHeader := append([]byte(nil), good...)
	corruptHeader[nl-2] ^= 0x40
	if err := reopen(corruptHeader); !iofault.IsCorrupt(err) {
		t.Fatalf("corrupt header resume: err=%v, want *iofault.CorruptError", err)
	}

	// Flip a byte in a middle cell record.
	lines := bytes.SplitAfter(good, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("journal too short for a mid-log flip: %d lines", len(lines))
	}
	mid := append([]byte(nil), lines[1]...)
	mid[len(mid)/2] ^= 0x01
	corruptRecord := bytes.Join([][]byte{lines[0], mid, bytes.Join(lines[2:], nil)}, nil)
	if err := reopen(corruptRecord); !iofault.IsCorrupt(err) {
		t.Fatalf("corrupt cell record resume: err=%v, want *iofault.CorruptError", err)
	}

	// A torn header — no complete first line — is unusable, not corrupt.
	err = reopen(good[:nl/2])
	if err == nil {
		t.Fatal("torn header accepted")
	}
	if iofault.IsCorrupt(err) {
		t.Fatalf("torn header misclassified as proven corruption: %v", err)
	}
}

// TestRunHaltsOnJournalFailure: a failed journal fsync stops every cell
// worker, not only the one whose settle hit it. Syncs #0-#2 commit the
// header and two cells; the third cell's sync fails, after which at most
// the cells already running on the other workers may still settle.
func TestRunHaltsOnJournalFailure(t *testing.T) {
	const workers = 4
	var settled atomic.Int64
	_, err := Execute(t.TempDir(), testManifest(), Options{
		Workers: workers,
		FS: iofault.NewFaultFS(iofault.OS, []iofault.Fault{
			{Op: iofault.OpSync, Kind: iofault.KindSyncFail, After: 3, Path: "journal"},
		}),
		OnCell: func(int, CellResult) { settled.Add(1) },
	})
	if err == nil {
		t.Fatal("run survived a journal fsync failure")
	}
	if n := settled.Load(); n > 2+(workers-1) {
		t.Fatalf("%d cells settled, want at most %d: workers kept grading after the journal failed",
			n, 2+(workers-1))
	}
}

// TestOpenSyncsCampaignDir: opening a campaign fsyncs the parent after
// making the campaign directory, and a failed fsync fails the open with a
// storage fault.
func TestOpenSyncsCampaignDir(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "campaign")
	rec := &dirSyncFS{FS: iofault.OS}
	c, err := Open(dir, testManifest(), Options{NoSync: true, FS: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if i := slices.Index(rec.ops, "mkdir:"+dir); i < 0 || !slices.Contains(rec.ops[i+1:], "syncdir:"+parent) {
		t.Errorf("no fsync of the parent after making the campaign directory: %v", rec.ops)
	}

	parent = t.TempDir()
	_, err = Open(filepath.Join(parent, "campaign"), testManifest(),
		Options{NoSync: true, FS: &dirSyncFS{FS: iofault.OS, failSync: parent}})
	if !iofault.IsStorageFault(err) {
		t.Errorf("failed fsync of the parent: %v is not a storage fault", err)
	}
}
