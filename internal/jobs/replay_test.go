package jobs_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathmark/internal/iofault"
	"pathmark/internal/jobs"
	"pathmark/internal/tournament"
)

// replayLog is one journal schema seen through its public API.
type replayLog struct {
	name     string
	path     func(dir string) string
	open     func(dir string) error // replay and close, as this log's owner
	foreign  func(dir string) error // replay and close, as another owner
	complete func(dir string) error // resume: write every missing record
	mismatch error
}

func replayLogs(t *testing.T) []replayLog {
	suspects, keys, _ := jobs.Fixture(t)
	grade := jobs.Spec{Suspects: suspects, Keys: keys, Opts: jobs.Options{Workers: 1, NoSync: true}}
	otherGrade := grade
	otherGrade.Opts.StepLimit = 12345

	stream := jobs.StreamSpec{Keys: keys, Opts: jobs.StreamOptions{NoSync: true}}
	otherStream := jobs.StreamSpec{Keys: keys[:1], Opts: stream.Opts}
	bits := strings.Repeat("0110100110010110", 128)
	openStream := func(dir string, spec jobs.StreamSpec) error {
		sj, err := jobs.OpenStream(dir, spec)
		if err != nil {
			return err
		}
		return sj.Close()
	}

	campaign := tournament.DemoManifest()
	otherCampaign := tournament.DemoManifest()
	otherCampaign.Seed++
	copts := tournament.Options{Workers: 1, NoSync: true}
	openCampaign := func(dir string, m *tournament.Manifest) error {
		c, err := tournament.Open(dir, m, copts)
		if err != nil {
			return err
		}
		return c.Close()
	}

	return []replayLog{
		{
			name: "grade",
			path: jobs.JournalPath,
			open: func(dir string) error {
				j, err := jobs.Open(dir, grade)
				if err != nil {
					return err
				}
				return j.Close()
			},
			foreign: func(dir string) error {
				j, err := jobs.Open(dir, otherGrade)
				if err == nil {
					j.Close()
				}
				return err
			},
			complete: func(dir string) error {
				_, err := jobs.Execute(context.Background(), dir, grade)
				return err
			},
			mismatch: jobs.ErrJournalMismatch,
		},
		{
			name:    "stream",
			path:    jobs.StreamPath,
			open:    func(dir string) error { return openStream(dir, stream) },
			foreign: func(dir string) error { return openStream(dir, otherStream) },
			complete: func(dir string) error {
				sj, err := jobs.OpenStream(dir, stream)
				if err != nil {
					return err
				}
				for lo := int(sj.Committed()); lo < len(bits); lo += 256 {
					if _, err := sj.Feed(int64(lo), bits[lo:lo+256]); err != nil {
						return err
					}
				}
				if _, err := sj.Finish(); err != nil {
					return err
				}
				return sj.Close()
			},
			mismatch: jobs.ErrJournalMismatch,
		},
		{
			name:    "campaign",
			path:    jobs.JournalPath,
			open:    func(dir string) error { return openCampaign(dir, campaign) },
			foreign: func(dir string) error { return openCampaign(dir, otherCampaign) },
			complete: func(dir string) error {
				_, err := tournament.Execute(dir, campaign, copts)
				return err
			},
			mismatch: tournament.ErrCampaignMismatch,
		},
	}
}

// TestReplayContract pins the one replay path every journal shares
// (jobs.OpenWAL) on the grade journal, the stream chunk journal and the
// tournament cell journal alike: a torn tail or a framed foreign record
// is truncated away and the resume appends cleanly after it; proven
// mid-log corruption, a wrong version, a missing header and another
// owner's header are refused with the file left byte-identical.
func TestReplayContract(t *testing.T) {
	for _, lg := range replayLogs(t) {
		// One complete log per schema; every case starts from its bytes.
		refDir := t.TempDir()
		if err := lg.complete(refDir); err != nil {
			t.Fatalf("%s: write reference log: %v", lg.name, err)
		}
		full, err := os.ReadFile(lg.path(refDir))
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(full, []byte("\n"))
		lines = lines[:len(lines)-1] // SplitAfter leaves an empty tail
		if len(lines) < 4 {
			t.Fatalf("%s: reference log has %d lines, want header + 3 records", lg.name, len(lines))
		}
		join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
		lastAt := len(full) - len(lines[len(lines)-1])
		payload, err := iofault.Unframe(bytes.TrimSuffix(lines[0], []byte("\n")))
		if err != nil {
			t.Fatal(err)
		}
		wrongVersion := iofault.Frame(bytes.Replace(payload, []byte(`"v":2,`), []byte(`"v":99,`), 1))
		midFlip := append([]byte(nil), full...)
		midFlip[len(lines[0])+len(lines[1])/2] ^= 0x01

		cases := []struct {
			name    string
			data    []byte
			foreign bool   // open as another owner
			kept    []byte // nil: refused, file untouched; else the prefix replay keeps
			check   func(error) bool
		}{
			{name: "torn tail", data: full[:lastAt+12], kept: full[:lastAt]},
			{name: "framed foreign record", data: join(lines[0], lines[1], iofault.Frame([]byte(`{"type":"foreign"}`)), join(lines[2:]...)),
				kept: join(lines[0], lines[1])},
			{name: "mid-log corruption", data: midFlip, check: iofault.IsCorrupt},
			{name: "wrong version", data: join(wrongVersion, full[len(lines[0]):])},
			{name: "missing header", data: full[len(lines[0]):]},
			{name: "foreign header", data: join(full, []byte(`deadbeef {"type":`)), foreign: true,
				check: func(err error) bool { return errors.Is(err, lg.mismatch) }},
		}
		for _, tc := range cases {
			t.Run(lg.name+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				path := lg.path(dir)
				if err := os.WriteFile(path, tc.data, 0o644); err != nil {
					t.Fatal(err)
				}
				open := lg.open
				if tc.foreign {
					open = lg.foreign
				}
				err := open(dir)
				onDisk, rerr := os.ReadFile(path)
				if rerr != nil {
					t.Fatal(rerr)
				}
				if tc.kept == nil {
					if err == nil {
						t.Fatal("open accepted the log")
					}
					if tc.check != nil && !tc.check(err) {
						t.Fatalf("open: unexpected error class: %v", err)
					}
					if tc.check == nil && iofault.IsCorrupt(err) {
						t.Fatalf("open: misclassified as proven corruption: %v", err)
					}
					if !bytes.Equal(onDisk, tc.data) {
						t.Fatalf("refused open rewrote %s: %d bytes before, %d after", filepath.Base(path), len(tc.data), len(onDisk))
					}
					return
				}
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				if !bytes.Equal(onDisk, tc.kept) {
					t.Fatalf("replay kept %d bytes, want the %d-byte valid prefix", len(onDisk), len(tc.kept))
				}
				if err := lg.complete(dir); err != nil {
					t.Fatalf("resume: %v", err)
				}
				if resumed, _ := os.ReadFile(path); !bytes.Equal(resumed, full) {
					t.Fatalf("resumed log differs from the uninterrupted one (%d vs %d bytes)", len(resumed), len(full))
				}
			})
		}
	}
}
