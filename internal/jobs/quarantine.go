package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"pathmark/internal/iofault"
)

// Corruption quarantine. When replay proves a job's log is corrupt
// mid-stream (see iofault.CorruptError) the daemon must neither resume
// over the rotten state nor refuse to start: the job directory is moved
// aside into quarantine/ under the serve root with a reason record, and
// everything else keeps serving. A quarantined directory is inert —
// nothing reads it again until an operator inspects it — but nothing in
// it is deleted: the corrupt log is the evidence.

// QuarantineDir names the quarantine area under a serve root.
func QuarantineDir(root string) string { return filepath.Join(root, "quarantine") }

// quarantineReason is the reason.json dropped inside a quarantined
// directory.
type quarantineReason struct {
	Dir    string `json:"dir"`    // original directory (absolute or as given)
	Reason string `json:"reason"` // the error that condemned it
}

// Quarantine moves dir into root's quarantine area with a reason record
// and returns the destination. The quarantine area is made durably
// (iofault.MkdirSynced); the move is a rename (same filesystem, so
// atomic) followed by a parent-dir fsync on both ends. Name collisions
// from repeated quarantines of same-named jobs get a numeric suffix.
func Quarantine(fs iofault.FS, root, dir string, reason error) (string, error) {
	if fs == nil {
		fs = iofault.OS
	}
	qdir := QuarantineDir(root)
	if err := iofault.MkdirSynced(fs, qdir); err != nil {
		return "", fmt.Errorf("jobs: create quarantine dir: %w", err)
	}
	base := filepath.Base(dir)
	dst := filepath.Join(qdir, base)
	for n := 1; ; n++ {
		if _, err := fs.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s-%d", base, n))
	}
	if err := fs.Rename(dir, dst); err != nil {
		return "", fmt.Errorf("jobs: quarantine %s: %w", dir, err)
	}
	for _, d := range []string{filepath.Dir(dir), qdir} {
		if err := fs.SyncDir(d); err != nil {
			return dst, fmt.Errorf("jobs: quarantine %s: sync dir: %w", dir, err)
		}
	}
	msg := ""
	if reason != nil {
		msg = reason.Error()
	}
	b, err := json.MarshalIndent(quarantineReason{Dir: dir, Reason: msg}, "", "  ")
	if err != nil {
		return dst, fmt.Errorf("jobs: encode quarantine reason: %w", err)
	}
	if err := iofault.WriteFileAtomic(fs, filepath.Join(dst, "reason.json"), append(b, '\n')); err != nil {
		return dst, fmt.Errorf("jobs: write quarantine reason: %w", err)
	}
	return dst, nil
}
