package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
)

// The journal is the job's write-ahead log: one CRC32C-framed JSON object
// per line, first a header identifying the job (content digest + matrix
// dimensions), then one grade record per completed (suspect, key) cell,
// appended and fsync'd the moment the grade finishes. Crash recovery is
// line-oriented: a process killed mid-append leaves at most one torn
// line at the tail, which replay discards (and truncates away before the
// next append, so the file never accretes garbage mid-stream). A record
// that fails its checksum while a later record verifies is not a torn
// tail but mid-log corruption — replay surfaces a typed
// *iofault.CorruptError and the daemon quarantines the job instead of
// resuming over rotten state. Records carry everything needed to
// reconstruct the grade's outcome — the serialized recognition, the
// error string, the attempt count — so a resumed run re-executes only
// the cells with no record. The storage mechanics (fsync'd appends,
// checksum framing, torn-tail truncation, fail-stop sync) live in the
// shared WAL type; this file owns the grade journal's schema and replay
// rules.

// journalVersion is bumped on any incompatible format change; replay
// refuses other versions rather than guessing. v2 added the per-record
// checksum frame.
const journalVersion = 2

// maxJournalDim bounds the suspect/key counts a journal header may
// declare. Replay allocates an outcome matrix from these dimensions, so
// an unvalidated header in a corrupted file could demand gigabytes; no
// realistic corpus comes near 2^20 on a side.
const maxJournalDim = 1 << 20

// journalHeader is the journal's first line.
type journalHeader struct {
	V        int    `json:"v"`
	Type     string `json:"type"` // "header"
	Job      string `json:"job"`  // hex spec digest
	Suspects int    `json:"suspects"`
	Keys     int    `json:"keys"`
}

// gradeRecord journals one completed grade. Skipped marks a breaker
// skip; Err is the final attempt's error message ("" = clean success).
type gradeRecord struct {
	Type     string           `json:"type"` // "grade"
	S        int              `json:"s"`
	K        int              `json:"k"`
	Attempts int              `json:"attempts,omitempty"`
	Skipped  bool             `json:"skipped,omitempty"`
	Err      string           `json:"err,omitempty"`
	Rec      *recognitionJSON `json:"rec,omitempty"`
}

// ErrJournalMismatch reports a journal whose header does not match the
// job spec being opened over it — a different corpus, key set, or
// grading options. Resuming over it would silently mix two jobs'
// results, so Open refuses.
var ErrJournalMismatch = errors.New("jobs: journal belongs to a different job")

// gradeReplay is the grade journal's side of OpenWAL: header checks the
// first line's shape and, when want is set, that it names this job;
// record keeps the grades that fall inside the header's matrix. A zero
// want accepts any well-formed header (the fuzz target's view).
type gradeReplay struct {
	want journalHeader
	h    journalHeader
	recs []gradeRecord
}

func (g *gradeReplay) header(line []byte) error {
	if err := json.Unmarshal(line, &g.h); err != nil {
		return fmt.Errorf("jobs: journal header: %w", err)
	}
	h := g.h
	switch {
	case h.Type != "header":
		return errors.New("jobs: journal does not start with a header record")
	case h.V != journalVersion:
		return fmt.Errorf("jobs: journal version %d, want %d", h.V, journalVersion)
	case h.Suspects <= 0 || h.Suspects > maxJournalDim || h.Keys <= 0 || h.Keys > maxJournalDim:
		return fmt.Errorf("jobs: journal dimensions %dx%d out of range", h.Suspects, h.Keys)
	case g.want.Job != "" && h != g.want:
		return fmt.Errorf("%w: journal job %s (%dx%d), spec job %s (%dx%d)",
			ErrJournalMismatch, h.Job, h.Suspects, h.Keys, g.want.Job, g.want.Suspects, g.want.Keys)
	}
	return nil
}

// record stops the replay at a framed record that is not an in-range
// grade: it cannot belong to this job, so everything after it is suspect.
func (g *gradeReplay) record(line []byte) (bool, error) {
	var r gradeRecord
	if json.Unmarshal(line, &r) != nil || r.Type != "grade" ||
		r.S < 0 || r.S >= g.h.Suspects || r.K < 0 || r.K >= g.h.Keys {
		return false, nil
	}
	g.recs = append(g.recs, r)
	return true, nil
}

// JournalPath, ResultPath, TracePath and StreamPath name the files a job
// keeps in its directory: the write-ahead journal (correctness), the
// canonical result manifest (the artifact), the telemetry event stream
// (observability; losing it loses nothing but visibility), and — for
// stream jobs — the chunk journal of the live trace upload. These are
// the single source of artifact names for every campaign engine layered
// on the jobs directory contract (the tournament engine included), so
// the layers cannot silently diverge on file naming.
func JournalPath(dir string) string { return filepath.Join(dir, "journal.jsonl") }
func ResultPath(dir string) string  { return filepath.Join(dir, "result.json") }
func TracePath(dir string) string   { return filepath.Join(dir, "trace.jsonl") }
func StreamPath(dir string) string  { return filepath.Join(dir, "stream.jsonl") }
