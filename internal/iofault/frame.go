package iofault

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
)

// Per-record framing for the JSONL logs. Every line of a framed log —
// header included — is
//
//	crc32c(payload) as 8 lowercase hex chars, one space, payload, '\n'
//
// The checksum is CRC32C (Castagnoli) over the payload bytes only, so a
// record's frame depends on nothing but its content: framed logs stay
// sort-comparable across worker counts exactly like the unframed ones
// were. The frame is what lets replay tell a torn tail (the writer died
// mid-append; truncate and continue) from mid-log corruption (bytes
// rotted or were overwritten after they were synced; quarantine): a
// complete line that fails its checksum, followed by at least one later
// line that verifies, cannot be a torn tail.

// frameOverhead is the per-line cost of the frame: 8 hex digits + space.
const frameOverhead = 9

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends payload's framed wire form (checksum, space,
// payload, newline) to dst and returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	var sum [4]byte
	crc := crc32.Checksum(payload, castagnoli)
	sum[0], sum[1], sum[2], sum[3] = byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc)
	var hexSum [8]byte
	hex.Encode(hexSum[:], sum[:])
	dst = append(dst, hexSum[:]...)
	dst = append(dst, ' ')
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// Frame returns payload's framed wire form.
func Frame(payload []byte) []byte {
	return AppendFrame(make([]byte, 0, len(payload)+frameOverhead+1), payload)
}

// Unframe verifies one complete line (without its trailing newline) and
// returns the payload. The returned slice aliases line.
func Unframe(line []byte) ([]byte, error) {
	if len(line) < frameOverhead || line[8] != ' ' {
		return nil, errors.New("iofault: line carries no checksum frame")
	}
	var sum [4]byte
	if _, err := hex.Decode(sum[:], line[:8]); err != nil {
		return nil, errors.New("iofault: malformed checksum frame")
	}
	want := uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3])
	payload := line[frameOverhead:]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("iofault: checksum mismatch: line carries %08x, payload sums to %08x", want, got)
	}
	return payload, nil
}

// CorruptError reports verified mid-log corruption: a complete record
// line failed its checksum while a later line verified, so the damage
// cannot be a torn tail. Replay surfaces it instead of truncating, and
// the serve daemon quarantines the job it belongs to.
type CorruptError struct {
	Path   string // log file, when known
	Offset int64  // byte offset of the corrupt line
	Line   int64  // 1-based line number of the corrupt line
	Reason string
}

func (e *CorruptError) Error() string {
	where := e.Path
	if where == "" {
		where = "log"
	}
	return fmt.Sprintf("iofault: %s corrupt at line %d (offset %d): %s", where, e.Line, e.Offset, e.Reason)
}

// IsCorrupt reports whether err wraps a *CorruptError.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// LogScanner walks the complete, checksum-verified lines of a framed log
// buffer, one payload per Next. It stops at the first line that is
// unterminated (torn tail: Err stays nil, Good marks the valid prefix)
// or fails verification; a failed line followed by at least one later
// complete line that verifies is classified as mid-log corruption and
// reported through Err. jobs.OpenWAL replays the grade journal, the
// stream chunk journal and the tournament cell journal through this one
// walk, so the torn-vs-corrupt rule cannot drift between them.
type LogScanner struct {
	data []byte
	path string
	pos  int64
	line int64
	err  *CorruptError
	done bool
}

// NewLogScanner scans data; path is used only to attribute corruption.
func NewLogScanner(data []byte, path string) *LogScanner {
	return &LogScanner{data: data, path: path}
}

// Next returns the next verified payload. The returned slice aliases the
// scanned buffer. After it returns false, consult Err.
func (s *LogScanner) Next() ([]byte, bool) {
	if s.done {
		return nil, false
	}
	rest := s.data[s.pos:]
	i := bytes.IndexByte(rest, '\n')
	if i < 0 {
		s.done = true // torn or absent tail
		return nil, false
	}
	payload, err := Unframe(rest[:i])
	if err != nil {
		s.done = true
		// Torn-vs-corrupt: junk at the tail of a killed process can
		// contain newlines, so a bad complete line alone is still treated
		// as a torn tail. Only a later verifying line proves the log
		// continued past this one — then the damage is mid-log.
		la := rest[i+1:]
		for {
			j := bytes.IndexByte(la, '\n')
			if j < 0 {
				break
			}
			if _, lerr := Unframe(la[:j]); lerr == nil {
				s.err = &CorruptError{Path: s.path, Offset: s.pos, Line: s.line + 1, Reason: err.Error()}
				break
			}
			la = la[j+1:]
		}
		return nil, false
	}
	s.pos += int64(i) + 1
	s.line++
	return payload, true
}

// Good is the byte length of the verified prefix consumed so far — the
// offset replay truncates a torn log back to.
func (s *LogScanner) Good() int64 { return s.pos }

// Err returns the corruption verdict: nil after a clean walk or a torn
// tail, a *CorruptError when mid-log corruption was proven.
func (s *LogScanner) Err() error {
	if s.err == nil {
		return nil
	}
	return s.err
}
