package jobs

import (
	"errors"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathmark/internal/crt"
	"pathmark/internal/iofault"
	"pathmark/internal/wm"
)

func testHeader() journalHeader {
	return journalHeader{V: journalVersion, Type: "header", Job: "deadbeef", Suspects: 3, Keys: 2}
}

func testRecords() []gradeRecord {
	return []gradeRecord{
		{Type: "grade", S: 0, K: 0, Attempts: 1, Rec: &recognitionJSON{Watermark: "12345", Modulus: "99991", FullCoverage: true, Windows: 100, Confidence: 1}},
		{Type: "grade", S: 0, K: 1, Attempts: 3, Err: "wm: trace stage: boom"},
		{Type: "grade", S: 2, K: 1, Attempts: 0, Skipped: true, Err: "jobs: key 1 skipped: circuit breaker open after 2 consecutive hard failures"},
	}
}

func writeTestJournal(t *testing.T, syncEach bool) (path string) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := CreateWAL(iofault.OS, path, testHeader(), syncEach)
	if err != nil {
		t.Fatalf("CreateWAL: %v", err)
	}
	for _, r := range testRecords() {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

// openTestJournal replays the journal at path as the job testHeader
// names and reopens it for append, the way Open does.
func openTestJournal(path string, syncEach bool) (*WAL, journalHeader, []gradeRecord, error) {
	g := &gradeReplay{want: testHeader()}
	w, err := OpenWAL(iofault.OS, path, testHeader(), syncEach, g.header, g.record)
	return w, g.h, g.recs, err
}

func TestJournalRoundTrip(t *testing.T) {
	for _, syncEach := range []bool{false, true} {
		path := writeTestJournal(t, syncEach)
		j, h, recs, err := openTestJournal(path, syncEach)
		if err != nil {
			t.Fatalf("openTestJournal: %v", err)
		}
		defer j.Close()
		if h != testHeader() {
			t.Errorf("header round trip: got %+v", h)
		}
		want := testRecords()
		if len(recs) != len(want) {
			t.Fatalf("got %d records, want %d", len(recs), len(want))
		}
		for i := range want {
			if recs[i].S != want[i].S || recs[i].K != want[i].K ||
				recs[i].Err != want[i].Err || recs[i].Skipped != want[i].Skipped ||
				recs[i].Attempts != want[i].Attempts {
				t.Errorf("record %d: got %+v want %+v", i, recs[i], want[i])
			}
		}
		if recs[0].Rec == nil || recs[0].Rec.Watermark != "12345" {
			t.Errorf("record 0 lost its recognition: %+v", recs[0].Rec)
		}
		// The reopened journal keeps appending where the old one stopped.
		if err := j.Append(gradeRecord{Type: "grade", S: 1, K: 0}); err != nil {
			t.Fatalf("append after reopen: %v", err)
		}
		j.Close()
		if _, _, recs2, err := openTestJournal(path, syncEach); err != nil || len(recs2) != 4 {
			t.Errorf("after reopen+append: %d records, err %v; want 4, nil", len(recs2), err)
		}
	}
}

// TestJournalTornTail is the kill -9 mid-append scenario: a partial line
// at the tail (no newline, or garbage) is discarded on replay, the file
// is truncated back to the valid prefix, and subsequent appends produce
// a journal that replays cleanly.
func TestJournalTornTail(t *testing.T) {
	cases := []struct {
		name string
		tail string
	}{
		{"unterminated record", string(iofault.Frame([]byte(`{"type":"grade","s":1,"k":0,"attempts":1}`)))[:20]},
		{"terminated garbage", "{garbage}\n"},
		{"binary junk", "\x00\xff\x17torn"},
		{"unframed record", `{"type":"grade","s":1,"k":0}` + "\n"},
		{"framed wrong shape", string(iofault.Frame([]byte(`[1,2,3]`)))},
		{"framed out-of-range coordinates", string(iofault.Frame([]byte(`{"type":"grade","s":99,"k":0}`)))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTestJournal(t, false)
			clean, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(clean, tc.tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			j, _, recs, err := openTestJournal(path, false)
			if err != nil {
				t.Fatalf("open over torn tail: %v", err)
			}
			if len(recs) != len(testRecords()) {
				t.Errorf("got %d records, want %d (torn tail must be dropped, valid prefix kept)", len(recs), len(testRecords()))
			}
			if err := j.Append(gradeRecord{Type: "grade", S: 1, K: 1}); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			j.Close()
			// The torn bytes are gone from disk: replay sees the original
			// records plus the new one, nothing else.
			if _, _, recs2, err := openTestJournal(path, false); err != nil || len(recs2) != len(testRecords())+1 {
				t.Errorf("after recovery+append: %d records, err %v", len(recs2), err)
			}
		})
	}
}

func TestJournalHeaderValidation(t *testing.T) {
	framed := func(payload string) string { return string(iofault.Frame([]byte(payload))) }
	cases := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"no newline", framed(`{"v":2,"type":"header","job":"x","suspects":1,"keys":1}`)[:30]},
		{"not json", framed("hello")},
		{"unframed v1 header", `{"v":1,"type":"header","job":"x","suspects":1,"keys":1}` + "\n"},
		{"wrong type", framed(`{"v":2,"type":"grade","s":0,"k":0}`)},
		{"wrong version", framed(`{"v":99,"type":"header","job":"x","suspects":1,"keys":1}`)},
		{"zero dims", framed(`{"v":2,"type":"header","job":"x","suspects":0,"keys":1}`)},
		{"huge dims", framed(`{"v":2,"type":"header","job":"x","suspects":99999999,"keys":99999999}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, err := decodeGradeJournal([]byte(tc.data)); err == nil {
				t.Errorf("unusable header accepted: %q", tc.data)
			}
		})
	}
}

// TestJournalCorruptHeader covers the satellite case of a corrupted
// *header* line (first line, not tail): a header that fails its checksum
// while later records verify is mid-log corruption, reported as a typed
// *iofault.CorruptError rather than the generic missing-header error.
func TestJournalCorruptHeader(t *testing.T) {
	path := writeTestJournal(t, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the header payload; its frame no longer
	// verifies, but every grade record after it still does.
	i := strings.IndexByte(string(data), '\n') - 2
	data[i] ^= 0x01
	_, _, _, derr := decodeGradeJournal(data)
	if !iofault.IsCorrupt(derr) {
		t.Fatalf("corrupt header surfaced as %v, want *iofault.CorruptError", derr)
	}
}

func TestDecodeJournalDetectsMidLogCorruption(t *testing.T) {
	path := writeTestJournal(t, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the middle record. The records after it still verify, so
	// this cannot be a torn tail: decode keeps the prefix before the
	// damage but reports a typed corruption error.
	lines := strings.SplitAfter(string(data), "\n")
	lines[2] = "{torn}\n"
	h, recs, good, derr := decodeGradeJournal([]byte(strings.Join(lines, "")))
	if !iofault.IsCorrupt(derr) {
		t.Fatalf("mid-log corruption surfaced as %v, want *iofault.CorruptError", derr)
	}
	if h != testHeader() || len(recs) != 1 {
		t.Errorf("got %d records before the corruption, want 1", len(recs))
	}
	wantGood := int64(len(lines[0]) + len(lines[1]))
	if good != wantGood {
		t.Errorf("good = %d, want %d", good, wantGood)
	}
}

// TestRecognitionSerdeRoundTrip pins the canonical-form invariant:
// encode → decode → encode is the identity on bytes, including big.Int
// watermarks past 2^53, surviving statements, and stage errors.
func TestRecognitionSerdeRoundTrip(t *testing.T) {
	w, _ := new(big.Int).SetString("123456789012345678901234567890", 10)
	rec := &wm.Recognition{
		Watermark:         w,
		Modulus:           new(big.Int).Lsh(big.NewInt(1), 100),
		FullCoverage:      false,
		Windows:           123456,
		ValidStatements:   77,
		UniqueStatements:  41,
		VotedOut:          3,
		Survivors:         38,
		TraceBits:         987654,
		PrefilterRejected: 1000,
		Surviving:         []crt.Statement{{I: 0, J: 2, X: 12345}, {I: 3, J: 3, X: ^uint64(0)}},
		Confidence:        0.625,
		Degraded:          true,
		StageErrors: []*wm.StageError{
			{Stage: "scan", Worker: 2, Cause: errors.New("recovered scan panic: boom")},
			{Stage: "vote", Worker: -1},
		},
	}
	enc := encodeRecognition(rec)
	back, err := decodeRecognition(enc)
	if err != nil {
		t.Fatalf("decodeRecognition: %v", err)
	}
	if !sameRec(rec, back) {
		t.Errorf("round trip not identity:\n enc  %+v\n back %+v", enc, encodeRecognition(back))
	}
	if back.Watermark.Cmp(w) != 0 {
		t.Errorf("watermark lost precision: %v", back.Watermark)
	}
	if len(back.StageErrors) != 2 || back.StageErrors[0].Cause.Error() != "recovered scan panic: boom" {
		t.Errorf("stage errors mangled: %+v", back.StageErrors)
	}
	if nilRec, err := decodeRecognition(nil); err != nil || nilRec != nil {
		t.Errorf("nil recognition must round trip to nil")
	}
	if _, err := decodeRecognition(&recognitionJSON{Watermark: "not-a-number"}); err == nil {
		t.Error("bad watermark accepted")
	}
}
