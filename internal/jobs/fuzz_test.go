package jobs

import (
	"bytes"
	"os"
	"testing"

	"pathmark/internal/iofault"
)

// fuzzSeedJournal builds the canonical framed v2 journal the fuzz corpus
// seeds from.
func fuzzSeedJournal() []byte {
	var b []byte
	for _, payload := range []string{
		`{"v":2,"type":"header","job":"abc123","suspects":3,"keys":2}`,
		`{"type":"grade","s":0,"k":0,"attempts":1,"rec":{"watermark":"12345","modulus":"99991","full_coverage":true,"windows":10,"confidence":1}}`,
		`{"type":"grade","s":0,"k":1,"attempts":3,"err":"wm: trace stage: boom"}`,
		`{"type":"grade","s":2,"k":1,"skipped":true,"err":"jobs: key 1 skipped: circuit breaker open after 2 consecutive hard failures"}`,
	} {
		b = iofault.AppendFrame(b, []byte(payload))
	}
	return b
}

// decodeGradeJournal walks grade-journal bytes through the shared replay
// with the grade callbacks, accepting any well-formed header.
func decodeGradeJournal(data []byte) (journalHeader, []gradeRecord, int64, error) {
	g := &gradeReplay{}
	good, _, err := replayLog(data, "journal.jsonl", g.header, g.record)
	return g.h, g.recs, good, err
}

// FuzzJournalDecode is the resilience contract of journal recovery: for
// ANY byte sequence — truncated mid-record, bit-flipped, concatenated
// garbage — the shared replay walker (replayLog) with the grade callbacks
// must return without panicking, report a valid prefix length, and
// behave as a fixpoint (re-decoding the valid prefix yields the same
// header and records, cleanly). Corruption proven mid-log surfaces as a
// typed error, but the prefix before it is still valid resumable state.
// Partial data means partial resume, never a crash.
func FuzzJournalDecode(f *testing.F) {
	// Seed with a realistic journal...
	valid := fuzzSeedJournal()
	f.Add(valid)
	// ...its truncations...
	for cut := 0; cut < len(valid); cut += 17 {
		f.Add(valid[:cut])
	}
	// ...corruptions (frame bytes, payload bytes, tail)...
	for _, i := range []int{5, 61, 80, len(valid) - 3} {
		c := append([]byte(nil), valid...)
		c[i] ^= 0x40
		f.Add(c)
	}
	// ...and structural edge cases, framed and raw.
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte("{}\n"))
	f.Add(iofault.Frame([]byte("{}")))
	f.Add([]byte(`{"v":1,"type":"header","job":"x","suspects":1,"keys":1}` + "\n"))
	f.Add(iofault.Frame([]byte(`{"v":2,"type":"header","job":"x","suspects":1000000000000,"keys":1}`)))
	f.Add(append(
		iofault.Frame([]byte(`{"v":2,"type":"header","job":"x","suspects":1,"keys":1}`)),
		iofault.Frame([]byte(`{"type":"grade","s":5,"k":5}`))...))
	f.Add(bytes.Repeat([]byte(`{"type":"grade"}`), 100))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, recs, good, err := decodeGradeJournal(data)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good=%d outside [0,%d]", good, len(data))
		}
		if err != nil && (!iofault.IsCorrupt(err) || good == 0) {
			return // unusable header (or corrupt one): no state to validate
		}
		// A corruption verdict still returns the valid prefix before the
		// damage; everything below must hold for it too.
		if h.Suspects <= 0 || h.Suspects > maxJournalDim || h.Keys <= 0 || h.Keys > maxJournalDim {
			t.Fatalf("accepted header with out-of-range dims: %+v", h)
		}
		for i, r := range recs {
			if r.S < 0 || r.S >= h.Suspects || r.K < 0 || r.K >= h.Keys {
				t.Fatalf("record %d out of the header's range: %+v vs %+v", i, r, h)
			}
			// Recognition payloads must decode (or fail) without panic.
			decodeRecognition(r.Rec)
		}
		// Fixpoint: the valid prefix re-decodes cleanly to the same state —
		// this is exactly what a resume after tail truncation sees.
		h2, recs2, good2, err2 := decodeGradeJournal(data[:good])
		if err2 != nil {
			t.Fatalf("valid prefix no longer decodes: %v", err2)
		}
		if h2 != h || len(recs2) != len(recs) || good2 != good {
			t.Fatalf("prefix decode differs: header %+v vs %+v, %d vs %d records, good %d vs %d",
				h2, h, len(recs2), len(recs), good2, good)
		}
	})
}

// TestFuzzSeedsPass runs the seed corpus through the fuzz body once in
// normal test mode, so the contract is exercised even when the fuzz
// engine is not.
func TestFuzzSeedsPass(t *testing.T) {
	// A quick structural check on the canonical seed: it decodes fully.
	valid := fuzzSeedJournal()
	h, recs, good, err := decodeGradeJournal(valid)
	if err != nil || h.Suspects != 3 || len(recs) != 3 || good != int64(len(valid)) {
		t.Fatalf("canonical journal did not decode: h=%+v recs=%d good=%d err=%v", h, len(recs), good, err)
	}
	// A v1 (unframed) journal is refused outright, not half-read.
	legacy := []byte(`{"v":1,"type":"header","job":"abc123","suspects":3,"keys":2}` + "\n")
	if _, _, _, err := decodeGradeJournal(legacy); err == nil {
		t.Fatal("unframed v1 journal accepted")
	}
	if _, err := os.Stat("testdata"); err == nil {
		t.Log("fuzz corpus present")
	}
}
