package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pathmark/internal/iofault"
)

func TestTraceNil(t *testing.T) {
	var tr *Trace
	tr.Event("x", map[string]int64{"a": 1}, nil)
	if tr.ID() != "" {
		t.Errorf("nil ID = %q", tr.ID())
	}
	if err := tr.Err(); err != nil {
		t.Errorf("nil Err = %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
}

func TestTraceEvents(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf, "job-1", false)
	tr.Event("job.open", map[string]int64{"suspects": 3}, nil)
	tr.Event("grade.done", map[string]int64{"s": 0, "k": 1}, map[string]string{"err": "timeout"})
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	evs := DecodeTraceEvents(buf.Bytes())
	if len(evs) != 2 {
		t.Fatalf("decoded %d events, want 2", len(evs))
	}
	if evs[0].Trace != "job-1" || evs[0].Event != "job.open" || evs[0].Attrs["suspects"] != 3 {
		t.Errorf("event 0 = %+v", evs[0])
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Errorf("seq = %d, %d, want 1, 2", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].TSUS == 0 {
		t.Error("non-deterministic event has no timestamp")
	}
	if evs[1].Labels["err"] != "timeout" {
		t.Errorf("event 1 labels = %v", evs[1].Labels)
	}
}

// TestTraceDeterministic: with the deterministic flag, an event's bytes
// depend only on its content — no seq, no timestamp — so two streams
// recording the same events in different orders are equal after a sort.
func TestTraceDeterministic(t *testing.T) {
	emit := func(order []int) []byte {
		var buf bytes.Buffer
		tr := NewTrace(&buf, "job-1", true)
		for _, i := range order {
			tr.Event("grade.done", map[string]int64{"s": int64(i)}, nil)
		}
		return buf.Bytes()
	}
	a, b := emit([]int{0, 1, 2}), emit([]int{2, 0, 1})
	sortLines := func(p []byte) string {
		lines := strings.Split(strings.TrimSpace(string(p)), "\n")
		for i := 0; i < len(lines); i++ {
			for j := i + 1; j < len(lines); j++ {
				if lines[j] < lines[i] {
					lines[i], lines[j] = lines[j], lines[i]
				}
			}
		}
		return strings.Join(lines, "\n")
	}
	if sortLines(a) != sortLines(b) {
		t.Errorf("deterministic streams differ after sort:\n%s\nvs\n%s", a, b)
	}
	if strings.Contains(string(a), "seq") || strings.Contains(string(a), "ts_us") {
		t.Errorf("deterministic stream carries schedule stampings:\n%s", a)
	}
}

func TestTraceConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf, "job-c", false)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Event("tick", map[string]int64{"w": int64(w)}, nil)
			}
		}(w)
	}
	wg.Wait()
	evs := DecodeTraceEvents(buf.Bytes())
	if len(evs) != 400 {
		t.Fatalf("decoded %d events, want 400 (stream torn by concurrent writes?)", len(evs))
	}
	seen := make(map[int64]bool)
	for _, ev := range evs {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

// TestTraceFileAppend: reopening a trace file continues the stream, the
// resume-across-process-lifetimes behavior jobs rely on.
func TestTraceFileAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tr, err := OpenTraceFile(path, "job-f", false)
	if err != nil {
		t.Fatal(err)
	}
	tr.Event("job.open", nil, nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr.Event("after.close", nil, nil) // dropped, must not panic
	tr2, err := OpenTraceFile(path, "job-f", false)
	if err != nil {
		t.Fatal(err)
	}
	tr2.Event("job.done", nil, nil)
	if err := tr2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	evs := DecodeTraceEvents(data)
	if len(evs) != 2 || evs[0].Event != "job.open" || evs[1].Event != "job.done" {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Trace != evs[1].Trace {
		t.Errorf("trace ID changed across reopen: %q vs %q", evs[0].Trace, evs[1].Trace)
	}
}

// TestTraceTornTail: a truncated final line (torn write) must not poison
// the parse — everything before it decodes.
func TestTraceTornTail(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf, "job-t", false)
	tr.Event("a", nil, nil)
	tr.Event("b", nil, nil)
	whole := buf.Bytes()
	torn := whole[:len(whole)-5]
	evs := DecodeTraceEvents(torn)
	if len(evs) != 1 || evs[0].Event != "a" {
		t.Fatalf("torn-tail decode = %+v, want just event a", evs)
	}
	if evs := DecodeTraceEvents([]byte("not json\n")); len(evs) != 0 {
		t.Errorf("garbage decoded to %+v", evs)
	}
}

// TestCompleteTraceLines: the output must hold exactly the complete,
// well-formed lines — checksum frames verified and stripped — ending at
// the first torn or malformed line; the byte-level counterpart of the
// torn-tail decode rule, used by servers relaying a live stream.
func TestCompleteTraceLines(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf, "job-c", false)
	tr.Event("a", nil, nil)
	tr.Event("b", nil, nil)
	whole := append([]byte(nil), buf.Bytes()...)

	// deframe strips the 9-byte checksum prefix from each framed line.
	deframe := func(framed []byte) []byte {
		var out []byte
		for _, line := range bytes.SplitAfter(framed, []byte("\n")) {
			if len(line) > 9 {
				out = append(out, line[9:]...)
			}
		}
		return out
	}
	wholeNDJSON := deframe(whole)
	got := CompleteTraceLines(whole)
	if !bytes.Equal(got, wholeNDJSON) {
		t.Fatalf("complete stream = %q, want de-framed %q", got, wholeNDJSON)
	}
	if bytes.Contains(got, []byte(" {")) || !json.Valid(got[:bytes.IndexByte(got, '\n')]) {
		t.Fatalf("output is not bare ndjson: %q", got)
	}
	// The output is already bare ndjson, so relaying it through
	// CompleteTraceLines again is the identity — the serve daemon's trace
	// endpoint and pathmark top depend on this dual-accept.
	if again := CompleteTraceLines(got); !bytes.Equal(again, got) {
		t.Fatalf("relayed stream changed: %q vs %q", again, got)
	}
	// Torn tail: writer caught mid-append on the second line.
	firstLine := whole[:bytes.IndexByte(whole, '\n')+1]
	firstNDJSON := deframe(firstLine)
	torn := whole[:len(whole)-5]
	if got := CompleteTraceLines(torn); !bytes.Equal(got, firstNDJSON) {
		t.Fatalf("torn stream = %q, want first line only", got)
	}
	// A malformed middle line ends the valid prefix there, even though a
	// well-formed line follows — nothing past corruption is trusted.
	mixed := append(append([]byte(nil), firstLine...), []byte("not json\n")...)
	mixed = append(mixed, whole[len(firstLine):]...)
	if got := CompleteTraceLines(mixed); !bytes.Equal(got, firstNDJSON) {
		t.Fatalf("corrupt-middle stream = %q, want first line only", got)
	}
	if got := CompleteTraceLines(nil); len(got) != 0 {
		t.Fatalf("nil stream = %q, want empty", got)
	}
}

// errWriter fails after n successful writes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

func TestTraceWriteErrorRetained(t *testing.T) {
	tr := NewTrace(&errWriter{n: 1}, "job-e", false)
	tr.Event("ok", nil, nil)
	tr.Event("fails", nil, nil)
	tr.Event("dropped", nil, nil) // after the failure: silently dropped
	if err := tr.Err(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Err = %v, want disk full", err)
	}
}

func TestTraceEventJSONShape(t *testing.T) {
	var buf bytes.Buffer
	NewTrace(&buf, "id", true).Event("e", map[string]int64{"b": 2, "a": 1}, map[string]string{"k": "v"})
	// Each line is checksum-framed on disk: verify the frame, then inspect
	// the JSON payload it protects.
	line := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	payload, err := iofault.Unframe(line)
	if err != nil {
		t.Fatalf("trace line not checksum-framed: %v (%q)", err, line)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(payload, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"trace", "event", "attrs", "labels"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("serialized event missing %q: %s", key, payload)
		}
	}
	// Sorted map keys make the line content-deterministic.
	if s := string(payload); strings.Index(s, `"a"`) > strings.Index(s, `"b"`) {
		t.Errorf("attr keys not sorted: %s", s)
	}
}

// BenchmarkTraceEvent prices one stage event (the grade.scan shape, the
// largest in the vocabulary). Events are per-grade, never per-window, so
// this cost amortizes over the thousands of windows each grade scans.
func BenchmarkTraceEvent(b *testing.B) {
	tr := NewTrace(io.Discard, "bench", false)
	attrs := map[string]int64{
		"s": 1, "k": 2, "windows": 6565, "decrypted": 2456, "valid": 16,
		"reject_popcount": 2900, "reject_transitions": 460, "reject_phase": 730, "reject_framing": 2440,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Event("grade.scan", attrs, nil)
	}
}
