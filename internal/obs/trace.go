package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"

	"pathmark/internal/iofault"
)

// This file is the trace-context side of the observability layer: where
// registries aggregate (counters summed over a whole run), traces
// narrate — an append-only JSONL stream of discrete events, each stamped
// with the trace ID that ties every span, retry, breaker trip, and
// per-layer reject back to one job or request. The jobs engine persists
// one such stream per job as trace.jsonl next to journal.jsonl, and the
// serve daemon exposes it verbatim at GET /jobs/{id}/trace.
//
// Two properties mirror the registry design:
//
//   - Nil-safety. Every method on a nil *Trace is a no-op, so
//     instrumented call sites never guard the trace behind their own
//     flags.
//
//   - Deterministic content. Event attributes record input-derived
//     quantities (windows scanned, rejects per layer), and the
//     deterministic mode omits the two schedule-dependent stampings —
//     sequence numbers and wall-clock timestamps. The remaining event
//     *set* is then byte-identical across worker counts; only the line
//     order varies, so a sort-then-diff proves two runs saw the same
//     metrics.

// TraceEvent is one line of a trace stream. Attrs carries the numeric
// payload (always input-derived quantities), Labels the string payload
// (error messages, peer trace IDs). encoding/json emits map keys sorted,
// so an event's serialized form depends only on its content.
type TraceEvent struct {
	Trace  string            `json:"trace"`
	Seq    int64             `json:"seq,omitempty"`
	TSUS   int64             `json:"ts_us,omitempty"` // unix microseconds
	Event  string            `json:"event"`
	Attrs  map[string]int64  `json:"attrs,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
}

// Trace is an append-only event stream bound to one trace ID. All
// methods are safe for concurrent use and no-ops on a nil receiver.
// Write failures never propagate to the instrumented code path: the
// first error is retained (see Err) and later events are dropped —
// telemetry must not take down the pipeline it observes.
type Trace struct {
	id  string
	det bool

	mu     sync.Mutex
	w      io.Writer
	closer io.Closer
	seq    int64
	err    error
}

// NewTrace wraps an arbitrary writer as a trace stream. With
// deterministic set, events carry no sequence numbers or timestamps.
func NewTrace(w io.Writer, id string, deterministic bool) *Trace {
	return &Trace{id: id, det: deterministic, w: w}
}

// OpenTraceFile opens (or creates) a trace file in append mode, so a
// resumed job's second process lifetime continues the same stream under
// the same trace ID — the on-disk file then carries one ID across every
// lifetime that touched the job.
func OpenTraceFile(path, id string, deterministic bool) (*Trace, error) {
	return OpenTraceFileFS(iofault.OS, path, id, deterministic)
}

// OpenTraceFileFS is OpenTraceFile over an explicit filesystem, so the
// trace writer shares whatever fault-injecting FS its job runs on.
func OpenTraceFileFS(fs iofault.FS, path, id string, deterministic bool) (*Trace, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	t := NewTrace(f, id, deterministic)
	t.closer = f
	return t, nil
}

// ID returns the trace ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Event appends one event. attrs and labels may be nil; both are
// serialized with sorted keys. Events after a write failure are dropped.
func (t *Trace) Event(name string, attrs map[string]int64, labels map[string]string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil || t.w == nil {
		return
	}
	ev := TraceEvent{Trace: t.id, Event: name, Attrs: attrs, Labels: labels}
	if !t.det {
		t.seq++
		ev.Seq = t.seq
		ev.TSUS = time.Now().UnixMicro()
	}
	b, err := json.Marshal(ev)
	if err != nil {
		t.err = err
		return
	}
	// Events are checksum-framed like every other log line (see
	// internal/iofault): the frame is a pure function of the payload, so
	// deterministic streams stay sort-comparable across worker counts.
	if _, err := t.w.Write(iofault.Frame(b)); err != nil {
		t.err = err
	}
}

// Err returns the first write or encode failure (nil while healthy).
func (t *Trace) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close releases the underlying file when the trace owns one and
// returns the first retained error. Idempotent; no-op on nil.
func (t *Trace) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closer != nil {
		if cerr := t.closer.Close(); cerr != nil && t.err == nil {
			t.err = cerr
		}
		t.closer = nil
		t.w = nil
	} else {
		t.w = nil // drop further events after an explicit Close
	}
	return t.err
}

// scanTraceLines walks the stream's complete, well-formed event lines in
// order, calling fn (when non-nil) with each decoded event and its
// payload bytes (the line with any checksum frame stripped). It accepts
// both on-disk framed lines and bare ndjson — trace bytes relayed over
// HTTP arrive de-framed — and is the one place the torn-tail stopping
// rule lives: a malformed, unverified, or unterminated line — a writer
// caught mid-append — ends the walk, and everything before it stands.
func scanTraceLines(data []byte, fn func(TraceEvent, []byte)) {
	for {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return
		}
		payload, err := iofault.Unframe(data[:i])
		if err != nil {
			payload = data[:i] // bare ndjson (HTTP-relayed)
		}
		var ev TraceEvent
		if json.Unmarshal(payload, &ev) != nil || ev.Event == "" {
			return
		}
		if fn != nil {
			fn(ev, payload)
		}
		data = data[i+1:]
	}
}

// DecodeTraceEvents parses a trace stream, tolerating a torn tail the
// way journal replay does: malformed or unterminated lines end the
// parse, everything before them is returned. A trace is telemetry, not
// ground truth, so there is no error to report — partial evidence is
// still evidence.
func DecodeTraceEvents(data []byte) []TraceEvent {
	var evs []TraceEvent
	scanTraceLines(data, func(ev TraceEvent, _ []byte) { evs = append(evs, ev) })
	return evs
}

// CompleteTraceLines renders the stream's complete, well-formed event
// lines as bare ndjson, checksum frames verified and stripped — the
// raw-bytes counterpart of DecodeTraceEvents for servers that relay a
// stream while its writer is still appending: the reader never sees the
// torn last line, and never sees the on-disk framing either.
func CompleteTraceLines(data []byte) []byte {
	out := make([]byte, 0, len(data))
	scanTraceLines(data, func(_ TraceEvent, payload []byte) {
		out = append(out, payload...)
		out = append(out, '\n')
	})
	return out
}
