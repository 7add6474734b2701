package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"pathmark/internal/bitstring"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
)

// cmdWatch runs streaming recognition over a live trace: it tails a
// bit-string or event stream — from stdin (a pipe from the running
// suspect) or a growing file — feeding a wm.StreamRecognizer chunk by
// chunk. The moment the recognizer settles on an early verdict it prints
// the watermark and exits 0, usually long before the suspect finishes;
// at end of stream it flushes, which is bit-identical to batch
// recognition over the whole trace, and exits 0 on a match or 3 on
// none — the same convention as `pathmark recognize`.
//
// Stream formats:
//
//	bits    '0'/'1' characters, whitespace ignored (the `pathmark trace`
//	        bit-string, or a serve job's uploaded chunks)
//	events  one trace event per line: "branch METHOD PC" or
//	        "block METHOD BLOCK" (the `pathmark trace -events` dump);
//	        the recognizer decodes bits incrementally, carrying a branch
//	        split from its successor across chunk boundaries
func cmdWatch(args []string) int {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	var c common
	fs.StringVar(&c.input, "input", "", "secret input sequence, comma-separated integers")
	fs.StringVar(&c.key, "key", "6b72616d68746170:504c444932303034", "cipher key as hi:lo hex halves")
	fs.StringVar(&c.keyfile, "keyfile", "", "load the watermark key from this file (overrides -key/-input/-wbits)")
	fs.IntVar(&c.wbits, "wbits", 128, "watermark size in bits (fixes the prime basis)")
	c.obs.Register(fs)
	in := fs.String("in", "", "trace stream file (default: read stdin until EOF)")
	format := fs.String("format", "bits", "stream format: bits | events")
	follow := fs.Bool("follow", false, "with -in, keep polling the file for appended data until a verdict settles")
	interval := fs.Duration("interval", 250*time.Millisecond, "poll interval for -follow")
	workers := fs.Int("workers", 0, "scan goroutines per chunk (0 = one per CPU, 1 = serial)")
	checkEvery := fs.Int("check-every", 0, "windows between early-exit probes (0 = default, <0 = never probe)")
	settleChecks := fs.Int("settle-checks", 0, "stable probes required to settle below full coverage (0 = default)")
	minConf := fs.Float64("min-confidence", 0, "confidence to settle early without full coverage (0 = full coverage only)")
	fs.Parse(args)
	if *follow && *in == "" {
		fatal(fmt.Errorf("-follow needs -in FILE"))
	}

	reg := c.beginObs()
	rec := wm.NewStreamRecognizer(c.wmKey(), wm.StreamOpts{
		Workers:       *workers,
		CheckEvery:    *checkEvery,
		SettleChecks:  *settleChecks,
		MinConfidence: *minConf,
		Obs:           reg,
	})

	feed, err := newStreamFeeder(*format, rec)
	if err != nil {
		fatal(err)
	}
	if err := watchStream(rec, feed, *in, *follow, *interval); err != nil {
		fatal(err)
	}

	if rec.Settled() {
		v := rec.Verdict()
		fmt.Printf("early exit after %d of the stream's bits (%d probes)\n",
			v.TraceBits, rec.Probes())
		printWatchVerdict(v)
		c.finishObs()
		return exitOK
	}
	final, err := rec.Flush()
	if final == nil && err != nil {
		fatal(err)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathmark: degraded:", err)
	}
	fmt.Printf("end of stream at %d bits (%d probes)\n", final.TraceBits, rec.Probes())
	printWatchVerdict(final)
	c.finishObs()
	if final.Watermark == nil {
		return exitNoMatch
	}
	return exitOK
}

func printWatchVerdict(rec *wm.Recognition) {
	fmt.Printf("windows: %d, valid statements: %d (unique %d), survivors: %d\n",
		rec.Windows, rec.ValidStatements, rec.UniqueStatements, rec.Survivors)
	if rec.Watermark == nil {
		fmt.Println("no watermark recovered")
		return
	}
	fmt.Printf("full coverage: %v, confidence: %.4f\n", rec.FullCoverage, rec.Confidence)
	fmt.Printf("watermark: %d (0x%x)\n", rec.Watermark, rec.Watermark)
}

// watchStream pumps chunks from the source into feed until EOF (or, with
// follow, until the recognizer settles). Reads are chunked so the
// recognizer scans and probes while the stream is still flowing — the
// point of watching.
func watchStream(rec *wm.StreamRecognizer, feed *streamFeeder, path string, follow bool, interval time.Duration) error {
	buf := make([]byte, 64<<10)
	if path == "" {
		for {
			n, err := os.Stdin.Read(buf)
			if n > 0 {
				if ferr := feed.consume(buf[:n]); ferr != nil {
					return ferr
				}
				if rec.Settled() {
					return nil
				}
			}
			if errors.Is(err, io.EOF) {
				return feed.finish()
			}
			if err != nil {
				return err
			}
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var consumed int64
	for {
		n, err := f.Read(buf)
		if n > 0 {
			consumed += int64(n)
			if ferr := feed.consume(buf[:n]); ferr != nil {
				return ferr
			}
			if rec.Settled() {
				return nil
			}
		}
		if errors.Is(err, io.EOF) {
			if !follow {
				return feed.finish()
			}
			// The writer may still be appending — but if the file shrank
			// below what we already consumed, it was truncated or rotated
			// out from under us. Bits already fed cannot be unfed, and the
			// bytes now at our offset belong to a different stream: looping
			// forever (the old behavior) reports nothing; exit typed
			// instead so the operator can restart the watch.
			info, serr := os.Stat(path)
			if serr != nil {
				return fmt.Errorf("pathmark: watch: stat %s while following: %w", path, serr)
			}
			if info.Size() < consumed {
				return &truncatedStreamError{path: path, consumed: consumed, size: info.Size()}
			}
			time.Sleep(interval)
			continue
		}
		if err != nil {
			return err
		}
	}
}

// truncatedStreamError reports a followed stream file that shrank below
// the offset already consumed — truncation or rotation, either way the
// tail being appended now is not a continuation of the bits already fed.
type truncatedStreamError struct {
	path     string
	consumed int64
	size     int64
}

func (e *truncatedStreamError) Error() string {
	return fmt.Sprintf("pathmark: watch: %s truncated while following: consumed %d bytes, file now %d — stream restarted or rotated, re-run the watch",
		e.path, e.consumed, e.size)
}

// streamFeeder parses one of the two stream formats incrementally and
// feeds the recognizer once per read. A line (or bit run) torn across
// two reads is carried in tail until its remainder arrives.
type streamFeeder struct {
	rec    *wm.StreamRecognizer
	events bool
	tail   []byte
	evs    []vm.Event // one read's parsed events, reused
	line   int64
}

func newStreamFeeder(format string, rec *wm.StreamRecognizer) (*streamFeeder, error) {
	switch format {
	case "bits":
		return &streamFeeder{rec: rec}, nil
	case "events":
		return &streamFeeder{rec: rec, events: true}, nil
	default:
		return nil, fmt.Errorf("unknown -format %q, want bits or events", format)
	}
}

func (sf *streamFeeder) consume(data []byte) error {
	if sf.events {
		return sf.consumeEvents(data)
	}
	return sf.consumeBits(data)
}

// finish terminates a torn final line — an event stream need not end in
// a newline. Bits have no tail state.
func (sf *streamFeeder) finish() error {
	if sf.events && len(sf.tail) > 0 {
		return sf.consumeEvents([]byte{'\n'})
	}
	return nil
}

func (sf *streamFeeder) consumeBits(data []byte) error {
	bits := bitstring.New(len(data))
	for _, ch := range data {
		switch ch {
		case '0':
			bits.Append(false)
		case '1':
			bits.Append(true)
		case ' ', '\t', '\n', '\r':
		default:
			return fmt.Errorf("bit stream contains %q, want '0'/'1'", ch)
		}
	}
	if bits.Len() == 0 {
		return nil
	}
	return sf.rec.AppendBits(bits)
}

// consumeEvents parses every complete line of the read and appends their
// events in one call: each append runs a full scan step, so one per line
// would repeat that step's fixed cost thousands of times per read.
func (sf *streamFeeder) consumeEvents(data []byte) error {
	data = append(sf.tail, data...)
	sf.evs = sf.evs[:0]
	for {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break
		}
		line := strings.TrimSuffix(string(data[:nl]), "\r")
		data = data[nl+1:]
		if err := sf.parseEventLine(line); err != nil {
			return err
		}
	}
	sf.tail = data
	if len(sf.evs) == 0 {
		return nil
	}
	return sf.rec.AppendEvents(sf.evs...)
}

func (sf *streamFeeder) parseEventLine(line string) error {
	sf.line++
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	if len(fields) != 3 {
		return fmt.Errorf("event stream line %d: %q, want \"branch METHOD PC\" or \"block METHOD BLOCK\"", sf.line, line)
	}
	method, err1 := strconv.ParseInt(fields[1], 10, 32)
	loc, err2 := strconv.ParseInt(fields[2], 10, 32)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("event stream line %d: bad coordinates in %q", sf.line, line)
	}
	ev := vm.Event{Method: int32(method), Loc: int32(loc)}
	switch fields[0] {
	case "branch":
		ev.Kind = vm.EvBranchExec
	case "block":
		ev.Kind = vm.EvBlockEnter
	default:
		return fmt.Errorf("event stream line %d: unknown event %q", sf.line, fields[0])
	}
	sf.evs = append(sf.evs, ev)
	return nil
}
