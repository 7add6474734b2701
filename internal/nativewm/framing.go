package nativewm

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"pathmark/internal/isa"
)

// Framing scheme — the paper's §4.2.3 future-work item: "currently, these
// [begin/end addresses] are supplied manually; however, we expect to
// augment the implementation ... to use a framing scheme that would allow
// these addresses to be identified automatically."
//
// A framed watermark prepends a self-describing header to the bit chain:
//
//	bits 0..15   magic 0xA5C3 (LSB-first)
//	bits 16..27  payload bit count, 12 bits
//	bits 28..    payload
//
// The extractor then needs no Mark at all: it traces the whole execution,
// turns every branch-function dispatch into a forward/backward bit, and
// scans the resulting bit sequence for the magic header at every offset.
// Mis-returning calls unrelated to the watermark merely shift the scan.

const (
	frameMagic     = 0xA5C3
	frameMagicBits = 16
	frameLenBits   = 12
	// MaxFramedBits is the largest payload the 12-bit length field can
	// describe.
	MaxFramedBits = 1<<frameLenBits - 1
)

// EmbedFramed embeds w with a framing header so extraction is fully
// automatic. The returned report's Mark still works with plain Extract
// (its Bits covers the whole framed chain).
func EmbedFramed(u *isa.Unit, w *big.Int, bits int, opts EmbedOptions) (*isa.Unit, *EmbedReport, error) {
	if bits <= 0 || bits > MaxFramedBits {
		return nil, nil, fmt.Errorf("nativewm: framed payload must be 1..%d bits", MaxFramedBits)
	}
	if w.BitLen() > bits {
		return nil, nil, fmt.Errorf("nativewm: watermark needs %d bits, budget is %d", w.BitLen(), bits)
	}
	framed := new(big.Int)
	// Assemble LSB-first: magic, then length, then payload.
	framed.SetUint64(frameMagic)
	lenField := new(big.Int).SetUint64(uint64(bits))
	lenField.Lsh(lenField, frameMagicBits)
	framed.Or(framed, lenField)
	payload := new(big.Int).Set(w)
	payload.Lsh(payload, frameMagicBits+frameLenBits)
	framed.Or(framed, payload)
	total := frameMagicBits + frameLenBits + bits
	return Embed(u, framed, total, opts)
}

// ExtractFramedContext recovers a framed watermark with no begin/end
// knowledge: it collects every branch-function dispatch in execution order
// and scans the bit sequence for the frame header. The tracing run polls
// ctx periodically, so a deadline converts a spinning (or attacked) image
// into a prompt error instead of a step-budget burn. A nil ctx disables
// the checks.
func ExtractFramedContext(ctx context.Context, img *isa.Image, input []int64, kind TracerKind, stepLimit int64) (*Extraction, error) {
	events, err := TraceMisReturnsContext(ctx, img, input, stepLimit)
	if err != nil && len(events) == 0 {
		return nil, fmt.Errorf("nativewm: framed extraction trace: %w", err)
	}
	bits := make([]bool, 0, len(events))
	for _, e := range events {
		a := e.Site
		if kind == SimpleTracer {
			if d, derr := isa.DecodeAt(img.Text, img.TextBase, e.Target); derr == nil && d.Ins.Op == isa.OJmp {
				a = e.Target
			}
		}
		bits = append(bits, e.Actual > a)
	}
	payload, _, ok := scanFrame(bits)
	if !ok {
		return nil, errors.New("nativewm: no frame header found in the trace")
	}
	return &Extraction{
		Bits:      payload,
		Watermark: BitsToInt(payload),
	}, nil
}

// scanFrame scans a bit sequence for a framed watermark: the first offset
// whose next 16 bits decode (LSB-first) to the frame magic, followed by a
// 12-bit length field describing a payload that fits in the remaining
// bits, wins. It returns the payload, the header's bit offset, and
// whether a frame was found. The scan is the decode half of EmbedFramed's
// header assembly and is shared by the extractor and the fuzz target; it
// never panics on any input shape.
func scanFrame(bits []bool) (payload []bool, off int, ok bool) {
	for off = 0; off+frameMagicBits+frameLenBits <= len(bits); off++ {
		magic := bitsToUint(bits[off : off+frameMagicBits])
		if magic != frameMagic {
			continue
		}
		n := int(bitsToUint(bits[off+frameMagicBits : off+frameMagicBits+frameLenBits]))
		start := off + frameMagicBits + frameLenBits
		if n == 0 || start+n > len(bits) {
			continue
		}
		return bits[start : start+n], off, true
	}
	return nil, -1, false
}

func bitsToUint(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}
