package nativewm

import (
	"math/big"
	"testing"

	"pathmark/internal/isa"
)

func TestFramedRoundTripWithoutMark(t *testing.T) {
	for _, bits := range []int{8, 32, 64} {
		u := buildHost()
		w := big.NewInt(0)
		w.SetString("1234567890123456789", 10)
		w.Mod(w, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
		marked, report, err := EmbedFramed(u, w, bits, defaultOpts(31))
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		if report.Mark.Bits != bits+frameMagicBits+frameLenBits {
			t.Errorf("bits=%d: framed chain length %d", bits, report.Mark.Bits)
		}
		img, err := isa.Assemble(marked)
		if err != nil {
			t.Fatal(err)
		}
		// Extraction needs no begin/end/bit-count knowledge at all.
		ext, err := ExtractFramedContext(nil, img, trainInput, SmartTracer, 0)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		if ext.Watermark.Cmp(w) != 0 {
			t.Errorf("bits=%d: extracted %v, want %v", bits, ext.Watermark, w)
		}
	}
}

func TestFramedPreservesSemantics(t *testing.T) {
	u := buildHost()
	w := big.NewInt(0x1CED)
	marked, _, err := EmbedFramed(u, w, 16, defaultOpts(32))
	if err != nil {
		t.Fatal(err)
	}
	for _, input := range evalInputs {
		ref, err := isa.Execute(u, input, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := isa.Execute(marked, input, 0)
		if err != nil {
			t.Fatalf("input %v: %v", input, err)
		}
		if !isa.SameOutput(ref, got) {
			t.Errorf("input %v: behavior changed", input)
		}
	}
}

func TestFramedExtractionFailsOnCleanBinary(t *testing.T) {
	u := buildHost()
	img, err := isa.Assemble(u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractFramedContext(nil, img, trainInput, SmartTracer, 0); err == nil {
		t.Error("found a frame in an unwatermarked binary")
	}
}

func TestFramedRejectsBadSizes(t *testing.T) {
	u := buildHost()
	if _, _, err := EmbedFramed(u, big.NewInt(1), 0, defaultOpts(33)); err == nil {
		t.Error("accepted zero bits")
	}
	if _, _, err := EmbedFramed(u, big.NewInt(1), MaxFramedBits+1, defaultOpts(34)); err == nil {
		t.Error("accepted oversize payload")
	}
	if _, _, err := EmbedFramed(u, big.NewInt(256), 8, defaultOpts(35)); err == nil {
		t.Error("accepted watermark larger than the budget")
	}
}

func TestFramedAndManualExtractionAgree(t *testing.T) {
	u := buildHost()
	w := big.NewInt(0xFACE)
	marked, report, err := EmbedFramed(u, w, 16, defaultOpts(36))
	if err != nil {
		t.Fatal(err)
	}
	img, err := isa.Assemble(marked)
	if err != nil {
		t.Fatal(err)
	}
	manual, err := Extract(img, trainInput, report.Mark, SmartTracer, 0)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := ExtractFramedContext(nil, img, trainInput, SmartTracer, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The manual extraction returns the full framed integer; its payload
	// field must equal the automatic extraction's result.
	payload := new(big.Int).Rsh(manual.Watermark, frameMagicBits+frameLenBits)
	if payload.Cmp(auto.Watermark) != 0 {
		t.Errorf("manual payload %v != framed extraction %v", payload, auto.Watermark)
	}
}
