package isa

import "testing"

// FuzzDecodeAt feeds arbitrary bytes to the decoder: it must either
// decode or error, never panic, and decoding must stay within the text.
func FuzzDecodeAt(f *testing.F) {
	img, err := Assemble(buildCountdown(3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img.Text, uint32(0))
	f.Add([]byte{0xff, 0x00, 0x01}, uint32(0))
	f.Add([]byte{byte(OJmp), 0, 0, 0, 0}, uint32(0))
	f.Fuzz(func(t *testing.T, text []byte, off uint32) {
		d, err := DecodeAt(text, TextBase, TextBase+off)
		if err != nil {
			return
		}
		if d.Len == 0 || int(off)+int(d.Len) > len(text) {
			t.Fatalf("decoded length %d escapes text of %d bytes at offset %d", d.Len, len(text), off)
		}
	})
}

// FuzzCPUOnRandomText loads arbitrary bytes as a text section and runs the
// CPU: it must halt, fault, or hit the step limit — never panic.
func FuzzCPUOnRandomText(f *testing.F) {
	img, err := Assemble(buildCountdown(2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img.Text)
	f.Add([]byte{byte(OHlt)})
	f.Add([]byte{byte(ORet), 0xab, 0x12})
	f.Fuzz(func(t *testing.T, text []byte) {
		if len(text) == 0 {
			return
		}
		fake := &Image{
			Text:     append([]byte(nil), text...),
			TextBase: TextBase,
			DataBase: TextBase + alignUp(uint32(len(text)), dataAlign),
			Entry:    TextBase,
		}
		cpu := NewCPU(fake, []int64{1, 2})
		_, _ = cpu.Run(10_000) // result or clean error; panics fail the fuzz
	})
}
