package bitstring

import (
	"strings"
	"testing"
)

func TestTryWord64(t *testing.T) {
	b := FromUint64(0xDEADBEEFCAFEF00D)
	b.Append(true)
	v, err := b.TryWord64(1)
	if err != nil {
		t.Fatalf("TryWord64(1): %v", err)
	}
	if want := b.Word64(1); v != want {
		t.Errorf("TryWord64(1) = %#x, want %#x", v, want)
	}
	for _, i := range []int{-1, 2, 65} {
		if _, err := b.TryWord64(i); err == nil {
			t.Errorf("TryWord64(%d) should fail", i)
		}
	}
}

func TestFromWords(t *testing.T) {
	b, err := FromWords([]uint64{^uint64(0), ^uint64(0)}, 70)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 70 || b.Count() != 70 {
		t.Errorf("got len %d count %d, want 70/70 (tail must be masked)", b.Len(), b.Count())
	}
	if err := b.Validate(); err != nil {
		t.Errorf("FromWords result should validate: %v", err)
	}
	if _, err := FromWords([]uint64{1}, 70); err == nil {
		t.Error("short word slice should be rejected")
	}
	if _, err := FromWords([]uint64{1, 2}, 64); err == nil {
		t.Error("long word slice should be rejected")
	}
	if _, err := FromWords(nil, -1); err == nil {
		t.Error("negative length should be rejected")
	}
}

func TestValidate(t *testing.T) {
	var nilBits *Bits
	if err := nilBits.Validate(); err == nil {
		t.Error("nil vector should not validate")
	}
	good, _ := FromString(strings.Repeat("10", 100))
	if err := good.Validate(); err != nil {
		t.Errorf("API-built vector should validate: %v", err)
	}
	// Corrupt the shape the way a fault injector (or a decoding bug)
	// could: claim more bits than the backing words hold.
	bad := &Bits{words: []uint64{1}, n: 200}
	if err := bad.Validate(); err == nil {
		t.Error("under-backed vector should not validate")
	}
	tail := &Bits{words: []uint64{^uint64(0)}, n: 10}
	if err := tail.Validate(); err == nil {
		t.Error("nonzero tail bits should not validate")
	}
}

func TestTruncate(t *testing.T) {
	b, _ := FromString(strings.Repeat("1", 130))
	if err := b.Truncate(65); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 65 || b.Count() != 65 {
		t.Errorf("after Truncate(65): len %d count %d", b.Len(), b.Count())
	}
	if err := b.Validate(); err != nil {
		t.Errorf("truncated vector should validate: %v", err)
	}
	// Appending after truncation must not resurrect the cleared tail.
	b.Append(false)
	if b.Bit(65) {
		t.Error("appended bit should be 0")
	}
	if err := b.Truncate(200); err == nil {
		t.Error("growing via Truncate should fail")
	}
	if err := b.Truncate(-1); err == nil {
		t.Error("negative Truncate should fail")
	}
	if err := b.Truncate(0); err != nil || b.Len() != 0 {
		t.Errorf("Truncate(0): err %v len %d", err, b.Len())
	}
}
