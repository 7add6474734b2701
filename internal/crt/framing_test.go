package crt

import (
	"math/rand"
	"testing"
)

func framingParams(t testing.TB, primes ...uint64) *Params {
	t.Helper()
	p, err := NewParams(primes)
	if err != nil {
		t.Fatalf("NewParams(%v): %v", primes, err)
	}
	return p
}

// TestFrameRoundTripExhaustive checks the lossless contract over the
// entire capacity of a small basis: every encoding frames and unframes
// to itself.
func TestFrameRoundTripExhaustive(t *testing.T) {
	p := framingParams(t, 3, 5, 7, 11)
	for enc := uint64(0); enc < p.Capacity(); enc++ {
		got, ok := p.Unframe(p.Frame(enc))
		if !ok || got != enc {
			t.Fatalf("Unframe(Frame(%d)) = %d, %v; want %d, true", enc, got, ok, enc)
		}
	}
}

// TestFrameRoundTripSampled covers a realistic 16-bit-prime basis, where
// the capacity is too large to enumerate, with random and boundary
// encodings.
func TestFrameRoundTripSampled(t *testing.T) {
	p := framingParams(t, DefaultPrimes(6, 16)...)
	rng := rand.New(rand.NewSource(1))
	encs := []uint64{0, 1, p.Capacity() - 1, p.Capacity() / 2}
	for i := 0; i < 10000; i++ {
		encs = append(encs, rng.Uint64()%p.Capacity())
	}
	for _, enc := range encs {
		got, ok := p.Unframe(p.Frame(enc))
		if !ok || got != enc {
			t.Fatalf("Unframe(Frame(%d)) = %d, %v; want %d, true", enc, got, ok, enc)
		}
	}
}

// TestUnframeRejects pins the reject half: payloads at or above capacity
// and any corruption of the check field must fail, and every accepted
// word must be exactly the framing of its payload (no two distinct words
// unframe to the same encoding).
func TestUnframeRejects(t *testing.T) {
	p := framingParams(t, DefaultPrimes(6, 16)...)
	shift := p.frameShift

	// Payload >= capacity, even with a self-consistent check field, is
	// out of the enumeration range.
	for _, enc := range []uint64{p.Capacity(), p.Capacity() + 1, 1<<shift - 1} {
		w := enc | p.frameCheck(enc)<<shift
		if _, ok := p.Unframe(w); ok {
			t.Fatalf("Unframe accepted out-of-range payload %d", enc)
		}
	}

	// Flipping any single check bit of a valid frame must reject.
	enc := p.Capacity() - 2
	w := p.Frame(enc)
	for b := shift; b < 64; b++ {
		if _, ok := p.Unframe(w ^ 1<<b); ok {
			t.Fatalf("Unframe accepted frame with check bit %d flipped", b)
		}
	}
}

// TestFrameCheckBits sanity-checks the rejection power: at least one bit
// above the payload is constrained, and a random word passes with
// empirical probability near capacity/2^64 — for a 16-bit-prime basis,
// essentially never.
func TestFrameCheckBits(t *testing.T) {
	p := framingParams(t, DefaultPrimes(6, 16)...)
	if p.frameShift > 63 {
		t.Fatalf("payload width %d leaves no check bit (capacity < 2^63)", p.frameShift)
	}
	rng := rand.New(rand.NewSource(2))
	accepted := 0
	for i := 0; i < 1<<20; i++ {
		if _, ok := p.Unframe(rng.Uint64()); ok {
			accepted++
		}
	}
	// Expected acceptance is capacity/2^64 ~ 2^-28 for this basis; even a
	// handful of hits in 2^20 trials would signal a broken check.
	if accepted > 2 {
		t.Fatalf("random words accepted %d/2^20 times; framing check too weak", accepted)
	}
}

// FuzzFramingLossless pins the filter contract the scan kernel depends
// on: framing may never reject a genuinely embedded piece. For every
// in-range encoding, Unframe(Frame(enc)) must return (enc, true); and
// whenever Unframe accepts an arbitrary word, that word must be exactly
// the canonical frame of its payload (accept set == image of Frame).
// Seeds mirror the shapes in nativewm's FuzzFramingDecode corpus: empty,
// magic-like repetition, counting bytes, and all-ones.
func FuzzFramingLossless(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(0xA5C3A5C3A5C3A5C3), uint64(0xA5C3))
	f.Add(uint64(0x0102030405060708), uint64(0x0807060504030201))
	f.Add(^uint64(0), ^uint64(0))
	f.Add(uint64(0x9d57)<<48, uint64(1))

	p, err := NewParams(DefaultPrimes(6, 16))
	if err != nil {
		f.Fatal(err)
	}
	small, err := NewParams([]uint64{3, 5, 7, 11, 13})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, enc, w uint64) {
		for _, params := range []*Params{p, small} {
			e := enc % params.Capacity()
			got, ok := params.Unframe(params.Frame(e))
			if !ok || got != e {
				t.Fatalf("lossless contract violated: Unframe(Frame(%d)) = %d, %v", e, got, ok)
			}
			if payload, ok := params.Unframe(w); ok {
				if payload >= params.Capacity() {
					t.Fatalf("Unframe(%#x) accepted out-of-range payload %d", w, payload)
				}
				if params.Frame(payload) != w {
					t.Fatalf("Unframe(%#x) accepted non-canonical frame of %d", w, payload)
				}
			}
		}
	})
}
