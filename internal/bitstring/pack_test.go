package bitstring

import (
	"math/rand"
	"testing"
)

// TestPackStride2MatchesStride pins the word-parallel packing against the
// per-bit reference across lengths straddling word boundaries and both
// phases.
func TestPackStride2MatchesStride(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	lengths := []int{0, 1, 2, 3, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1000, 4096, 4097}
	for _, n := range lengths {
		b := New(n)
		for i := 0; i < n; i++ {
			b.Append(rng.Intn(2) == 1)
		}
		for phase := 0; phase < 2; phase++ {
			if phase >= 1 && n == 0 {
				continue // StrideLen requires phase < k only; phase 1 of empty is fine
			}
			want := b.Stride(2, phase)
			got := b.PackStride2Into(nil, phase)
			if got.Len() != want.Len() {
				t.Fatalf("n=%d phase=%d: PackStride2Into len %d, Stride len %d", n, phase, got.Len(), want.Len())
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("n=%d phase=%d: packed vector invalid: %v", n, phase, err)
			}
			if got.String() != want.String() {
				t.Fatalf("n=%d phase=%d: packed bits differ\n got %s\nwant %s", n, phase, got, want)
			}
		}
	}
}

// TestPackStride2Windows checks the property the batched kernel actually
// relies on: scanning the packed phase stride-1 visits exactly the same
// windows as StrideWindows64Range over the original trace.
func TestPackStride2Windows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	b := New(777)
	for i := 0; i < 777; i++ {
		b.Append(rng.Intn(2) == 1)
	}
	for phase := 0; phase < 2; phase++ {
		packed := b.PackStride2Into(nil, phase)
		if got, want := packed.NumWindows64(), b.StrideNumWindows64(2, phase); got != want {
			t.Fatalf("phase %d: packed has %d windows, stride view has %d", phase, got, want)
		}
		var wantWindows []uint64
		b.StrideWindows64Range(2, phase, 0, b.StrideNumWindows64(2, phase), func(start int, w uint64) bool {
			wantWindows = append(wantWindows, w)
			return true
		})
		i := 0
		packed.Windows64(func(start int, w uint64) bool {
			if w != wantWindows[i] {
				t.Fatalf("phase %d window %d: packed %#x, stride %#x", phase, i, w, wantWindows[i])
			}
			i++
			return true
		})
		if i != len(wantWindows) {
			t.Fatalf("phase %d: packed scan visited %d windows, want %d", phase, i, len(wantWindows))
		}
	}
}

// TestWordsAccessor checks the documented layout of the shared backing
// slice.
func TestWordsAccessor(t *testing.T) {
	b := New(100)
	for i := 0; i < 100; i++ {
		b.Append(i%3 == 0)
	}
	words := b.Words()
	if want := (b.Len() + 63) / 64; len(words) != want {
		t.Fatalf("Words returned %d words for %d bits, want %d", len(words), b.Len(), want)
	}
	for i := 0; i < b.Len(); i++ {
		if got := words[i/64]>>(uint(i)%64)&1 == 1; got != b.Bit(i) {
			t.Fatalf("bit %d: Words says %v, Bit says %v", i, got, b.Bit(i))
		}
	}
	if tail := words[len(words)-1] >> uint(b.Len()%64); tail != 0 {
		t.Fatalf("nonzero tail bits %#x beyond Len", tail)
	}
}

func TestPackStride2InvalidPhase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for phase 2")
		}
	}()
	New(10).PackStride2Into(nil, 2)
}

func BenchmarkPackStride2(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	bits := New(1 << 20)
	for i := 0; i < 1<<20; i++ {
		bits.Append(rng.Intn(2) == 1)
	}
	b.SetBytes(1 << 17)
	var dst *Bits
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = bits.PackStride2Into(dst, i&1)
	}
}

func BenchmarkStrideReference(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	bits := New(1 << 20)
	for i := 0; i < 1<<20; i++ {
		bits.Append(rng.Intn(2) == 1)
	}
	b.SetBytes(1 << 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bits.Stride(2, i&1)
	}
}
