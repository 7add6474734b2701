package bitstring

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAppendAndBit(t *testing.T) {
	b := New(0)
	pattern := []bool{true, false, true, true, false, false, true}
	for _, bit := range pattern {
		b.Append(bit)
	}
	if b.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(pattern))
	}
	for i, want := range pattern {
		if got := b.Bit(i); got != want {
			t.Errorf("Bit(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestFromString(t *testing.T) {
	b, err := FromString("01010110")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "01010110" {
		t.Errorf("String = %q, want %q", got, "01010110")
	}
	if b.Count() != 4 {
		t.Errorf("Count = %d, want 4", b.Count())
	}
	if _, err := FromString("01x"); err == nil {
		t.Error("FromString accepted invalid rune")
	}
}

func TestWord64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		b := FromUint64(v)
		return b.Len() == 64 && b.Word64(0) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWord64UnalignedOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := New(0)
	var ref []bool
	for i := 0; i < 300; i++ {
		bit := rng.Intn(2) == 1
		b.Append(bit)
		ref = append(ref, bit)
	}
	for start := 0; start+64 <= len(ref); start++ {
		var want uint64
		for i := 0; i < 64; i++ {
			if ref[start+i] {
				want |= 1 << uint(i)
			}
		}
		if got := b.Word64(start); got != want {
			t.Fatalf("Word64(%d) = %#x, want %#x", start, got, want)
		}
	}
}

func TestWindows64Count(t *testing.T) {
	b := New(0)
	for i := 0; i < 100; i++ {
		b.Append(i%3 == 0)
	}
	var n int
	b.Windows64(func(start int, _ uint64) bool {
		if start != n {
			t.Fatalf("window start %d, want %d", start, n)
		}
		n++
		return true
	})
	if n != 100-64+1 {
		t.Errorf("windows = %d, want %d", n, 100-64+1)
	}
}

func TestWindows64EarlyStop(t *testing.T) {
	b := New(0)
	for i := 0; i < 200; i++ {
		b.Append(false)
	}
	var n int
	b.Windows64(func(int, uint64) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop after %d windows, want 5", n)
	}
}

func TestIndexOfWord64(t *testing.T) {
	b := New(0)
	for i := 0; i < 17; i++ {
		b.Append(false)
	}
	const v = 0xdeadbeefcafef00d
	b.AppendWord64(v)
	for i := 0; i < 9; i++ {
		b.Append(true)
	}
	if got := b.IndexOfWord64(v); got != 17 {
		t.Errorf("IndexOfWord64 = %d, want 17", got)
	}
	if got := b.IndexOfWord64(0xffffffffffffffff); got != -1 {
		t.Errorf("IndexOfWord64(all ones) = %d, want -1", got)
	}
}

func TestSet(t *testing.T) {
	b := New(0)
	for i := 0; i < 70; i++ {
		b.Append(false)
	}
	b.Set(65, true)
	if !b.Bit(65) || b.Bit(64) || b.Bit(66) {
		t.Error("Set(65) did not flip exactly bit 65")
	}
	b.Set(65, false)
	if b.Count() != 0 {
		t.Error("Set(65,false) did not clear")
	}
}

func TestCloneIndependence(t *testing.T) {
	b, _ := FromString("1010")
	c := b.Clone()
	c.Set(0, false)
	c.Append(true)
	if b.String() != "1010" {
		t.Errorf("clone mutated original: %q", b.String())
	}
	if c.String() != "00101" {
		t.Errorf("clone = %q, want %q", c.String(), "00101")
	}
}

func TestAppendBits(t *testing.T) {
	a, _ := FromString("110")
	b, _ := FromString("01")
	a.AppendBits(b)
	if a.String() != "11001" {
		t.Errorf("AppendBits = %q, want %q", a.String(), "11001")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Bit out of range did not panic")
		}
	}()
	b := New(0)
	b.Bit(0)
}

func TestStride(t *testing.T) {
	b, _ := FromString("0110101101")
	even := b.Stride(2, 0)
	odd := b.Stride(2, 1)
	if even.String() != "01110" {
		t.Errorf("Stride(2,0) = %q, want %q", even.String(), "01110")
	}
	if odd.String() != "10011" {
		t.Errorf("Stride(2,1) = %q, want %q", odd.String(), "10011")
	}
	if got := b.Stride(3, 2).String(); got != "100" {
		t.Errorf("Stride(3,2) = %q, want %q", got, "100")
	}
}

func TestStrideExactSizing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 300} {
		b := New(n)
		for i := 0; i < n; i++ {
			b.Append(rng.Intn(2) == 1)
		}
		for _, c := range []struct{ k, phase int }{{1, 0}, {2, 0}, {2, 1}, {3, 2}, {7, 5}} {
			s := b.Stride(c.k, c.phase)
			want := b.StrideLen(c.k, c.phase)
			if s.Len() != want {
				t.Fatalf("n=%d Stride(%d,%d).Len() = %d, want %d", n, c.k, c.phase, s.Len(), want)
			}
			// The pre-sized capacity must be exact: no over-allocation.
			if wantWords := (want + 63) / 64; cap(s.words) != wantWords {
				t.Errorf("n=%d Stride(%d,%d) allocated %d words, want %d",
					n, c.k, c.phase, cap(s.words), wantWords)
			}
		}
	}
}

// refWindows collects windows via per-index Word64 reassembly — the
// reference the rolling implementations must match.
func refWindows(b *Bits) map[int]uint64 {
	out := map[int]uint64{}
	for i := 0; i+64 <= b.Len(); i++ {
		out[i] = b.Word64(i)
	}
	return out
}

func TestWindows64RollingMatchesWord64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 63, 64, 65, 200, 513} {
		b := New(n)
		for i := 0; i < n; i++ {
			b.Append(rng.Intn(2) == 1)
		}
		want := refWindows(b)
		got := 0
		b.Windows64(func(start int, w uint64) bool {
			if want[start] != w {
				t.Fatalf("n=%d: window %d = %#x, want %#x", n, start, w, want[start])
			}
			got++
			return true
		})
		if got != len(want) || got != b.NumWindows64() {
			t.Errorf("n=%d: %d windows, want %d (NumWindows64=%d)", n, got, len(want), b.NumWindows64())
		}
	}
}

func TestWindows64RangeShardingCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := New(0)
	for i := 0; i < 500; i++ {
		b.Append(rng.Intn(2) == 1)
	}
	want := refWindows(b)
	// Shard the scan into uneven chunks; the union must equal the full scan.
	seen := map[int]uint64{}
	for _, r := range [][2]int{{-10, 100}, {100, 101}, {101, 350}, {350, 1 << 30}} {
		b.Windows64Range(r[0], r[1], func(start int, w uint64) bool {
			if _, dup := seen[start]; dup {
				t.Fatalf("window %d visited twice", start)
			}
			seen[start] = w
			return true
		})
	}
	if len(seen) != len(want) {
		t.Fatalf("sharded scan saw %d windows, want %d", len(seen), len(want))
	}
	for start, w := range want {
		if seen[start] != w {
			t.Errorf("window %d = %#x, want %#x", start, seen[start], w)
		}
	}
	// Empty and inverted ranges yield nothing.
	b.Windows64Range(10, 10, func(int, uint64) bool { t.Fatal("empty range"); return false })
	b.Windows64Range(20, 10, func(int, uint64) bool { t.Fatal("inverted range"); return false })
}

func TestStrideWindows64MatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 64, 127, 128, 129, 260, 401} {
		b := New(n)
		for i := 0; i < n; i++ {
			b.Append(rng.Intn(2) == 1)
		}
		for _, c := range []struct{ k, phase int }{{1, 0}, {2, 0}, {2, 1}, {3, 1}} {
			want := refWindows(b.Stride(c.k, c.phase))
			got := 0
			b.StrideWindows64Range(c.k, c.phase, 0, b.StrideNumWindows64(c.k, c.phase), func(start int, w uint64) bool {
				if want[start] != w {
					t.Fatalf("n=%d stride(%d,%d): window %d = %#x, want %#x",
						n, c.k, c.phase, start, w, want[start])
				}
				got++
				return true
			})
			if got != len(want) || got != b.StrideNumWindows64(c.k, c.phase) {
				t.Errorf("n=%d stride(%d,%d): %d windows, want %d", n, c.k, c.phase, got, len(want))
			}
		}
	}
}

func TestStrideWindows64RangeAndEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := New(0)
	for i := 0; i < 400; i++ {
		b.Append(rng.Intn(2) == 1)
	}
	want := refWindows(b.Stride(2, 1))
	seen := map[int]uint64{}
	for _, r := range [][2]int{{0, 50}, {50, 1 << 30}} {
		b.StrideWindows64Range(2, 1, r[0], r[1], func(start int, w uint64) bool {
			seen[start] = w
			return true
		})
	}
	if len(seen) != len(want) {
		t.Fatalf("sharded stride scan saw %d windows, want %d", len(seen), len(want))
	}
	for start, w := range want {
		if seen[start] != w {
			t.Errorf("stride window %d = %#x, want %#x", start, seen[start], w)
		}
	}
	n := 0
	b.StrideWindows64Range(2, 0, 0, b.StrideNumWindows64(2, 0), func(int, uint64) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("stride early stop after %d windows, want 3", n)
	}
}

func TestStrideInterleavedWordRecovery(t *testing.T) {
	// The recognizer's use case: payload bits interleaved with constant
	// control bits at stride 2 must be recoverable as a contiguous word
	// in one phase.
	const v = 0x0123456789abcdef
	b := New(0)
	b.Append(true) // phase shift
	for i := 0; i < 64; i++ {
		b.Append(v&(1<<uint(i)) != 0)
		b.Append(false) // control bit
	}
	if b.Stride(2, 1).IndexOfWord64(v) < 0 {
		t.Error("interleaved payload not found in its stride-2 phase")
	}
	if b.IndexOfWord64(v) >= 0 {
		t.Error("interleaved payload unexpectedly contiguous at stride 1")
	}
}

func TestStridePanicsOnBadArgs(t *testing.T) {
	b, _ := FromString("0101")
	for _, c := range []struct{ k, phase int }{{0, 0}, {-1, 0}, {2, 2}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Stride(%d,%d) did not panic", c.k, c.phase)
				}
			}()
			b.Stride(c.k, c.phase)
		}()
	}
}

// randomBits builds a deterministic pseudo-random vector of n bits.
func randomBits(seed int64, n int) *Bits {
	rng := rand.New(rand.NewSource(seed))
	b := New(n)
	for i := 0; i < n; i++ {
		b.Append(rng.Intn(2) == 1)
	}
	return b
}

// collectWindows runs the ranged iterator and records (start, window)
// pairs.
func collectWindows(iter func(fn func(int, uint64) bool)) (starts []int, windows []uint64) {
	iter(func(start int, w uint64) bool {
		starts = append(starts, start)
		windows = append(windows, w)
		return true
	})
	return
}

// TestStrideWindows64RangeClamping is the boundary-safety contract of the
// ranged window iterators: out-of-range [lo, hi) arguments — negative lo,
// hi past the phase's window count, inverted or empty ranges — clamp to
// the valid span instead of panicking or fabricating windows, on
// odd-length strings at both stride-2 phases (where the two phases have
// different lengths, so an hi valid for phase 0 overruns phase 1).
func TestStrideWindows64RangeClamping(t *testing.T) {
	for _, n := range []int{127, 128, 129, 131, 191} {
		b := randomBits(int64(n), n)
		for phase := 0; phase < 2; phase++ {
			count := b.StrideNumWindows64(2, phase)
			wantStarts, wantWindows := collectWindows(func(fn func(int, uint64) bool) {
				b.StrideWindows64Range(2, phase, 0, count, fn)
			})
			if len(wantStarts) != count {
				t.Fatalf("n=%d phase=%d: full range yields %d windows, want %d",
					n, phase, len(wantStarts), count)
			}
			for _, bounds := range [][2]int{
				{-5, count},     // negative lo
				{0, count + 7},  // hi past the window count
				{-100, 1 << 30}, // both wild
				{-1, count + 1}, // one past each edge
				{0, count},      // exact
			} {
				gotStarts, gotWindows := collectWindows(func(fn func(int, uint64) bool) {
					b.StrideWindows64Range(2, phase, bounds[0], bounds[1], fn)
				})
				if len(gotStarts) != len(wantStarts) {
					t.Errorf("n=%d phase=%d range %v: %d windows, want %d",
						n, phase, bounds, len(gotStarts), len(wantStarts))
					continue
				}
				for i := range gotStarts {
					if gotStarts[i] != wantStarts[i] || gotWindows[i] != wantWindows[i] {
						t.Errorf("n=%d phase=%d range %v: window %d differs", n, phase, bounds, i)
						break
					}
				}
			}
			// Empty and inverted ranges visit nothing.
			for _, bounds := range [][2]int{{count, count + 10}, {5, 5}, {7, 3}, {count, 0}} {
				if starts, _ := collectWindows(func(fn func(int, uint64) bool) {
					b.StrideWindows64Range(2, phase, bounds[0], bounds[1], fn)
				}); len(starts) != 0 {
					t.Errorf("n=%d phase=%d range %v: visited %d windows, want none",
						n, phase, bounds, len(starts))
				}
			}
		}
		// The raw iterator shares the clamp.
		count := b.NumWindows64()
		full, _ := collectWindows(func(fn func(int, uint64) bool) { b.Windows64Range(0, count, fn) })
		wild, _ := collectWindows(func(fn func(int, uint64) bool) { b.Windows64Range(-9, count+9, fn) })
		if len(full) != count || len(wild) != count {
			t.Errorf("n=%d: raw clamp broken: %d / %d windows, want %d", n, len(full), len(wild), count)
		}
	}
}
