// Package bitstring provides compact bit-vector utilities shared by the
// trace decoder, the watermark piece codecs, and the recognizer's
// sliding-window scan.
//
// Bits are addressed from 0. Within the watermarking pipeline a "piece" is
// always a 64-bit block; Word64/PutWord64 convert between bit positions and
// uint64 values with bit 0 of the block stored at the lowest bit index
// (LSB-first, matching the loop code generator, which emits the least
// significant bit of a piece first).
package bitstring

import (
	"fmt"
	"strings"
)

// Bits is an append-only growable bit vector.
type Bits struct {
	words []uint64
	n     int
}

// New returns an empty bit vector with capacity for at least n bits.
func New(n int) *Bits {
	if n < 0 {
		n = 0
	}
	return &Bits{words: make([]uint64, 0, (n+63)/64)}
}

// FromString parses a string of '0' and '1' runes into a bit vector.
// Any other rune is rejected.
func FromString(s string) (*Bits, error) {
	b := New(len(s))
	for i, r := range s {
		switch r {
		case '0':
			b.Append(false)
		case '1':
			b.Append(true)
		default:
			return nil, fmt.Errorf("bitstring: invalid rune %q at index %d", r, i)
		}
	}
	return b, nil
}

// FromUint64 returns a 64-bit vector holding v LSB-first.
func FromUint64(v uint64) *Bits {
	b := New(64)
	b.AppendWord64(v)
	return b
}

// FromWords builds a vector of exactly n bits over the given backing words,
// validating the shape instead of trusting the caller: len(words) must be
// ceil(n/64), and bits of the last word beyond n are cleared so the result
// satisfies the package invariant that unused tail bits are zero. The words
// slice is copied. This is the bounds-validating constructor adversarial
// inputs (deserialized or corrupted traces) must come through.
func FromWords(words []uint64, n int) (*Bits, error) {
	if n < 0 {
		return nil, fmt.Errorf("bitstring: negative length %d", n)
	}
	if want := (n + 63) / 64; len(words) != want {
		return nil, fmt.Errorf("bitstring: %d bits need %d words, got %d", n, want, len(words))
	}
	b := &Bits{words: make([]uint64, len(words)), n: n}
	copy(b.words, words)
	if off := uint(n % 64); off != 0 {
		b.words[len(b.words)-1] &= (1 << off) - 1
	}
	return b, nil
}

// Len reports the number of bits stored.
func (b *Bits) Len() int { return b.n }

// Append adds one bit at the end.
func (b *Bits) Append(bit bool) {
	word, off := b.n/64, uint(b.n%64)
	if word == len(b.words) {
		b.words = append(b.words, 0)
	}
	if bit {
		b.words[word] |= 1 << off
	}
	b.n++
}

// AppendWord64 appends the 64 bits of v, least significant first.
func (b *Bits) AppendWord64(v uint64) {
	for i := 0; i < 64; i++ {
		b.Append(v&(1<<uint(i)) != 0)
	}
}

// AppendBits appends all bits of other, in order.
func (b *Bits) AppendBits(other *Bits) {
	for i := 0; i < other.n; i++ {
		b.Append(other.Bit(i))
	}
}

// Bit returns the bit at index i. It panics if i is out of range.
func (b *Bits) Bit(i int) bool {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitstring: index %d out of range [0,%d)", i, b.n))
	}
	return b.words[i/64]&(1<<uint(i%64)) != 0
}

// Set assigns the bit at index i. It panics if i is out of range.
func (b *Bits) Set(i int, bit bool) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitstring: index %d out of range [0,%d)", i, b.n))
	}
	if bit {
		b.words[i/64] |= 1 << uint(i%64)
	} else {
		b.words[i/64] &^= 1 << uint(i%64)
	}
}

// Word64 extracts the 64 bits starting at index i as a uint64, LSB-first.
// It panics unless 0 <= i and i+64 <= Len().
func (b *Bits) Word64(i int) uint64 {
	if i < 0 || i+64 > b.n {
		panic(fmt.Sprintf("bitstring: window [%d,%d) out of range [0,%d)", i, i+64, b.n))
	}
	word, off := i/64, uint(i%64)
	v := b.words[word] >> off
	if off != 0 {
		v |= b.words[word+1] << (64 - off)
	}
	return v
}

// TryWord64 is the checked form of Word64: windows that fall outside the
// vector return an error instead of panicking.
func (b *Bits) TryWord64(i int) (uint64, error) {
	if i < 0 || i+64 > b.n {
		return 0, fmt.Errorf("bitstring: window [%d,%d) out of range [0,%d)", i, i+64, b.n)
	}
	return b.Word64(i), nil
}

// Validate checks the internal invariants that the window iterators rely
// on: a non-negative length, a backing array of exactly ceil(n/64) words,
// and zeroed tail bits beyond the length. Vectors built through the
// package API always validate; Validate exists so code paths fed by
// deserialized or fault-injected vectors can reject a corrupt shape with
// an error instead of panicking (or silently reading garbage) inside the
// scan loops.
func (b *Bits) Validate() error {
	if b == nil {
		return fmt.Errorf("bitstring: nil vector")
	}
	if b.n < 0 {
		return fmt.Errorf("bitstring: negative length %d", b.n)
	}
	if want := (b.n + 63) / 64; len(b.words) < want {
		return fmt.Errorf("bitstring: %d bits need %d backing words, have %d", b.n, want, len(b.words))
	}
	if off := uint(b.n % 64); off != 0 {
		if tail := b.words[b.n/64] &^ ((1 << off) - 1); tail != 0 {
			return fmt.Errorf("bitstring: nonzero tail bits %#x beyond length %d", tail, b.n)
		}
	}
	return nil
}

// Truncate shortens the vector to n bits, clearing the dropped tail so the
// zero-tail invariant holds. Truncating to more than Len() or to a
// negative length is an error.
func (b *Bits) Truncate(n int) error {
	if n < 0 || n > b.n {
		return fmt.Errorf("bitstring: cannot truncate %d-bit vector to %d bits", b.n, n)
	}
	b.n = n
	b.words = b.words[:(n+63)/64]
	if off := uint(n % 64); off != 0 {
		b.words[len(b.words)-1] &= (1 << off) - 1
	}
	return nil
}

// NumWindows64 returns the number of 64-bit windows in the vector:
// max(0, Len()-63). Window starts range over [0, NumWindows64()).
func (b *Bits) NumWindows64() int {
	if b.n < 64 {
		return 0
	}
	return b.n - 63
}

// Windows64 calls fn for every 64-bit window of the vector, in order of
// starting index, stopping early if fn returns false. This is the
// recognizer's sliding-window scan (B_0 = b_0..b_63, B_1 = b_1..b_64, ...).
func (b *Bits) Windows64(fn func(start int, window uint64) bool) {
	b.Windows64Range(0, b.NumWindows64(), fn)
}

// clampWindowRange clamps a [lo, hi) window-start range to the valid
// [0, max) range, reporting whether any windows remain. Every window
// iterator funnels its requested range through this single helper rather
// than trusting callers (or re-implementing the clamp per iterator):
// lo < 0 and hi beyond the window count — easy to produce when sharding a
// scan or probing a stride phase of an odd-length string — silently
// tighten to the valid span instead of panicking or reading past the
// subsequence.
func clampWindowRange(lo, hi, max int) (int, int, bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > max {
		hi = max
	}
	return lo, hi, lo < hi
}

// Windows64Range calls fn for every 64-bit window whose starting index lies
// in [lo, hi), clamped to the valid range, stopping early if fn returns
// false. The window is maintained incrementally (one shift+or per step
// instead of a per-index Word64 reassembly), and disjoint ranges make the
// scan shardable across workers.
func (b *Bits) Windows64Range(lo, hi int, fn func(start int, window uint64) bool) {
	lo, hi, ok := clampWindowRange(lo, hi, b.NumWindows64())
	if !ok {
		return
	}
	w := b.Word64(lo)
	for start := lo; ; {
		if !fn(start, w) {
			return
		}
		start++
		if start >= hi {
			return
		}
		// Roll: drop bit start-1, admit bit start+63 at the top.
		i := start + 63
		w >>= 1
		if b.words[i>>6]&(1<<uint(i&63)) != 0 {
			w |= 1 << 63
		}
	}
}

// StrideLen returns the length of the stride-k, phase-p subsequence that
// Stride would materialize, without building it.
func (b *Bits) StrideLen(k, phase int) int {
	if k <= 0 || phase < 0 || phase >= k {
		panic(fmt.Sprintf("bitstring: invalid stride %d phase %d", k, phase))
	}
	if phase >= b.n {
		return 0
	}
	return (b.n - phase + k - 1) / k
}

// StrideNumWindows64 returns the number of 64-bit windows of the stride-k,
// phase-p subsequence: max(0, StrideLen(k,phase)-63).
func (b *Bits) StrideNumWindows64(k, phase int) int {
	if n := b.StrideLen(k, phase); n >= 64 {
		return n - 63
	}
	return 0
}

// StrideWindows64Range calls fn for every 64-bit window of the stride-k,
// phase-p subsequence whose starting index lies in [lo, hi), clamped to the
// valid range, stopping early if fn returns false. It is equivalent to
// scanning b.Stride(k, phase) but reads bits directly from the underlying
// words instead of materializing a new vector. Window start indices are
// positions in the stride subsequence, so window j covers raw bits
// phase+k*j .. phase+k*(j+63).
func (b *Bits) StrideWindows64Range(k, phase, lo, hi int, fn func(start int, window uint64) bool) {
	lo, hi, ok := clampWindowRange(lo, hi, b.StrideNumWindows64(k, phase))
	if !ok {
		return
	}
	// Gather the first window bit-by-bit, then roll.
	var w uint64
	for j := 0; j < 64; j++ {
		i := phase + k*(lo+j)
		if b.words[i>>6]&(1<<uint(i&63)) != 0 {
			w |= 1 << uint(j)
		}
	}
	for start := lo; ; {
		if !fn(start, w) {
			return
		}
		start++
		if start >= hi {
			return
		}
		i := phase + k*(start+63)
		w >>= 1
		if b.words[i>>6]&(1<<uint(i&63)) != 0 {
			w |= 1 << 63
		}
	}
}

// Clone returns a deep copy.
func (b *Bits) Clone() *Bits {
	c := &Bits{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// String renders the vector as a '0'/'1' string, bit 0 first.
func (b *Bits) String() string {
	var sb strings.Builder
	sb.Grow(b.n)
	for i := 0; i < b.n; i++ {
		if b.Bit(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Count returns the number of set bits.
func (b *Bits) Count() int {
	c := 0
	for i := 0; i < b.n; i++ {
		if b.Bit(i) {
			c++
		}
	}
	return c
}

// Stride returns the subsequence of bits at indices phase, phase+k,
// phase+2k, ... — the de-interleaved view the recognizer scans in addition
// to the full string, because the rolled loop generator interleaves its
// constant loop-control bit with the payload at stride 2.
func (b *Bits) Stride(k, phase int) *Bits {
	out := New(b.StrideLen(k, phase))
	for i := phase; i < b.n; i += k {
		out.Append(b.Bit(i))
	}
	return out
}

// IndexOfWord64 returns the first starting index whose 64-bit window equals
// v, or -1 if no window matches.
func (b *Bits) IndexOfWord64(v uint64) int {
	found := -1
	b.Windows64(func(start int, w uint64) bool {
		if w == v {
			found = start
			return false
		}
		return true
	})
	return found
}
