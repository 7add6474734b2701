// Package wm implements the Java-bytecode-side path-based watermarking
// algorithm of the paper's §3 on top of the internal/vm substrate:
//
//   - tracing a program on the secret input sequence,
//   - splitting the watermark via the Generalized Chinese Remainder Theorem
//     into redundant, block-cipher-encrypted 64-bit pieces,
//   - inserting branch-generating code (a loop generator and a condition
//     generator over traced program variables, both guarded by opaque
//     predicates) at locations weighted inversely by execution frequency,
//   - recognizing the watermark from a fresh trace with the sliding-window
//   - voting + consistency-graph algorithm of §3.3.
//
// The embedding is a dynamic, blind fingerprinting scheme: recognition
// needs only the watermarked program and the key (secret input + cipher
// key + prime basis).
package wm

import (
	"errors"
	"fmt"
	"math/big"

	"pathmark/internal/crt"
	"pathmark/internal/feistel"
)

// Key is the watermark key shared by embedding and recognition.
type Key struct {
	// Input is the secret input sequence the program is traced on.
	Input []int64
	// Cipher is the block-cipher key used to encrypt pieces.
	Cipher feistel.Key
	// Params is the prime basis for CRT splitting.
	Params *crt.Params
}

// primeBits is the size of generated prime moduli. 16-bit primes keep the
// enumeration capacity tiny relative to the 64-bit cipher block (the
// capacity of even a 768-bit basis is ~2^42, so a random trace window
// decodes to a valid statement with probability ~2^-22) — this is the
// recognizer's main defense against garbage statements — while agreement
// modulo a random shared prime is still a ~2^-16 coincidence, preserving
// the §3.3 graph heuristic's premise.
const primeBits = 16

// maxPrimes is the largest prime basis a key holds: room for a 944-bit
// watermark, past Fig. 5's 768 bits (r = 53). NewKey makes no larger
// basis, so LoadKey can refuse one before crt.NewParams builds its
// r(r-1)/2 pair tables.
const maxPrimes = 64

// NewKey derives a key for watermarks of up to wBits bits: it selects a
// prime basis sized so the product of the primes exceeds 2^wBits, with one
// prime of headroom for redundancy.
func NewKey(input []int64, cipherKey feistel.Key, wBits int) (*Key, error) {
	if wBits <= 0 {
		return nil, errors.New("wm: watermark size must be positive")
	}
	// DefaultPrimes(primeBits) yields primes > 2^(primeBits-1).
	r := wBits/(primeBits-1) + 2
	if r < 3 {
		r = 3
	}
	if r > maxPrimes {
		return nil, fmt.Errorf("wm: a %d-bit watermark needs %d primes; a key holds at most %d", wBits, r, maxPrimes)
	}
	params, err := crt.NewParams(crt.DefaultPrimes(r, primeBits))
	if err != nil {
		return nil, fmt.Errorf("wm: building prime basis: %w", err)
	}
	return &Key{Input: append([]int64(nil), input...), Cipher: cipherKey, Params: params}, nil
}

// MaxWatermark returns the exclusive upper bound on watermark values for
// this key.
func (k *Key) MaxWatermark() *big.Int { return k.Params.MaxWatermark() }

// RandomWatermark derives a deterministic pseudo-random watermark of
// exactly bits significant bits from the seed; convenient for experiments.
func RandomWatermark(bits int, seed uint64) *big.Int {
	c := feistel.New(feistel.KeyFromUint64(seed, ^seed))
	w := new(big.Int)
	for i := 0; i*64 < bits; i++ {
		blk := c.Encrypt(uint64(i))
		w.Lsh(w, 64)
		w.Or(w, new(big.Int).SetUint64(blk))
	}
	w.Mod(w, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	w.SetBit(w, bits-1, 1) // force the top bit: exactly `bits` significant bits
	return w
}
