// Package crt implements the number-theoretic core of the Java-side
// watermark (paper §3.2 step 1-2 and §3.3 step D):
//
//   - splitting a watermark integer W into redundant statements of the form
//     W ≡ x (mod p_i·p_j) over pairwise relatively prime p_1..p_r,
//   - the enumeration scheme that packs each statement into a single 64-bit
//     integer (and its inverse, which doubles as the recognizer's garbage
//     filter: a random 64-bit value decodes to a valid statement only with
//     probability capacity/2^64),
//   - merging consistent congruences with the Generalized Chinese Remainder
//     Theorem (moduli p_i·p_j are *not* pairwise coprime across statements,
//     so the general gcd-aware merge is required).
package crt

import (
	"errors"
	"fmt"
	"math/big"
	mathbits "math/bits"
	"sort"
)

// Statement records "W ≡ X (mod Primes[I]*Primes[J])" with I < J.
type Statement struct {
	I, J int
	X    uint64
}

// Params fixes the prime basis of a watermark key. The same Params must be
// used for embedding and recognition.
type Params struct {
	primes  []uint64
	offsets []uint64 // offsets[k] = Σ of p_i*p_j over the first k pairs
	pairs   [][2]int // lexicographic pair order: (0,1),(0,2),...,(r-2,r-1)

	// Framing constants, fixed by the capacity and memoized here because
	// Unframe runs on every decrypted window in the scan hot loop (see
	// framing.go).
	frameShift     uint   // payload width = bits.Len64(Capacity()-1); < 64 since Capacity < 2^63
	framePayload   uint64 // low-bit mask selecting the payload field
	frameCheckMask uint64 // check field truncated to the available headroom
	frameCap       uint64 // Capacity(), denormalized out of the offsets slice
}

// NewParams validates the prime basis: at least two moduli, each > 1,
// pairwise relatively prime, and a total enumeration capacity that fits in
// 63 bits (so every encoded statement occupies a single 64-bit cipher
// block with headroom).
func NewParams(primes []uint64) (*Params, error) {
	if len(primes) < 2 {
		return nil, errors.New("crt: need at least two moduli")
	}
	for i, p := range primes {
		if p < 2 {
			return nil, fmt.Errorf("crt: modulus %d at index %d must be >= 2", p, i)
		}
		for j := 0; j < i; j++ {
			if gcd64(p, primes[j]) != 1 {
				return nil, fmt.Errorf("crt: moduli %d and %d are not relatively prime", primes[j], p)
			}
		}
	}
	pr := &Params{primes: append([]uint64(nil), primes...)}
	var total uint64
	for i := 0; i < len(primes); i++ {
		for j := i + 1; j < len(primes); j++ {
			prod := primes[i] * primes[j]
			if primes[i] != 0 && prod/primes[i] != primes[j] {
				return nil, fmt.Errorf("crt: modulus product %d*%d overflows", primes[i], primes[j])
			}
			pr.pairs = append(pr.pairs, [2]int{i, j})
			pr.offsets = append(pr.offsets, total)
			if total+prod < total {
				return nil, errors.New("crt: enumeration capacity overflows uint64")
			}
			total += prod
		}
	}
	if total >= 1<<63 {
		return nil, errors.New("crt: enumeration capacity exceeds 63 bits")
	}
	pr.offsets = append(pr.offsets, total)
	pr.frameCap = total
	pr.frameShift = uint(mathbits.Len64(total - 1))
	pr.framePayload = 1<<pr.frameShift - 1
	pr.frameCheckMask = 0xffff
	if headroom := 64 - pr.frameShift; headroom < 16 {
		pr.frameCheckMask = 1<<headroom - 1
	}
	return pr, nil
}

// DefaultPrimes returns n deterministic primes of roughly the given bit
// size, suitable for NewParams. Primes are consecutive primes starting just
// above 2^(bits-1).
func DefaultPrimes(n, bits int) []uint64 {
	if bits < 2 || bits > 30 {
		panic(fmt.Sprintf("crt: DefaultPrimes bits %d out of range [2,30]", bits))
	}
	out := make([]uint64, 0, n)
	for cand := uint64(1)<<uint(bits-1) + 1; len(out) < n; cand += 2 {
		if isPrime(cand) {
			out = append(out, cand)
		}
	}
	return out
}

func isPrime(v uint64) bool {
	if v < 2 {
		return false
	}
	if v%2 == 0 {
		return v == 2
	}
	for d := uint64(3); d*d <= v; d += 2 {
		if v%d == 0 {
			return false
		}
	}
	return true
}

func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Primes returns a copy of the prime basis.
func (p *Params) Primes() []uint64 { return append([]uint64(nil), p.primes...) }

// NumPairs reports the number of distinct (i,j) pairs, the maximum number of
// distinct pieces (r(r-1)/2 in the paper).
func (p *Params) NumPairs() int { return len(p.pairs) }

// Capacity reports the total number of valid statement encodings; every
// encoded statement is < Capacity().
func (p *Params) Capacity() uint64 { return p.offsets[len(p.offsets)-1] }

// MaxWatermark returns the exclusive upper bound Π p_k on representable
// watermark values.
func (p *Params) MaxWatermark() *big.Int {
	prod := big.NewInt(1)
	for _, q := range p.primes {
		prod.Mul(prod, new(big.Int).SetUint64(q))
	}
	return prod
}

// Pair returns the k-th pair in enumeration order.
func (p *Params) Pair(k int) (i, j int) {
	return p.pairs[k][0], p.pairs[k][1]
}

// pairIndex returns the enumeration index of pair (i,j), i < j.
func (p *Params) pairIndex(i, j int) int {
	// Pairs are ordered (0,1),(0,2),..,(0,r-1),(1,2),.. so the index is
	// Σ_{n<i}(r-1-n) + (j-i-1).
	r := len(p.primes)
	return i*r - i*(i+1)/2 + (j - i - 1)
}

// Split decomposes W into one statement per pair, in enumeration order.
// It returns an error if W is negative or too large for the basis.
func (p *Params) Split(w *big.Int) ([]Statement, error) {
	if w.Sign() < 0 {
		return nil, errors.New("crt: watermark must be non-negative")
	}
	if w.Cmp(p.MaxWatermark()) >= 0 {
		return nil, fmt.Errorf("crt: watermark needs more than %d prime moduli", len(p.primes))
	}
	stmts := make([]Statement, 0, len(p.pairs))
	var mod, rem big.Int
	for _, pair := range p.pairs {
		m := p.primes[pair[0]] * p.primes[pair[1]]
		mod.SetUint64(m)
		rem.Mod(w, &mod)
		stmts = append(stmts, Statement{I: pair[0], J: pair[1], X: rem.Uint64()})
	}
	return stmts, nil
}

// Encode packs a statement into a single integer < Capacity() using the
// paper's enumeration scheme: the offset of all pairs before (I,J), plus X.
func (p *Params) Encode(s Statement) (uint64, error) {
	if s.I < 0 || s.J <= s.I || s.J >= len(p.primes) {
		return 0, fmt.Errorf("crt: invalid pair (%d,%d)", s.I, s.J)
	}
	m := p.primes[s.I] * p.primes[s.J]
	if s.X >= m {
		return 0, fmt.Errorf("crt: residue %d out of range for modulus %d", s.X, m)
	}
	return p.offsets[p.pairIndex(s.I, s.J)] + s.X, nil
}

// Decode inverts Encode. ok is false when w is not a valid statement
// encoding (w >= Capacity()); during recognition this rejects the vast
// majority of garbage cipher blocks.
func (p *Params) Decode(w uint64) (s Statement, ok bool) {
	if w >= p.Capacity() {
		return Statement{}, false
	}
	// offsets is sorted; find the last offset <= w.
	k := sort.Search(len(p.pairs), func(k int) bool { return p.offsets[k+1] > w })
	pair := p.pairs[k]
	return Statement{I: pair[0], J: pair[1], X: w - p.offsets[k]}, true
}

// Modulus returns p_I * p_J for the statement.
func (p *Params) Modulus(s Statement) uint64 {
	return p.primes[s.I] * p.primes[s.J]
}

// Reconstruct merges statements with the Generalized Chinese Remainder
// Theorem. On success it returns the combined value W mod M and the
// combined modulus M (the product of all primes covered by the
// statements). It returns an error if any two statements are inconsistent.
//
// The caller decides whether M is large enough: recovery of the original
// watermark requires M > W, which in the paper's terms means every prime
// node of the statement graph retains at least one incident edge.
func (p *Params) Reconstruct(stmts []Statement) (value, modulus *big.Int, err error) {
	if len(stmts) == 0 {
		return nil, nil, errors.New("crt: no statements to reconstruct from")
	}
	value = new(big.Int).SetUint64(stmts[0].X)
	modulus = new(big.Int).SetUint64(p.Modulus(stmts[0]))
	for _, s := range stmts[1:] {
		value, modulus, err = mergeCongruence(value, modulus, new(big.Int).SetUint64(s.X), new(big.Int).SetUint64(p.Modulus(s)))
		if err != nil {
			return nil, nil, err
		}
	}
	return value, modulus, nil
}

// mergeCongruence combines x ≡ a (mod m) and x ≡ b (mod n) into
// x ≡ c (mod lcm(m,n)), failing when a ≢ b (mod gcd(m,n)).
func mergeCongruence(a, m, b, n *big.Int) (c, l *big.Int, err error) {
	g := new(big.Int).GCD(nil, nil, m, n)
	diff := new(big.Int).Sub(b, a)
	rem := new(big.Int).Mod(diff, g)
	if rem.Sign() != 0 {
		return nil, nil, fmt.Errorf("crt: inconsistent congruences (%v mod %v) vs (%v mod %v)", a, m, b, n)
	}
	// l = lcm(m,n); solve a + m*t ≡ b (mod n)  =>  t ≡ (b-a)/g * inv(m/g) (mod n/g).
	l = new(big.Int).Div(m, g)
	l.Mul(l, n)
	mg := new(big.Int).Div(m, g)
	ng := new(big.Int).Div(n, g)
	inv := new(big.Int).ModInverse(mg, ng)
	if inv == nil {
		// Cannot happen: m/g and n/g are coprime by construction.
		return nil, nil, errors.New("crt: internal error computing modular inverse")
	}
	t := new(big.Int).Div(diff, g)
	t.Mul(t, inv)
	t.Mod(t, ng)
	c = new(big.Int).Mul(m, t)
	c.Add(c, a)
	c.Mod(c, l)
	return c, l, nil
}
