package crt

import (
	"math/big"
	"testing"
	"testing/quick"
)

// TestEncodeDecodeBijection: the enumeration is a bijection between
// statements and [0, Capacity).
func TestEncodeDecodeBijection(t *testing.T) {
	p := mustParams(t, []uint64{3, 5, 7})
	seen := make(map[uint64]bool)
	for k := 0; k < p.NumPairs(); k++ {
		i, j := p.Pair(k)
		m := p.Modulus(Statement{I: i, J: j})
		for x := uint64(0); x < m; x++ {
			enc, err := p.Encode(Statement{I: i, J: j, X: x})
			if err != nil {
				t.Fatal(err)
			}
			if seen[enc] {
				t.Fatalf("encoding collision at %d", enc)
			}
			seen[enc] = true
		}
	}
	if uint64(len(seen)) != p.Capacity() {
		t.Fatalf("enumeration covers %d values, capacity %d", len(seen), p.Capacity())
	}
}

// TestReconstructAgreesWithModulo (quick): for random W, reconstruction
// from any subset containing a spanning set returns W.
func TestReconstructAgreesWithModulo(t *testing.T) {
	p := mustParams(t, DefaultPrimes(5, 10))
	maxW := p.MaxWatermark()
	f := func(seedA, seedB uint32) bool {
		w := new(big.Int).SetUint64(uint64(seedA)<<32 | uint64(seedB))
		w.Mod(w, maxW)
		stmts, err := p.Split(w)
		if err != nil {
			return false
		}
		// Drop statements deterministically but keep a spanning path.
		var subset []Statement
		for _, s := range stmts {
			if s.J == s.I+1 || (seedA+uint32(s.I*7+s.J))%3 == 0 {
				subset = append(subset, s)
			}
		}
		v, m, err := p.Reconstruct(subset)
		return err == nil && m.Cmp(maxW) == 0 && v.Cmp(w) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
