package crt

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustParams(t testing.TB, primes []uint64) *Params {
	t.Helper()
	p, err := NewParams(primes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewParamsRejectsBadInput(t *testing.T) {
	cases := [][]uint64{
		{},            // empty
		{7},           // single modulus
		{4, 6},        // share factor 2
		{3, 9},        // share factor 3
		{0, 3},        // < 2
		{1, 3},        // < 2
		{2, 3, 5, 10}, // 10 shares factors with 2 and 5
	}
	for _, primes := range cases {
		if _, err := NewParams(primes); err == nil {
			t.Errorf("NewParams(%v) accepted invalid basis", primes)
		}
	}
}

func TestPaperFigure3(t *testing.T) {
	// Figure 3: W = 17 with p1=2, p2=3, p3=5:
	// W ≡ 5 (mod 6), W ≡ 7 (mod 10), W ≡ 2 (mod 15).
	p := mustParams(t, []uint64{2, 3, 5})
	stmts, err := p.Split(big.NewInt(17))
	if err != nil {
		t.Fatal(err)
	}
	want := []Statement{{0, 1, 5}, {0, 2, 7}, {1, 2, 2}}
	if len(stmts) != len(want) {
		t.Fatalf("Split produced %d statements, want %d", len(stmts), len(want))
	}
	for i, s := range stmts {
		if s != want[i] {
			t.Errorf("statement %d = %+v, want %+v", i, s, want[i])
		}
	}
	// Figure 3's enumeration: 5 -> 5, 7 -> p1p2+7 = 13, 2 -> p1p2+p1p3+2 = 18.
	wantEnc := []uint64{5, 13, 18}
	for i, s := range stmts {
		enc, err := p.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		if enc != wantEnc[i] {
			t.Errorf("Encode(%+v) = %d, want %d", s, enc, wantEnc[i])
		}
	}
	v, m, err := p.Reconstruct(stmts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cmp(big.NewInt(30)) != 0 || v.Cmp(big.NewInt(17)) != 0 {
		t.Errorf("Reconstruct = %v mod %v, want 17 mod 30", v, m)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := mustParams(t, DefaultPrimes(6, 8))
	for k := 0; k < p.NumPairs(); k++ {
		i, j := p.Pair(k)
		for _, x := range []uint64{0, 1, p.Modulus(Statement{I: i, J: j}) - 1} {
			s := Statement{I: i, J: j, X: x}
			enc, err := p.Encode(s)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := p.Decode(enc)
			if !ok || got != s {
				t.Errorf("Decode(Encode(%+v)) = %+v ok=%v", s, got, ok)
			}
		}
	}
}

func TestDecodeRejectsOutOfRange(t *testing.T) {
	p := mustParams(t, []uint64{2, 3, 5})
	if _, ok := p.Decode(p.Capacity()); ok {
		t.Error("Decode accepted value == Capacity")
	}
	if _, ok := p.Decode(1 << 62); ok {
		t.Error("Decode accepted huge value")
	}
	// Everything below capacity must decode.
	for w := uint64(0); w < p.Capacity(); w++ {
		if _, ok := p.Decode(w); !ok {
			t.Fatalf("Decode(%d) rejected in-range value", w)
		}
	}
}

func TestEncodeRejectsBadStatement(t *testing.T) {
	p := mustParams(t, []uint64{2, 3, 5})
	bad := []Statement{
		{I: 1, J: 0, X: 0}, // J <= I
		{I: 0, J: 3, X: 0}, // J out of range
		{I: 0, J: 1, X: 6}, // X >= 2*3
	}
	for _, s := range bad {
		if _, err := p.Encode(s); err == nil {
			t.Errorf("Encode(%+v) accepted invalid statement", s)
		}
	}
}

func TestSplitReconstructProperty(t *testing.T) {
	p := mustParams(t, DefaultPrimes(8, 12))
	maxW := p.MaxWatermark()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := new(big.Int).Rand(rng, maxW)
		stmts, err := p.Split(w)
		if err != nil {
			return false
		}
		v, m, err := p.Reconstruct(stmts)
		if err != nil {
			return false
		}
		return m.Cmp(maxW) == 0 && v.Cmp(w) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReconstructFromSubsetCoveringAllPrimes(t *testing.T) {
	// A spanning subset of pairs (a path over the prime nodes) already
	// determines W: the combined modulus is the full product.
	p := mustParams(t, DefaultPrimes(6, 10))
	w := big.NewInt(123456789)
	stmts, err := p.Split(w)
	if err != nil {
		t.Fatal(err)
	}
	var path []Statement
	for _, s := range stmts {
		if s.J == s.I+1 { // pairs (0,1),(1,2),...,(4,5): a spanning path
			path = append(path, s)
		}
	}
	if len(path) != 5 {
		t.Fatalf("picked %d path statements, want 5", len(path))
	}
	v, m, err := p.Reconstruct(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cmp(p.MaxWatermark()) != 0 {
		t.Errorf("modulus = %v, want full product %v", m, p.MaxWatermark())
	}
	if v.Cmp(w) != 0 {
		t.Errorf("value = %v, want %v", v, w)
	}
}

func TestReconstructDetectsInconsistency(t *testing.T) {
	p := mustParams(t, []uint64{2, 3, 5})
	stmts, _ := p.Split(big.NewInt(17))
	stmts[1].X = (stmts[1].X + 1) % p.Modulus(stmts[1]) // corrupt: now W ≡ 8 (mod 10), parity conflicts with 5 mod 6
	if _, _, err := p.Reconstruct(stmts); err == nil {
		t.Error("Reconstruct accepted inconsistent statements")
	}
}

func TestDefaultPrimes(t *testing.T) {
	ps := DefaultPrimes(10, 13)
	if len(ps) != 10 {
		t.Fatalf("got %d primes", len(ps))
	}
	for i, p := range ps {
		if !isPrime(p) {
			t.Errorf("DefaultPrimes[%d] = %d not prime", i, p)
		}
		if p < 1<<12 || p > 1<<14 {
			t.Errorf("DefaultPrimes[%d] = %d not ~13 bits", i, p)
		}
		if i > 0 && ps[i-1] >= p {
			t.Errorf("primes not increasing at %d", i)
		}
	}
}

func TestSplitRejectsOversizeWatermark(t *testing.T) {
	p := mustParams(t, []uint64{2, 3, 5})
	if _, err := p.Split(big.NewInt(30)); err == nil {
		t.Error("Split accepted W == product of primes")
	}
	if _, err := p.Split(big.NewInt(-1)); err == nil {
		t.Error("Split accepted negative W")
	}
}

func TestCapacityMatchesPairSum(t *testing.T) {
	p := mustParams(t, []uint64{2, 3, 5})
	// 2*3 + 2*5 + 3*5 = 31
	if p.Capacity() != 31 {
		t.Errorf("Capacity = %d, want 31", p.Capacity())
	}
	if p.NumPairs() != 3 {
		t.Errorf("NumPairs = %d, want 3", p.NumPairs())
	}
}
