package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestBoundaries(t *testing.T) {
	if got := NoIsolatedNodeProbability(5, 0); got != 1 {
		t.Errorf("q=0: got %v, want 1", got)
	}
	if got := NoIsolatedNodeProbability(5, 1); got != 0 {
		t.Errorf("q=1: got %v, want 0", got)
	}
	if got := NoIsolatedNodeProbability(0, 0.5); got != 1 {
		t.Errorf("n=0: got %v, want 1", got)
	}
}

func TestTwoNodesClosedForm(t *testing.T) {
	// K_2 has one edge; no isolated node iff the edge survives: P = 1-q.
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		got := NoIsolatedNodeProbability(2, q)
		want := 1 - q
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("n=2 q=%v: got %v, want %v", q, got, want)
		}
	}
}

func TestThreeNodesClosedForm(t *testing.T) {
	// K_3: P(no isolated) = 1 - 3q^2 + 2q^3 (from inclusion-exclusion).
	for _, q := range []float64{0.2, 0.5, 0.8} {
		got := NoIsolatedNodeProbability(3, q)
		want := 1 - 3*q*q + 2*q*q*q
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("n=3 q=%v: got %v, want %v", q, got, want)
		}
	}
}

func TestMonotoneInQ(t *testing.T) {
	for n := 2; n <= 12; n++ {
		prev := 1.1
		for q := 0.0; q <= 1.0; q += 0.05 {
			p := NoIsolatedNodeProbability(n, q)
			if p > prev+1e-9 {
				t.Errorf("n=%d: probability increased from %v to %v at q=%v", n, prev, p, q)
			}
			prev = p
		}
	}
}

func TestAgainstMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		n int
		q float64
	}{{4, 0.3}, {5, 0.5}, {6, 0.7}, {8, 0.6}} {
		const trials = 20000
		hits := 0
		for trial := 0; trial < trials; trial++ {
			deg := make([]int, tc.n)
			for i := 0; i < tc.n; i++ {
				for j := i + 1; j < tc.n; j++ {
					if rng.Float64() >= tc.q {
						deg[i]++
						deg[j]++
					}
				}
			}
			ok := true
			for _, d := range deg {
				if d == 0 {
					ok = false
					break
				}
			}
			if ok {
				hits++
			}
		}
		emp := float64(hits) / trials
		ana := NoIsolatedNodeProbability(tc.n, tc.q)
		if math.Abs(emp-ana) > 0.02 {
			t.Errorf("n=%d q=%v: empirical %v vs analytic %v", tc.n, tc.q, emp, ana)
		}
	}
}

func TestRecoveryProbabilityEndpoints(t *testing.T) {
	if got := RecoveryProbability(5, 0); got != 0 {
		t.Errorf("intact=0: got %v, want 0", got)
	}
	if got := RecoveryProbability(5, 10); got != 1 {
		t.Errorf("intact=all: got %v, want 1", got)
	}
	mid := RecoveryProbability(5, 5)
	if mid <= 0 || mid >= 1 {
		t.Errorf("intact=half: got %v, want in (0,1)", mid)
	}
}

func TestRecoveryProbabilityMonotone(t *testing.T) {
	n := 8
	total := n * (n - 1) / 2
	prev := -0.1
	for intact := 0; intact <= total; intact++ {
		p := RecoveryProbability(n, intact)
		if p < prev-1e-9 {
			t.Errorf("recovery probability decreased at intact=%d", intact)
		}
		prev = p
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{{5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120}, {3, 4, 0}, {3, -1, 0}}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Errorf("binomial(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}
