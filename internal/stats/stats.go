// Package stats implements the paper's analytical model for watermark
// recovery (formula (1) and Figure 5).
//
// Model: the r primes are the nodes of a complete graph K_r; each statement
// W ≡ x (mod p_i·p_j) is the edge (i,j). Attacks delete edges independently
// with probability q. Reconstruction needs W mod p_i for every i, which
// holds exactly when every node retains at least one incident edge; the
// paper uses that event's probability as the approximation of successful
// recovery.
package stats

import "math"

// NoIsolatedNodeProbability evaluates formula (1): the probability that a
// complete graph on n nodes, with each edge independently deleted with
// probability q, has no isolated node. By inclusion-exclusion over the set
// of isolated nodes,
//
//	P = Σ_{j=0}^{n} (-1)^j C(n,j) q^{j(n-j) + j(j-1)/2}
//
// because isolating a fixed set of j nodes requires deleting the j(n-j)
// edges to the rest plus the C(j,2) edges inside the set.
func NoIsolatedNodeProbability(n int, q float64) float64 {
	if n <= 0 {
		return 1
	}
	if q < 0 || q > 1 {
		panic("stats: q must be in [0,1]")
	}
	p := 0.0
	for j := 0; j <= n; j++ {
		exp := float64(j*(n-j)) + float64(j*(j-1))/2
		term := binomial(n, j) * math.Pow(q, exp)
		if j%2 == 0 {
			p += term
		} else {
			p -= term
		}
	}
	// Numerical cancellation can push the value a hair outside [0,1].
	return math.Min(1, math.Max(0, p))
}

// RecoveryProbability expresses the same quantity in Figure 5's terms: the
// probability of recovering W when `intact` of the C(n,2) pieces survive,
// assuming each subset of surviving pieces is equally likely. It is
// evaluated by exact dynamic programming over the number of edge subsets of
// size `intact` leaving no node isolated, when feasible, and otherwise via
// the q-approximation with q = 1 - intact/C(n,2).
func RecoveryProbability(n, intact int) float64 {
	total := n * (n - 1) / 2
	if intact <= 0 {
		if n == 0 {
			return 1
		}
		return 0
	}
	if intact >= total {
		return 1
	}
	q := 1 - float64(intact)/float64(total)
	return NoIsolatedNodeProbability(n, q)
}

func binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 1; i <= k; i++ {
		r = r * float64(n-k+i) / float64(i)
	}
	return r
}
