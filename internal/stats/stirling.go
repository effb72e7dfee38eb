// Package stats implements the statistics behind the paper's redundancy
// estimation (Appendix A): join-key histograms (optionally from samples),
// Stirling numbers of the second kind, the expected number of tuple copies
// E_{f,n}[X] and its distribution. It also holds the module's one
// latency-quantile estimator, the log-bucket histogram Latency, which the
// serving layer keeps for query latency and the cluster layer for pricing
// the hedging delay.
package stats

import "math/big"

// Stirling2 returns the Stirling number of the second kind S(n, k): the
// number of ways to partition n labeled objects into k non-empty unlabeled
// groups. Exact (big.Int); used by the paper both for E_{f,n}[X]
// (Appendix A) and to size the WD merge search space (Section 4.3).
func Stirling2(n, k int) *big.Int {
	if n < 0 || k < 0 || k > n {
		return big.NewInt(0)
	}
	if n == 0 && k == 0 {
		return big.NewInt(1)
	}
	if k == 0 || n == 0 {
		return big.NewInt(0)
	}
	// DP over S(i, j) = j*S(i-1, j) + S(i-1, j-1).
	prev := make([]*big.Int, k+1)
	cur := make([]*big.Int, k+1)
	for j := range prev {
		prev[j] = big.NewInt(0)
		cur[j] = big.NewInt(0)
	}
	prev[0] = big.NewInt(1) // S(0,0)
	for i := 1; i <= n; i++ {
		cur[0] = big.NewInt(0)
		for j := 1; j <= k && j <= i; j++ {
			t := new(big.Int).Mul(big.NewInt(int64(j)), prev[j])
			cur[j] = t.Add(t, prev[j-1])
		}
		prev, cur = cur, prev
	}
	return prev[k]
}

// Bell returns the Bell number B(n) = Σ_k S(n,k): the number of partitions
// of an n-element set. This is the size of the unpruned WD merge-
// configuration search space for n queries (Section 4.3).
func Bell(n int) *big.Int {
	sum := big.NewInt(0)
	for k := 0; k <= n; k++ {
		sum.Add(sum, Stirling2(n, k))
	}
	return sum
}
