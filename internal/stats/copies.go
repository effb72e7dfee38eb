package stats

import (
	"math"
	"math/big"
)

// ExpectedCopies returns E_{f,n}[X]: the expected number of distinct
// partitions (out of n) that end up holding a copy of a referenced-table
// tuple whose join-key value occurs f times in the referencing side's seed
// placement, under the paper's uniform-placement model (Appendix A).
//
// It uses the closed form n·(1 − (1 − 1/n)^f), which is algebraically equal
// to the paper's Stirling-number formulation
// Σ_x x·C(n,x)·x!·S(f,x)/n^f — the equality is verified in tests against
// both the exact big-rational evaluation and a probability DP.
func ExpectedCopies(f, n int) float64 {
	if f <= 0 || n <= 0 {
		return 0
	}
	if n == 1 || f == 1 {
		return 1
	}
	return float64(n) * (1 - math.Pow(1-1/float64(n), float64(f)))
}

// ExpectedCopiesReal is ExpectedCopies for non-integral occurrence counts,
// used when a key's frequency is scaled by an upstream chain inflation
// (the closed form extends naturally to real exponents).
func ExpectedCopiesReal(f float64, n int) float64 {
	if f <= 0 || n <= 0 {
		return 0
	}
	if n == 1 || f <= 1 {
		return 1
	}
	return float64(n) * (1 - math.Pow(1-1/float64(n), f))
}

// ExpectedCopiesExact evaluates the paper's formula literally with exact
// big-rational arithmetic:
//
//	E_{f,n}[X] = Σ_{x=1}^{min(n,f)} x · C(n,x)·x!·S(f,x) / n^f
//
// It is exponential-free but O(min(n,f)·f) with big numbers, so it is meant
// for validating the closed form, not hot paths.
func ExpectedCopiesExact(f, n int) float64 {
	if f <= 0 || n <= 0 {
		return 0
	}
	m := f
	if n < m {
		m = n
	}
	den := new(big.Int).Exp(big.NewInt(int64(n)), big.NewInt(int64(f)), nil)
	sum := new(big.Rat)
	for x := 1; x <= m; x++ {
		// C(n,x) · x! = n·(n−1)·…·(n−x+1)  (falling factorial)
		ways := big.NewInt(1)
		for i := 0; i < x; i++ {
			ways.Mul(ways, big.NewInt(int64(n-i)))
		}
		num := new(big.Int).Mul(ways, Stirling2(f, x))
		num.Mul(num, big.NewInt(int64(x)))
		sum.Add(sum, new(big.Rat).SetFrac(num, den))
	}
	v, _ := sum.Float64()
	return v
}

// CopiesDistribution returns P(X = x) for x in [0, n]: the probability that
// exactly x partitions are occupied after placing f occurrences uniformly
// into n partitions. Computed by an O(f·n) probability DP, avoiding big
// Stirling numbers.
func CopiesDistribution(f, n int) []float64 {
	p := make([]float64, n+1)
	p[0] = 1
	for i := 0; i < f; i++ {
		next := make([]float64, n+1)
		for x := 0; x <= n; x++ {
			if p[x] == 0 {
				continue
			}
			// next occurrence lands in an occupied partition…
			next[x] += p[x] * float64(x) / float64(n)
			// …or a fresh one
			if x < n {
				next[x+1] += p[x] * float64(n-x) / float64(n)
			}
		}
		p = next
	}
	return p
}
