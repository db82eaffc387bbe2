package stats

import "supg/internal/dist"

// regIncBeta is the regularized incomplete beta function I_x(a, b).
func regIncBeta(x, a, b float64) float64 { return dist.RegIncBeta(x, a, b) }

// BinomialCDF returns P(X <= k) for X ~ Binomial(n, p), computed
// exactly through the regularized incomplete beta identity
// P(X <= k) = I_{1-p}(n-k, k+1). It underpins the finite-sample
// recall-threshold selection.
func BinomialCDF(k, n int, p float64) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		return 0
	}
	return regIncBeta(1-p, float64(n-k), float64(k+1))
}

// BinomialTailQuantile returns the largest j in [0, k] such that
// P(Binomial(k, p) <= j-1) <= delta, i.e. the most aggressive
// order-statistic index whose lower tail stays within the failure
// budget. It returns 0 when even j=1 overshoots (P(X = 0) > delta).
func BinomialTailQuantile(k int, p, delta float64) int {
	lo, hi := 0, k
	// Invariant: BinomialCDF(lo-1) <= delta; find the largest such lo.
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if BinomialCDF(mid-1, k, p) <= delta {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
