package stats

import (
	"math"

	"supg/internal/dist"
)

// UB returns the paper's Eq. 7 upper confidence bound
//
//	UB(mu, sigma, s, delta) = mu + sigma/sqrt(s) * sqrt(2 ln(1/delta))
//
// on a sample mean of s i.i.d. draws: asymptotically the sample mean
// exceeds UB of the population mean with probability at most delta
// (Lemma 1, via the CLT with a sub-Gaussian-style radius).
func UB(mu, sigma float64, s int, delta float64) float64 {
	return mu + deviation(sigma, s, delta)
}

// LB returns the paper's Eq. 8 lower confidence bound, the mirror of UB.
func LB(mu, sigma float64, s int, delta float64) float64 {
	return mu - deviation(sigma, s, delta)
}

// deviation is the shared radius sigma/sqrt(s) * sqrt(2 ln(1/delta)).
func deviation(sigma float64, s int, delta float64) float64 {
	if s <= 0 {
		return math.Inf(1)
	}
	if delta <= 0 {
		return math.Inf(1)
	}
	if delta >= 1 {
		return 0
	}
	return sigma / math.Sqrt(float64(s)) * math.Sqrt(2*math.Log(1/delta))
}

// HoeffdingLB returns the distribution-free Hoeffding lower bound for a
// mean of s i.i.d. values confined to an interval of width rangeWidth:
// mu - rangeWidth * sqrt(ln(1/delta) / (2 s)). It uses no variance
// information, which is why Figure 13 shows it returning vacuous bounds.
func HoeffdingLB(mu float64, rangeWidth float64, s int, delta float64) float64 {
	if s <= 0 || delta <= 0 {
		return math.Inf(-1)
	}
	return mu - rangeWidth*math.Sqrt(math.Log(1/delta)/(2*float64(s)))
}

// HoeffdingUB is the mirror upper bound of HoeffdingLB.
func HoeffdingUB(mu float64, rangeWidth float64, s int, delta float64) float64 {
	if s <= 0 || delta <= 0 {
		return math.Inf(1)
	}
	return mu + rangeWidth*math.Sqrt(math.Log(1/delta)/(2*float64(s)))
}

// ClopperPearsonLB returns the exact one-sided lower confidence bound at
// level 1-delta for a binomial proportion with k successes out of n
// trials, via the beta-quantile characterization:
//
//	lower = BetaQuantile(delta; k, n-k+1)
//
// It applies only to uniform (unweighted) binary samples.
func ClopperPearsonLB(k, n int, delta float64) float64 {
	if n <= 0 {
		return 0
	}
	if k <= 0 {
		return 0
	}
	if k >= n {
		return dist.BetaQuantile(delta, float64(n), 1)
	}
	return dist.BetaQuantile(delta, float64(k), float64(n-k+1))
}

// ClopperPearsonUB returns the exact one-sided upper confidence bound at
// level 1-delta for a binomial proportion with k successes of n trials.
func ClopperPearsonUB(k, n int, delta float64) float64 {
	if n <= 0 {
		return 1
	}
	if k >= n {
		return 1
	}
	if k <= 0 {
		return dist.BetaQuantile(1-delta, 1, float64(n))
	}
	return dist.BetaQuantile(1-delta, float64(k+1), float64(n-k))
}
