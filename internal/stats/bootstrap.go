package stats

import (
	"sort"

	"supg/internal/randx"
)

// bootstrapResamples is the number of resampled means behind each
// bootstrap confidence bound.
const bootstrapResamples = 200

// BootstrapLB returns the percentile-bootstrap one-sided lower bound at
// level 1-delta for the mean of xs: the delta-quantile of the resampled
// means.
func BootstrapLB(r *randx.Rand, xs []float64, delta float64) float64 {
	means := bootstrapMeans(r, xs)
	if len(means) == 0 {
		return 0
	}
	return Quantile(means, delta)
}

// BootstrapUB returns the percentile-bootstrap one-sided upper bound at
// level 1-delta for the mean of xs.
func BootstrapUB(r *randx.Rand, xs []float64, delta float64) float64 {
	means := bootstrapMeans(r, xs)
	if len(means) == 0 {
		return 0
	}
	return Quantile(means, 1-delta)
}

func bootstrapMeans(r *randx.Rand, xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	n := len(xs)
	means := make([]float64, bootstrapResamples)
	for b := range means {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += xs[r.IntN(n)]
		}
		means[b] = sum / float64(n)
	}
	return means
}

// Quantile returns the q-th empirical quantile of xs (0 <= q <= 1) using
// linear interpolation between order statistics. It copies and sorts xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// QuantileSorted is Quantile for already-sorted input, without copying.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// BoxStats summarizes a sample the way the paper's box plots do:
// quartiles plus min/max whiskers (1.5 IQR convention) and the fraction
// of values strictly below a reference line.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
	WhiskerLo, WhiskerHi     float64
	N                        int
}

// NewBoxStats computes box-plot statistics for xs.
func NewBoxStats(xs []float64) BoxStats {
	if len(xs) == 0 {
		return BoxStats{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	b := BoxStats{
		Min:    s[0],
		Q1:     QuantileSorted(s, 0.25),
		Median: QuantileSorted(s, 0.5),
		Q3:     QuantileSorted(s, 0.75),
		Max:    s[len(s)-1],
		N:      len(s),
	}
	iqr := b.Q3 - b.Q1
	lo := b.Q1 - 1.5*iqr
	hi := b.Q3 + 1.5*iqr
	b.WhiskerLo, b.WhiskerHi = b.Max, b.Min
	for _, v := range s {
		if v >= lo && v < b.WhiskerLo {
			b.WhiskerLo = v
		}
		if v <= hi && v > b.WhiskerHi {
			b.WhiskerHi = v
		}
	}
	return b
}

// FractionBelow returns the fraction of xs strictly less than threshold;
// this is the empirical failure rate when threshold is the target metric.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := 0
	for _, v := range xs {
		if v < threshold {
			c++
		}
	}
	return float64(c) / float64(len(xs))
}
