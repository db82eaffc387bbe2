// Package stats provides the estimators and confidence bounds the SUPG
// algorithms are built on: streaming moments (Welford), the paper's
// normal-approximation UB/LB helper bounds (Lemma 1, Eqs 7–8), and the
// alternative confidence-interval constructions compared in Figure 13
// (Hoeffding, Clopper–Pearson, bootstrap percentile).
package stats

import "math"

// Moments accumulates count, mean, and variance of a stream of values
// using Welford's numerically stable online algorithm. The zero value is
// ready to use.
type Moments struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (m *Moments) Add(x float64) {
	m.n++
	delta := x - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += delta * (x - m.mean)
}

// AddAll incorporates every value in xs.
func (m *Moments) AddAll(xs []float64) {
	for _, x := range xs {
		m.Add(x)
	}
}

// Count returns the number of observations.
func (m *Moments) Count() int { return m.n }

// Mean returns the sample mean (0 when empty).
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the unbiased sample variance (0 when n < 2).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Summarize computes the moments of xs in one call.
func Summarize(xs []float64) Moments {
	var m Moments
	m.AddAll(xs)
	return m
}

// Mean returns the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
