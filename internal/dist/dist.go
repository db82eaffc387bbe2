// Package dist provides the Beta-distribution primitives the library
// needs: sampling (for the paper's synthetic Beta-score datasets),
// the regularized incomplete beta function (binomial tail
// probabilities), and the Beta quantile (Clopper-Pearson confidence
// bounds). All routines are dependency-free and deterministic given a
// *randx.Rand.
package dist

import (
	"math"

	"supg/internal/randx"
)

// marsagliaTsang draws from Gamma(shape, 1) for shape >= 1.
func marsagliaTsang(r *randx.Rand, shape float64) float64 {
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// sampleLogGamma returns log(G) for G ~ Gamma(shape, 1). Working in log
// space keeps tiny shapes (the paper uses Beta(0.01, ·) scores) from
// underflowing to zero before the Beta ratio is formed.
func sampleLogGamma(r *randx.Rand, shape float64) float64 {
	if shape >= 1 {
		return math.Log(marsagliaTsang(r, shape))
	}
	u := 1 - r.Float64() // in (0, 1]
	return math.Log(marsagliaTsang(r, shape+1)) + math.Log(u)/shape
}

// SampleBeta draws from Beta(alpha, beta) as the gamma ratio
// X/(X+Y), X ~ Gamma(alpha), Y ~ Gamma(beta), evaluated stably in log
// space so extreme shape parameters produce values near (but inside the
// closure of) the correct tail rather than NaN. It panics if either
// shape is not positive and finite.
func SampleBeta(r *randx.Rand, alpha, beta float64) float64 {
	if !(alpha > 0) || !(beta > 0) || math.IsInf(alpha, 1) || math.IsInf(beta, 1) {
		panic("dist: beta shapes must be positive and finite")
	}
	lx := sampleLogGamma(r, alpha)
	ly := sampleLogGamma(r, beta)
	// X/(X+Y) = 1/(1 + exp(ly-lx)); exp overflow saturates to 0 or 1,
	// which is the correct limit.
	d := ly - lx
	if d > 0 {
		e := math.Exp(-d)
		return e / (1 + e)
	}
	return 1 / (1 + math.Exp(d))
}

// RegIncBeta computes the regularized incomplete beta function
// I_x(a, b) for x in [0, 1] and a, b > 0 via the Lentz continued
// fraction, accurate to ~1e-14. Out-of-range x clamps to {0, 1}.
func RegIncBeta(x, a, b float64) float64 {
	if math.IsNaN(x) || math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lga, _ := math.Lgamma(a + b)
	lgb, _ := math.Lgamma(a)
	lgc, _ := math.Lgamma(b)
	front := math.Exp(lga - lgb - lgc + a*math.Log(x) + b*math.Log1p(-x))
	// The continued fraction converges quickly for x < (a+1)/(a+b+2);
	// use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) otherwise.
	if x < (a+1)/(a+b+2) {
		return front * betacf(x, a, b) / a
	}
	return 1 - front*betacf(1-x, b, a)/b
}

// betacf evaluates the continued fraction of the incomplete beta
// function by the modified Lentz method.
func betacf(x, a, b float64) float64 {
	const (
		maxIter = 300
		eps     = 1e-15
		tiny    = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		// Even step.
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// BetaQuantile returns the p-quantile of Beta(a, b): the x with
// I_x(a, b) = p. Quantiles above the value at 1/2 are reflected
// through I_x(a,b) = 1 - I_{1-x}(b,a); the lower-half solve bisects on
// log(x), which resolves the astronomically small quantiles that
// shapes far below 1 produce (Beta(0.01, 2) at p=0.01 sits near
// 1e-200) where linear bisection would stall at ~1e-16.
func BetaQuantile(p, a, b float64) float64 {
	if math.IsNaN(p) || math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	if RegIncBeta(0.5, a, b) < p {
		// The quantile lies in (1/2, 1); solve the mirrored lower-tail
		// problem instead (this cannot re-flip: the mirrored CDF at 1/2
		// is >= the mirrored p by construction).
		return 1 - BetaQuantile(1-p, b, a)
	}
	// Quantile is in (0, 1/2]; bisect t = log(x) down to the subnormal
	// floor. 200 halvings of a ~745-wide interval are far below float64
	// resolution in t, hence below relative epsilon in x = e^t.
	loT, hiT := -745.0, math.Log(0.5)
	for i := 0; i < 200 && hiT-loT > 1e-30; i++ {
		mid := (loT + hiT) / 2
		if RegIncBeta(math.Exp(mid), a, b) < p {
			loT = mid
		} else {
			hiT = mid
		}
	}
	return math.Exp((loT + hiT) / 2)
}
