package stats

import (
	"math"
	"testing"
	"testing/quick"

	"supg/internal/randx"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMomentsMatchNaive(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	m := Summarize(xs)
	// Naive mean and unbiased variance.
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	varsum := 0.0
	for _, x := range xs {
		varsum += (x - mean) * (x - mean)
	}
	wantVar := varsum / float64(len(xs)-1)
	if !almostEqual(m.Mean(), mean, 1e-12) {
		t.Errorf("mean %v want %v", m.Mean(), mean)
	}
	if !almostEqual(m.Variance(), wantVar, 1e-12) {
		t.Errorf("variance %v want %v", m.Variance(), wantVar)
	}
	if m.Count() != len(xs) {
		t.Errorf("count %d", m.Count())
	}
}

func TestMomentsEmptyAndSingle(t *testing.T) {
	var m Moments
	if m.Mean() != 0 || m.Variance() != 0 || m.Count() != 0 {
		t.Error("empty moments should be zero")
	}
	m.Add(5)
	if m.Mean() != 5 || m.Variance() != 0 {
		t.Error("single observation: mean 5, variance 0")
	}
}

// Property: Welford agrees with two-pass computation on random data.
func TestMomentsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		m := Summarize(xs)
		mean := Mean(xs)
		if !almostEqual(m.Mean(), mean, 1e-6*(1+math.Abs(mean))) {
			return false
		}
		return m.Variance() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUBLBSymmetry(t *testing.T) {
	mu, sigma := 0.4, 0.2
	ub := UB(mu, sigma, 100, 0.05)
	lb := LB(mu, sigma, 100, 0.05)
	if !almostEqual(ub-mu, mu-lb, 1e-12) {
		t.Error("UB/LB not symmetric around the mean")
	}
	if ub <= mu || lb >= mu {
		t.Error("bounds should bracket the mean strictly")
	}
}

func TestUBLBFormula(t *testing.T) {
	// Eq. 7: mu + sigma/sqrt(s) * sqrt(2 ln(1/delta)).
	want := 0.5 + 0.1/math.Sqrt(400)*math.Sqrt(2*math.Log(1/0.05))
	if got := UB(0.5, 0.1, 400, 0.05); !almostEqual(got, want, 1e-12) {
		t.Errorf("UB = %v, want %v", got, want)
	}
}

func TestUBLBShrinkWithSamples(t *testing.T) {
	if UB(0.5, 0.1, 100, 0.05) <= UB(0.5, 0.1, 10000, 0.05) {
		t.Error("UB should shrink with more samples")
	}
	if UB(0.5, 0.1, 100, 0.01) <= UB(0.5, 0.1, 100, 0.1) {
		t.Error("UB should grow as delta shrinks")
	}
}

func TestUBLBDegenerate(t *testing.T) {
	if !math.IsInf(UB(0.5, 0.1, 0, 0.05), 1) {
		t.Error("zero samples should give +Inf UB")
	}
	if !math.IsInf(LB(0.5, 0.1, 100, 0), -1) {
		t.Error("delta=0 should give -Inf LB")
	}
	if UB(0.5, 0.1, 100, 1) != 0.5 {
		t.Error("delta=1 should give zero radius")
	}
	if UB(0.5, 0, 100, 0.05) != 0.5 {
		t.Error("zero variance should give zero radius")
	}
}

// Property: the one-sided normal bound has at least its nominal
// coverage on Bernoulli data (the paper's Lemma 1 usage).
func TestNormalBoundCoverage(t *testing.T) {
	r := randx.New(42)
	const (
		p      = 0.3
		n      = 400
		delta  = 0.1
		trials = 2000
	)
	misses := 0
	for trial := 0; trial < trials; trial++ {
		rt := r.Stream(uint64(trial))
		var m Moments
		for i := 0; i < n; i++ {
			if rt.Bernoulli(p) {
				m.Add(1)
			} else {
				m.Add(0)
			}
		}
		// One-sided: the true mean should be below the UB of the
		// sample mean with probability >= 1-delta.
		if UB(m.Mean(), m.StdDev(), n, delta) < p {
			misses++
		}
	}
	rate := float64(misses) / float64(trials)
	if rate > delta+0.03 {
		t.Fatalf("UB coverage miss rate %v exceeds delta %v", rate, delta)
	}
}

func TestHoeffdingWiderThanNormalOnBinary(t *testing.T) {
	// With low variance, the variance-aware normal bound is tighter.
	mu, sigma := 0.02, 0.14 // Bernoulli(0.02)
	n := 1000
	delta := 0.05
	hoef := HoeffdingUB(mu, 1, n, delta)
	norm := UB(mu, sigma, n, delta)
	if hoef <= norm {
		t.Errorf("expected Hoeffding (%v) to be looser than normal (%v) for rare events", hoef, norm)
	}
}

func TestHoeffdingCoverage(t *testing.T) {
	r := randx.New(7)
	const (
		p      = 0.5
		n      = 200
		delta  = 0.1
		trials = 1000
	)
	misses := 0
	for trial := 0; trial < trials; trial++ {
		rt := r.Stream(uint64(trial))
		hits := 0
		for i := 0; i < n; i++ {
			if rt.Bernoulli(p) {
				hits++
			}
		}
		mu := float64(hits) / float64(n)
		if HoeffdingUB(mu, 1, n, delta) < p {
			misses++
		}
	}
	rate := float64(misses) / float64(trials)
	if rate > delta {
		t.Fatalf("Hoeffding miss rate %v exceeds delta %v (it should be conservative)", rate, delta)
	}
}

func TestHoeffdingDegenerate(t *testing.T) {
	if !math.IsInf(HoeffdingUB(0.5, 1, 0, 0.05), 1) {
		t.Error("zero samples should give +Inf")
	}
	if !math.IsInf(HoeffdingLB(0.5, 1, 100, 0), -1) {
		t.Error("delta=0 should give -Inf")
	}
}

func TestClopperPearsonKnownValues(t *testing.T) {
	// Reference values from the standard beta characterization
	// (two-sided 95% interval at k=5, n=20 is [0.0866, 0.4910]).
	lo := ClopperPearsonLB(5, 20, 0.025)
	hi := ClopperPearsonUB(5, 20, 0.025)
	if !almostEqual(lo, 0.0866, 5e-4) {
		t.Errorf("CP lower %v, want ~0.0866", lo)
	}
	if !almostEqual(hi, 0.4910, 5e-4) {
		t.Errorf("CP upper %v, want ~0.4910", hi)
	}
}

func TestClopperPearsonEdges(t *testing.T) {
	if ClopperPearsonLB(0, 50, 0.05) != 0 {
		t.Error("k=0 lower bound should be 0")
	}
	if ClopperPearsonUB(50, 50, 0.05) != 1 {
		t.Error("k=n upper bound should be 1")
	}
	// k=n lower bound: delta^(1/n).
	want := math.Pow(0.05, 1.0/20)
	if got := ClopperPearsonLB(20, 20, 0.05); !almostEqual(got, want, 1e-9) {
		t.Errorf("CP lower at k=n: %v, want %v", got, want)
	}
	// k=0 upper bound: 1 - delta^(1/n).
	wantU := 1 - math.Pow(0.05, 1.0/20)
	if got := ClopperPearsonUB(0, 20, 0.05); !almostEqual(got, wantU, 1e-9) {
		t.Errorf("CP upper at k=0: %v, want %v", got, wantU)
	}
}

func TestClopperPearsonCoverageProperty(t *testing.T) {
	r := randx.New(9)
	const (
		p      = 0.15
		n      = 60
		delta  = 0.1
		trials = 1500
	)
	misses := 0
	for trial := 0; trial < trials; trial++ {
		rt := r.Stream(uint64(trial))
		k := 0
		for i := 0; i < n; i++ {
			if rt.Bernoulli(p) {
				k++
			}
		}
		if ClopperPearsonLB(k, n, delta) > p {
			misses++
		}
	}
	rate := float64(misses) / float64(trials)
	if rate > delta {
		t.Fatalf("Clopper-Pearson miss rate %v exceeds delta %v (exact interval must be conservative)", rate, delta)
	}
}

func TestBootstrapBoundsOrder(t *testing.T) {
	r := randx.New(11)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Float64()
	}
	lb := BootstrapLB(r, xs, 0.05)
	ub := BootstrapUB(r, xs, 0.05)
	mean := Mean(xs)
	if !(lb <= mean && mean <= ub) {
		t.Errorf("bootstrap bounds [%v, %v] should bracket mean %v", lb, ub, mean)
	}
	if ub-lb > 0.1 {
		t.Errorf("bootstrap interval %v too wide for n=500 uniforms", ub-lb)
	}
}

func TestBootstrapEmpty(t *testing.T) {
	r := randx.New(1)
	if BootstrapLB(r, nil, 0.05) != 0 {
		t.Error("empty input should give 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestBoxStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	b := NewBoxStats(xs)
	if b.Min != 1 || b.Max != 9 || b.Median != 5 || b.N != 9 {
		t.Errorf("box stats wrong: %+v", b)
	}
	if b.Q1 != 3 || b.Q3 != 7 {
		t.Errorf("quartiles wrong: %+v", b)
	}
	if b.WhiskerLo > b.Q1 || b.WhiskerHi < b.Q3 {
		t.Errorf("whiskers inverted: %+v", b)
	}
}

func TestBoxStatsOutlier(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 100}
	b := NewBoxStats(xs)
	if b.WhiskerHi == 100 {
		t.Error("outlier 100 should be outside the upper whisker")
	}
	if b.Max != 100 {
		t.Error("max should still be 100")
	}
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{0.1, 0.5, 0.9, 0.9}
	if got := FractionBelow(xs, 0.9); got != 0.5 {
		t.Errorf("FractionBelow = %v, want 0.5 (strict)", got)
	}
	if FractionBelow(nil, 1) != 0 {
		t.Error("empty should be 0")
	}
}
