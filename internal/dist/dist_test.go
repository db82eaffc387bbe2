package dist

import (
	"math"
	"testing"

	"supg/internal/randx"
)

// closeTo fails the test when |got-want| > tol.
func closeTo(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1, 1) = x.
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		closeTo(t, "I_x(1,1)", RegIncBeta(x, 1, 1), x, 1e-12)
	}
	// I_x(1, n) = 1 - (1-x)^n.
	closeTo(t, "I_0.3(1,5)", RegIncBeta(0.3, 1, 5), 1-math.Pow(0.7, 5), 1e-12)
	// I_x(2, 2) = 3x^2 - 2x^3.
	closeTo(t, "I_0.3(2,2)", RegIncBeta(0.3, 2, 2), 3*0.09-2*0.027, 1e-12)
	// I_0.4(2, 3) = 0.5248 (binomial identity, n=4, j>=2 at p=0.4).
	closeTo(t, "I_0.4(2,3)", RegIncBeta(0.4, 2, 3), 0.5248, 1e-12)
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	closeTo(t, "symmetry", RegIncBeta(0.37, 2.5, 4.2), 1-RegIncBeta(0.63, 4.2, 2.5), 1e-12)
	// Median of a symmetric Beta is exactly 1/2.
	closeTo(t, "I_0.5(3,3)", RegIncBeta(0.5, 3, 3), 0.5, 1e-12)
}

func TestRegIncBetaEdges(t *testing.T) {
	if RegIncBeta(0, 2, 3) != 0 || RegIncBeta(-1, 2, 3) != 0 {
		t.Error("x <= 0 must give 0")
	}
	if RegIncBeta(1, 2, 3) != 1 || RegIncBeta(2, 2, 3) != 1 {
		t.Error("x >= 1 must give 1")
	}
	if !math.IsNaN(RegIncBeta(math.NaN(), 2, 3)) {
		t.Error("NaN x must propagate")
	}
	// Monotone in x.
	prev := -1.0
	for x := 0.0; x <= 1.0; x += 0.01 {
		v := RegIncBeta(x, 0.3, 7)
		if v < prev {
			t.Fatalf("I_x(0.3,7) not monotone at x=%v", x)
		}
		prev = v
	}
}

func TestBetaQuantileInvertsCDF(t *testing.T) {
	cases := []struct{ a, b float64 }{
		{1, 1}, {2, 2}, {0.5, 0.5}, {5, 1}, {1, 5}, {0.01, 2}, {30, 70},
	}
	for _, c := range cases {
		for _, p := range []float64{0.01, 0.05, 0.5, 0.95, 0.99} {
			x := BetaQuantile(p, c.a, c.b)
			closeTo(t, "roundtrip", RegIncBeta(x, c.a, c.b), p, 1e-9)
		}
	}
}

func TestBetaQuantileKnownValues(t *testing.T) {
	// Beta(1, n): quantile p = 1 - (1-p)^(1/n).
	closeTo(t, "q(0.95;1,10)", BetaQuantile(0.95, 1, 10), 1-math.Pow(0.05, 0.1), 1e-10)
	// Beta(n, 1): quantile p = p^(1/n).
	closeTo(t, "q(0.05;20,1)", BetaQuantile(0.05, 20, 1), math.Pow(0.05, 1.0/20), 1e-10)
	// Symmetric median.
	closeTo(t, "q(0.5;4,4)", BetaQuantile(0.5, 4, 4), 0.5, 1e-10)
	if BetaQuantile(0, 2, 3) != 0 || BetaQuantile(1, 2, 3) != 1 {
		t.Error("p edge cases must clamp to {0, 1}")
	}
}

// TestClopperPearsonEndpoints checks the quantile against the closed
// forms of the exact binomial interval endpoints: with 0 of n successes
// the upper 1-delta bound is 1 - delta^(1/n), and with n of n successes
// the lower bound is delta^(1/n).
func TestClopperPearsonEndpoints(t *testing.T) {
	n := 50.0
	delta := 0.05
	upper := BetaQuantile(1-delta, 1, n) // k=0 upper bound: Beta(1, n)
	closeTo(t, "CP upper k=0", upper, 1-math.Pow(delta, 1/n), 1e-10)
	lower := BetaQuantile(delta, n, 1) // k=n lower bound: Beta(n, 1)
	closeTo(t, "CP lower k=n", lower, math.Pow(delta, 1/n), 1e-10)
}

func TestSampleBetaMoments(t *testing.T) {
	r := randx.New(7)
	cases := []struct{ a, b float64 }{
		{2, 2}, {0.5, 0.5}, {5, 1}, {0.01, 2}, {1, 1},
	}
	const trials = 60000
	for _, c := range cases {
		sum, sumSq := 0.0, 0.0
		for i := 0; i < trials; i++ {
			v := SampleBeta(r, c.a, c.b)
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("Beta(%g,%g) sample %v outside [0,1]", c.a, c.b, v)
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / trials
		wantMean := c.a / (c.a + c.b)
		variance := sumSq/trials - mean*mean
		wantVar := c.a * c.b / ((c.a + c.b) * (c.a + c.b) * (c.a + c.b + 1))
		// 5-sigma-ish tolerance on the sample mean.
		tol := 5*math.Sqrt(wantVar/trials) + 1e-4
		closeTo(t, "mean", mean, wantMean, tol)
		if math.Abs(variance-wantVar) > 0.15*wantVar+1e-4 {
			t.Fatalf("Beta(%g,%g) variance %v, want ~%v", c.a, c.b, variance, wantVar)
		}
	}
}

func TestSampleBetaDeterministic(t *testing.T) {
	a := SampleBeta(randx.New(99), 0.01, 2)
	b := SampleBeta(randx.New(99), 0.01, 2)
	if a != b {
		t.Fatalf("same seed must reproduce: %v vs %v", a, b)
	}
}

func TestSampleGammaMoments(t *testing.T) {
	r := randx.New(8)
	for _, shape := range []float64{0.3, 1, 2.5, 9} {
		const trials = 60000
		sum := 0.0
		for i := 0; i < trials; i++ {
			v := math.Exp(sampleLogGamma(r, shape))
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("Gamma(%g) sample %v negative", shape, v)
			}
			sum += v
		}
		mean := sum / trials
		// Var(Gamma(k,1)) = k, so 5 sigma on the mean:
		tol := 5 * math.Sqrt(shape/trials)
		closeTo(t, "gamma mean", mean, shape, tol)
	}
}

func TestSampleBetaPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-positive shape")
		}
	}()
	SampleBeta(randx.New(1), 0, 1)
}
