package stats

import (
	"math"
	"testing"
)

func TestBinomialCDFKnownValues(t *testing.T) {
	// Binomial(10, 0.5): P(X <= 5) = 0.623046875.
	if got := BinomialCDF(5, 10, 0.5); !almostEqual(got, 0.623046875, 1e-9) {
		t.Errorf("BinomialCDF(5,10,0.5) = %v", got)
	}
	// P(X <= 0) = 0.5^10.
	if got := BinomialCDF(0, 10, 0.5); !almostEqual(got, math.Pow(0.5, 10), 1e-12) {
		t.Errorf("BinomialCDF(0,10,0.5) = %v", got)
	}
	// Binomial(20, 0.1): P(X <= 2) = 0.676927...
	if got := BinomialCDF(2, 20, 0.1); !almostEqual(got, 0.6769268, 1e-6) {
		t.Errorf("BinomialCDF(2,20,0.1) = %v", got)
	}
}

func TestBinomialCDFEdges(t *testing.T) {
	if BinomialCDF(-1, 10, 0.5) != 0 {
		t.Error("k<0")
	}
	if BinomialCDF(10, 10, 0.5) != 1 {
		t.Error("k=n")
	}
	if BinomialCDF(3, 10, 0) != 1 {
		t.Error("p=0")
	}
	if BinomialCDF(3, 10, 1) != 0 {
		t.Error("p=1")
	}
}

func TestBinomialCDFMonotone(t *testing.T) {
	prev := 0.0
	for k := 0; k <= 30; k++ {
		cur := BinomialCDF(k, 30, 0.3)
		if cur < prev-1e-12 {
			t.Fatalf("CDF decreased at k=%d", k)
		}
		prev = cur
	}
}

func TestBinomialTailQuantile(t *testing.T) {
	// k=30 positives, p=0.1 (gamma=0.9), delta=0.05: the largest j with
	// P(Bin(30,0.1) <= j-1) <= 0.05. P(X=0)=0.9^30=0.0424 <= 0.05;
	// P(X<=1)=0.1837 > 0.05 -> j=1.
	if got := BinomialTailQuantile(30, 0.1, 0.05); got != 1 {
		t.Errorf("BinomialTailQuantile(30,0.1,0.05) = %d, want 1", got)
	}
	// Too few positives: P(X=0) = 0.9^10 = 0.349 > 0.05 -> j=0.
	if got := BinomialTailQuantile(10, 0.1, 0.05); got != 0 {
		t.Errorf("BinomialTailQuantile(10,0.1,0.05) = %d, want 0", got)
	}
	// Plenty of positives: j grows.
	big := BinomialTailQuantile(1000, 0.1, 0.05)
	if big < 70 || big > 100 {
		t.Errorf("BinomialTailQuantile(1000,0.1,0.05) = %d, want ~85", big)
	}
	// Verify the defining property exactly.
	if BinomialCDF(big-1, 1000, 0.1) > 0.05 {
		t.Error("returned j violates the tail constraint")
	}
	if big < 1000 && BinomialCDF(big, 1000, 0.1) <= 0.05 {
		t.Error("returned j is not maximal")
	}
}
