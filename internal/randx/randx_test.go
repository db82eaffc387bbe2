package randx

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestStreamIndependentOfConsumption(t *testing.T) {
	a := New(7)
	want := a.Stream(3).Float64()
	b := New(7)
	for i := 0; i < 50; i++ {
		b.Float64() // consume parent randomness
	}
	if got := b.Stream(3).Float64(); got != want {
		t.Fatalf("Stream(3) depends on parent consumption: %v vs %v", got, want)
	}
}

func TestStreamsDiffer(t *testing.T) {
	r := New(7)
	if r.Stream(0).Float64() == r.Stream(1).Float64() {
		t.Fatal("streams 0 and 1 produced identical first draws")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v far from 0.5", mean)
	}
}

func TestIntNRange(t *testing.T) {
	r := New(5)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := r.IntN(10)
		if v < 0 || v >= 10 {
			t.Fatalf("IntN(10) out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("IntN(10) bucket %d count %d far from 1000", i, c)
		}
	}
}

func TestBernoulli(t *testing.T) {
	r := New(6)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	hits := 0
	n := 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate %v", rate)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(10)
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestShuffle(t *testing.T) {
	r := New(11)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, 10)
	for _, v := range xs {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("shuffle lost element %d", i)
		}
	}
}
