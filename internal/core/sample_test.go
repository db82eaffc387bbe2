package core

import (
	"math"
	"testing"

	"supg/internal/oracle"
	"supg/internal/randx"
	"supg/internal/sampling"
)

// makeSample builds a labeledSample directly for unit-testing the curve
// primitives (bypassing the oracle plumbing).
func makeSample(scores []float64, labels []float64, m []float64) *labeledSample {
	if m == nil {
		m = make([]float64, len(scores))
		for i := range m {
			m[i] = 1
		}
	}
	s := &labeledSample{
		idx:   make([]int, len(scores)),
		score: append([]float64(nil), scores...),
		label: append([]float64(nil), labels...),
		m:     append([]float64(nil), m...),
	}
	// Callers must pass scores already ascending, matching the
	// invariant labelDraws establishes.
	for i := 1; i < len(scores); i++ {
		if scores[i] < scores[i-1] {
			panic("test sample must be sorted ascending")
		}
	}
	for _, v := range m {
		if v > s.maxM {
			s.maxM = v
		}
	}
	return s
}

func TestMaxTauWithRecallBasic(t *testing.T) {
	// Positives at scores 0.2, 0.6, 0.8, 0.9 (4 positives).
	s := makeSample(
		[]float64{0.1, 0.2, 0.3, 0.6, 0.8, 0.9},
		[]float64{0, 1, 0, 1, 1, 1},
		nil)
	// gamma=0.75: need 3 of 4 positives above tau -> tau = 0.6.
	tau, ok := s.maxTauWithRecall(0.75, nil)
	if !ok || tau != 0.6 {
		t.Fatalf("tau = %v, ok=%v; want 0.6", tau, ok)
	}
	// gamma=1.0: all positives -> tau = 0.2.
	tau, _ = s.maxTauWithRecall(1.0, nil)
	if tau != 0.2 {
		t.Fatalf("tau at gamma=1 is %v, want 0.2", tau)
	}
	// gamma=0.25: one positive suffices -> tau = 0.9.
	tau, _ = s.maxTauWithRecall(0.25, nil)
	if tau != 0.9 {
		t.Fatalf("tau at gamma=0.25 is %v, want 0.9", tau)
	}
}

func TestMaxTauWithRecallNoPositives(t *testing.T) {
	s := makeSample([]float64{0.1, 0.5}, []float64{0, 0}, nil)
	if _, ok := s.maxTauWithRecall(0.9, nil); ok {
		t.Fatal("no positives should report !ok")
	}
}

func TestMaxTauWithRecallTies(t *testing.T) {
	// Tied scores must be included together: positives at 0.5, 0.5, 0.9.
	s := makeSample(
		[]float64{0.5, 0.5, 0.9},
		[]float64{1, 1, 1},
		nil)
	// gamma = 2/3: tau=0.5 gives recall 1 (ties grouped); tau=0.9 gives 1/3.
	tau, _ := s.maxTauWithRecall(0.6667, nil)
	if tau != 0.5 {
		t.Fatalf("tau = %v, want 0.5 (tie group)", tau)
	}
}

func TestMaxTauWithRecallWeighted(t *testing.T) {
	// Two positives: low-score one carries 3x the weight, so dropping it
	// loses 75% of recall mass.
	s := makeSample(
		[]float64{0.2, 0.8},
		[]float64{1, 1},
		[]float64{3, 1})
	tau, _ := s.maxTauWithRecall(0.5, nil)
	// Keeping only 0.8 yields weighted recall 1/4 < 0.5: tau must be 0.2.
	if tau != 0.2 {
		t.Fatalf("weighted tau = %v, want 0.2", tau)
	}
	tau, _ = s.maxTauWithRecall(0.25, nil)
	if tau != 0.8 {
		t.Fatalf("weighted tau at gamma=0.25 = %v, want 0.8", tau)
	}
}

func TestMaxTauMonotoneInGamma(t *testing.T) {
	r := randx.New(3)
	scores := make([]float64, 300)
	labels := make([]float64, 300)
	for i := range scores {
		scores[i] = float64(i) / 300
		if r.Bernoulli(scores[i]) {
			labels[i] = 1
		}
	}
	s := makeSample(scores, labels, nil)
	prev := math.Inf(1)
	for _, g := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
		tau, ok := s.maxTauWithRecall(g, nil)
		if !ok {
			t.Skip("no positives in synthetic sample")
		}
		if tau > prev {
			t.Fatalf("tau should not increase with gamma: tau(%v)=%v > %v", g, tau, prev)
		}
		prev = tau
	}
}

func TestWeightedPositiveTotal(t *testing.T) {
	s := makeSample([]float64{0.1, 0.5, 0.9}, []float64{1, 0, 1}, []float64{2, 5, 0.5})
	if got := s.weightedPositiveTotal(); got != 2.5 {
		t.Fatalf("weightedPositiveTotal = %v, want 2.5", got)
	}
}

func TestSuffixPositive(t *testing.T) {
	s := makeSample([]float64{0.1, 0.5, 0.9}, []float64{1, 0, 1}, nil)
	suf := s.suffixPositive(nil)
	want := []float64{2, 1, 1, 0}
	for i := range want {
		if suf[i] != want[i] {
			t.Fatalf("suffix = %v, want %v", suf, want)
		}
	}
}

func TestGroupStarts(t *testing.T) {
	s := makeSample([]float64{0.1, 0.1, 0.5, 0.9, 0.9}, []float64{0, 0, 0, 0, 0}, nil)
	starts := s.groupStarts()
	want := []int{0, 2, 3}
	if len(starts) != len(want) {
		t.Fatalf("groupStarts = %v", starts)
	}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("groupStarts = %v, want %v", starts, want)
		}
	}
}

func TestDrawUniformSortedAndBudgeted(t *testing.T) {
	scores := []float64{0.9, 0.1, 0.5, 0.3, 0.7}
	labels := []bool{true, false, false, false, true}
	o := oracle.NewBudgeted(oracle.Func(func(i int) (bool, error) { return labels[i], nil }), 5)
	s, err := drawUniform(randx.New(1), scores, o, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.len() != 4 {
		t.Fatalf("sample size %d", s.len())
	}
	for i := 1; i < s.len(); i++ {
		if s.score[i] < s.score[i-1] {
			t.Fatal("sample not sorted ascending")
		}
	}
	for _, m := range s.m {
		if m != 1 {
			t.Fatal("uniform sample must have m == 1")
		}
	}
	if o.Used() != 4 {
		t.Fatalf("oracle used %d, want 4", o.Used())
	}
}

func TestDrawWeightedReweighting(t *testing.T) {
	scores := []float64{0.0, 0.5, 1.0}
	o := oracle.NewBudgeted(oracle.Func(func(i int) (bool, error) { return i == 2, nil }), 1000)
	weights := sampling.DefensiveWeights(scores, 0.5, 0.1, 1)
	s, err := drawWeightedAlias(randx.New(2), scores, weights, sampling.NewAlias(weights), o, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	// m(x) = (1/n)/w(x): records with higher weight get smaller m.
	u := 1.0 / 3
	for i := 0; i < s.len(); i++ {
		j := s.idx[i]
		want := u / weights[j]
		if math.Abs(s.m[i]-want) > 1e-12 {
			t.Fatalf("m mismatch for record %d: %v vs %v", j, s.m[i], want)
		}
	}
	// Importance-weighted positive-rate estimate should be unbiased:
	// true rate is 1/3 (only record 2 positive).
	est := 0.0
	for i := 0; i < s.len(); i++ {
		est += s.label[i] * s.m[i]
	}
	est /= float64(s.len())
	if math.Abs(est-1.0/3) > 0.08 {
		t.Fatalf("IS estimate %v far from 1/3", est)
	}
}

func TestDrawRestricted(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.9, 0.95}
	o := oracle.NewBudgeted(oracle.Func(func(i int) (bool, error) { return scores[i] > 0.5, nil }), 1000)
	weights := sampling.DefensiveWeights(scores, 0.5, 0.1, 1)
	tab := sampling.Restrict(weights, []int{2, 3})
	s, err := drawRestricted(randx.New(3), scores, tab, o, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range s.idx {
		if j != 2 && j != 3 {
			t.Fatalf("draw %d outside subset", j)
		}
	}
	// Within the subset all labels are positive; the reweighted mean
	// over the subset domain must be ~1.
	est := 0.0
	for i := 0; i < s.len(); i++ {
		est += s.label[i] * s.m[i]
	}
	est /= float64(s.len())
	if math.Abs(est-1) > 0.05 {
		t.Fatalf("subset IS estimate %v, want ~1", est)
	}
}

func TestDrawUniformBudgetExceeded(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.3}
	o := oracle.NewBudgeted(oracle.Func(func(i int) (bool, error) { return false, nil }), 2)
	if _, err := drawUniform(randx.New(4), scores, o, 3, nil); err == nil {
		t.Fatal("expected budget exhaustion error")
	}
}
