package core

import (
	"testing"

	"supg/internal/dataset"
	"supg/internal/metrics"
	"supg/internal/oracle"
	"supg/internal/randx"
)

func TestFiniteRecallValidityAtSmallSamples(t *testing.T) {
	// The regime where CLT-based estimators are shaky: a small budget
	// with a handful of positives. The exact construction must hold.
	d := dataset.Beta(randx.New(1), 40000, 0.05, 1) // ~4.7% positives
	spec := Spec{Kind: RecallTarget, Gamma: 0.8, Delta: 0.05, Budget: 400}
	fail := trialStats(t, d, spec, DefaultFinite(), 80, 50).failRate
	if fail > 0.1 {
		t.Fatalf("finite-sample RT failure rate %v exceeds delta 0.05", fail)
	}
}

func TestFinitePrecisionValidity(t *testing.T) {
	d := dataset.Beta(randx.New(2), 40000, 0.05, 1)
	spec := Spec{Kind: PrecisionTarget, Gamma: 0.8, Delta: 0.05, Budget: 1000}
	fail := trialStats(t, d, spec, DefaultFinite(), 60, 51).failRate
	if fail > 0.1 {
		t.Fatalf("finite-sample PT failure rate %v exceeds delta 0.05", fail)
	}
	// The cell above certifies no threshold (see checkCertifiedPrecision);
	// Beta(1, 1) scores at γ=0.75 do.
	d = dataset.Beta(randx.New(2), 40000, 1, 1)
	spec.Gamma = 0.75
	checkCertified(t, "finite-sample PT", d, spec, DefaultFinite(), 60, 51, 0.1)
}

func TestFiniteTauIsSampledPositiveScore(t *testing.T) {
	// The exact construction picks the j-th smallest sampled positive
	// score: the returned threshold must be the score of a record the
	// oracle labeled positive.
	d := dataset.Beta(randx.New(3), 60000, 0.05, 1)
	spec := Spec{Kind: RecallTarget, Gamma: 0.9, Delta: 0.05, Budget: 2000}
	budgeted := oracle.NewBudgeted(oracle.NewSimulated(d), spec.Budget)
	fin, err := SelectBudgeted(randx.New(99), NewRawSource(d.Scores()), budgeted, spec, DefaultFinite())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, idx := range budgeted.AppendLabeledPositives(nil) {
		if d.Score(idx) == fin.Tau {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("tau %v is not the score of any labeled positive", fin.Tau)
	}
	// Same seed reproduces.
	budgeted2 := oracle.NewBudgeted(oracle.NewSimulated(d), spec.Budget)
	fin2, err := SelectBudgeted(randx.New(99), NewRawSource(d.Scores()), budgeted2, spec, DefaultFinite())
	if err != nil {
		t.Fatal(err)
	}
	if fin2.Tau != fin.Tau {
		t.Fatal("finite estimator not deterministic under a fixed seed")
	}
}

func TestFiniteFallsBackToSelectAll(t *testing.T) {
	// With almost no positives the exact construction cannot certify
	// any in-sample threshold and must select everything.
	n := 20000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = float64(i) / float64(n)
	}
	// 10 positives at arbitrary scores.
	for i := 0; i < 10; i++ {
		labels[i*1000] = true
	}
	d := dataset.MustNew("sparse", scores, labels)
	spec := Spec{Kind: RecallTarget, Gamma: 0.95, Delta: 0.05, Budget: 2000}
	res, err := selectFrom(randx.New(4), NewRawSource(d.Scores()), oracle.NewSimulated(d), spec, DefaultFinite())
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Evaluate(d, res.Indices).Recall < 0.95 {
		t.Fatal("fallback did not preserve the recall target")
	}
}

func TestFiniteNoPositives(t *testing.T) {
	n := 5000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = 0.5
	}
	labels[0] = true // unreachable by most samples
	d := dataset.MustNew("rare", scores, labels)
	spec := Spec{Kind: RecallTarget, Gamma: 0.9, Delta: 0.05, Budget: 50}
	res, err := selectFrom(randx.New(5), NewRawSource(d.Scores()), oracle.NewSimulated(d), spec, DefaultFinite())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indices) != n {
		t.Fatalf("no-positive fallback returned %d of %d records", len(res.Indices), n)
	}
}
