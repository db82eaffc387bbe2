package experiments

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"supg/internal/core"
	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/metrics"
	"supg/internal/oracle"
	"supg/internal/randx"
)

// TestSegmentedGuaranteeFailureRate is the statistical-guarantee
// regression test for the segmented index: a deterministic-seed
// Monte-Carlo harness (the Figure 5/6 failure-rate machinery at
// reduced scale) over the segmented hot path, asserting the empirical
// failure rate stays within delta plus a slack term.
//
// Every quantity here is a deterministic function of the seeds, so the
// assertion cannot flake: if it ever fails, either the sampling
// distribution drifted (a real guarantee regression) or the seeds
// changed. The slack absorbs Monte-Carlo noise at the reduced trial
// count: with trials=60 and a true failure probability of at most
// delta=0.05, the empirical rate exceeding 0.15 has probability below
// 1e-3 even at the guarantee boundary — and the observed rates sit
// well under delta because the paper's bounds are conservative.
//
// The Beta(0.01, 2) precision cell certifies no threshold: every answer
// there is the labeled positives alone, whose precision is 1 by
// construction. Two Beta(1, 1) cells certify one in most trials, and
// must in at least half. At γ=0.6 and budget 500, stage 2 draws 250
// records, so MinStep 100 leaves it two candidates, and a certificate
// loosened to accept bounds down to γ-0.3 still fails no trial. At
// γ=0.7 and budget 2000 it fails nearly every trial.
func TestSegmentedGuaranteeFailureRate(t *testing.T) {
	const (
		trials    = 60
		gamma     = 0.9
		delta     = 0.05
		tolerance = 0.10
		budget    = 500
	)
	start := time.Now()
	d := dataset.Beta(randx.New(0xFA11), 20000, 0.01, 2)
	seg, err := index.NewWithOptions(d.Scores(), index.Options{SegmentSize: 1024, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind   core.TargetKind
		metric metrics.TargetMetric
	}{
		{core.RecallTarget, metrics.MetricRecall},
		{core.PrecisionTarget, metrics.MetricPrecision},
	} {
		spec := core.Spec{Kind: tc.kind, Gamma: gamma, Delta: delta, Budget: budget}
		ts, err := runTrialsFrom(randx.New(0x5E6), d, seg, spec, core.DefaultSUPG(), trials, 4)
		if err != nil {
			t.Fatalf("%v trials: %v", tc.kind, err)
		}
		if ts.N() != trials {
			t.Fatalf("%v: ran %d trials, want %d", tc.kind, ts.N(), trials)
		}
		fail := ts.FailureRate(tc.metric, gamma)
		t.Logf("%v-target: empirical failure rate %.3f (delta %.2f + tolerance %.2f)", tc.kind, fail, delta, tolerance)
		if fail > delta+tolerance {
			t.Errorf("%v-target: empirical failure rate %.3f exceeds delta %.2f + tolerance %.2f",
				tc.kind, fail, delta, tolerance)
		}
	}
	uniform := dataset.Beta(randx.New(0xFA11), 20000, 1, 1)
	seg, err = index.NewWithOptions(uniform.Scores(), index.Options{SegmentSize: 1024, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []struct {
		gamma  float64
		budget int
	}{{0.6, budget}, {0.7, 2000}} {
		spec := core.Spec{Kind: core.PrecisionTarget, Gamma: cell.gamma, Delta: delta, Budget: cell.budget}
		var certified atomic.Int64
		ts, err := runTrialsVia(randx.New(0x5E6), uniform, trials, 4, func(rt *randx.Rand) (core.Result, error) {
			res, err := core.SelectFromContextOptions(context.Background(), rt, seg, oracle.NewSimulated(uniform), spec, core.DefaultSUPG(), core.SelectOptions{})
			if err == nil && !math.IsInf(res.Tau, 1) {
				certified.Add(1)
			}
			return res, err
		})
		if err != nil {
			t.Fatal(err)
		}
		fail := ts.FailureRate(metrics.MetricPrecision, spec.Gamma)
		t.Logf("certifiable precision cell γ=%.1f budget %d: %d/%d trials certified, failure rate %.3f",
			cell.gamma, cell.budget, certified.Load(), trials, fail)
		if fail > delta+tolerance || certified.Load() < trials/2 {
			t.Errorf("certifiable precision cell γ=%.1f budget %d: failure rate %.3f (bound %.2f), %d/%d certified (want at least %d)",
				cell.gamma, cell.budget, fail, delta+tolerance, certified.Load(), trials, trials/2)
		}
	}
	// The satellite contract pins this harness to a CI-friendly budget.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("guarantee harness took %v, want < 30s", elapsed)
	}
}

// TestSegmentedTrialsMatchRawTrials pins the Monte-Carlo harness
// itself: the segmented-path trial set must be draw-for-draw identical
// to the raw-path trial set for the same seeds, so the failure-rate
// regression above is measuring the exact distribution the paper's
// machinery measures.
func TestSegmentedTrialsMatchRawTrials(t *testing.T) {
	d := dataset.Beta(randx.New(0xFA12), 8000, 0.01, 2)
	seg, err := index.NewWithOptions(d.Scores(), index.Options{SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{Kind: core.RecallTarget, Gamma: 0.9, Delta: 0.05, Budget: 300}
	raw, err := runTrials(randx.New(3), d, spec, core.DefaultSUPG(), 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := runTrialsFrom(randx.New(3), d, seg, spec, core.DefaultSUPG(), 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Recalls) != len(idx.Recalls) {
		t.Fatalf("trial counts differ: %d vs %d", len(raw.Recalls), len(idx.Recalls))
	}
	for i := range raw.Recalls {
		if raw.Recalls[i] != idx.Recalls[i] || raw.Precisions[i] != idx.Precisions[i] || raw.Oracle[i] != idx.Oracle[i] {
			t.Fatalf("trial %d diverged: raw (r=%v p=%v o=%v) vs segmented (r=%v p=%v o=%v)",
				i, raw.Recalls[i], raw.Precisions[i], raw.Oracle[i],
				idx.Recalls[i], idx.Precisions[i], idx.Oracle[i])
		}
	}
}
