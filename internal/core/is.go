package core

import (
	"fmt"
	"maps"
	"math"
	"sort"

	"supg/internal/oracle"
	"supg/internal/randx"
	"supg/internal/sampling"
)

// This file implements the SUPG importance-sampling estimators:
// Algorithm 4 (IS-CI-R) and Algorithm 5 (IS-CI-P, two-stage) plus the
// one-stage precision variant evaluated in Figure 7. Sampling weights
// are proxy scores raised to cfg.WeightExponent (paper optimum: 0.5,
// Theorem 1) defensively mixed with the uniform distribution; the
// weights and their alias table come from the ScoreSource, which caches
// them per (exponent, mix) on the indexed hot path.

// mixtureOf returns src's defensive mixture for cfg. A source beyond
// sampling.MaxAliasLen records is refused with an error: its alias
// table's 32-bit entries could not address every record.
func mixtureOf(src ScoreSource, cfg Config) ([]float64, *sampling.Alias, error) {
	if n := src.Len(); n > sampling.MaxAliasLen {
		return nil, nil, fmt.Errorf("core: importance sampling over %d records exceeds the %d-record limit", n, sampling.MaxAliasLen)
	}
	weights, alias := src.Mixture(cfg.WeightExponent, cfg.Mix)
	return weights, alias, nil
}

// estimateISRecall implements Algorithm 4. It reuses the Algorithm 2
// body on an importance-weighted sample: the reweighted indicators
// O(x)·m(x) make the UB/LB machinery estimate dataset-level recall.
func estimateISRecall(r *randx.Rand, src ScoreSource, o *oracle.Budgeted, spec Spec, cfg Config, ar *arena) (TauResult, error) {
	weights, alias, err := mixtureOf(src, cfg)
	if err != nil {
		return TauResult{}, err
	}
	s, err := drawWeightedAlias(r, src.Scores(), weights, alias, o, spec.Budget, ar)
	if err != nil {
		return TauResult{}, err
	}
	b := newBounder(cfg, r.Stream(0xc0))
	tau, err := recallThresholdWithCI(s, spec, b, ar)
	if err != nil {
		return TauResult{Tau: selectAllTau, Labeled: s.labels, OracleCalls: s.calls}, err
	}
	return TauResult{Tau: tau, Labeled: s.labels, OracleCalls: s.calls}, nil
}

// scoreIndex supports O(log n) exact |D(τ)| counts via a sorted copy of
// the proxy-score column. It backs rawSource for one-shot queries; the
// engine path uses the persistent index.ScoreIndex instead.
type scoreIndex struct {
	sorted []float64
}

func newScoreIndex(scores []float64) *scoreIndex {
	s := make([]float64, len(scores))
	copy(s, scores)
	sort.Float64s(s)
	return &scoreIndex{sorted: s}
}

// countAtLeast returns |{x : A(x) >= tau}| exactly.
func (ix *scoreIndex) countAtLeast(tau float64) int {
	return len(ix.sorted) - sort.SearchFloat64s(ix.sorted, tau)
}

// kthHighest returns the k-th highest score (k is 0-based); k beyond the
// data returns the minimum score.
func (ix *scoreIndex) kthHighest(k int) float64 {
	n := len(ix.sorted)
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return ix.sorted[n-1-k]
}

// estimateISPrecision implements Algorithm 5 (two-stage) or its
// one-stage variant, per cfg.TwoStage.
//
// Implementation note (documented in DESIGN.md): for candidate
// certification we lower-bound the positive count Σ_D 1[A>=τ]·O by
// importance sampling and divide by the exactly known |D(τ)|. This
// keeps the estimator unbiased under weighted sampling, whereas the
// plain subset-mean of Algorithm 3 is only unbiased for uniform draws.
func estimateISPrecision(r *randx.Rand, src ScoreSource, o *oracle.Budgeted, spec Spec, cfg Config, ar *arena) (TauResult, error) {
	if cfg.TwoStage {
		return estimateISPrecisionTwoStage(r, src, o, spec, cfg, ar)
	}
	return estimateISPrecisionOneStage(r, src, o, spec, cfg, ar)
}

func estimateISPrecisionOneStage(r *randx.Rand, src ScoreSource, o *oracle.Budgeted, spec Spec, cfg Config, ar *arena) (TauResult, error) {
	weights, alias, err := mixtureOf(src, cfg)
	if err != nil {
		return TauResult{}, err
	}
	s, err := drawWeightedAlias(r, src.Scores(), weights, alias, o, spec.Budget, ar)
	if err != nil {
		return TauResult{}, err
	}
	b := newBounder(cfg, r.Stream(0xc1))
	tau := certifyMinPrecisionTau(s, src, float64(src.Len()), spec, cfg, b, spec.Delta, ar)
	return TauResult{Tau: tau, Labeled: s.labels, OracleCalls: s.calls}, nil
}

func estimateISPrecisionTwoStage(r *randx.Rand, src ScoreSource, o *oracle.Budgeted, spec Spec, cfg Config, ar *arena) (TauResult, error) {
	weights, alias, err := mixtureOf(src, cfg)
	if err != nil {
		return TauResult{}, err
	}
	scores := src.Scores()
	n := len(scores)
	b := newBounder(cfg, r.Stream(0xc2))

	// Stage 1: estimate an upper bound on the number of matches with
	// half the budget, spending half the failure probability.
	half := spec.Budget / 2
	s0, err := drawWeightedAlias(r.Stream(1), scores, weights, alias, o, half, ar)
	if err != nil {
		return TauResult{}, err
	}
	z := ar.floats(s0.len())
	for i := range z {
		z[i] = s0.label[i] * s0.m[i]
	}
	nMatchUB := float64(n) * b.upper(z, spec.Delta/2, math.Max(s0.maxM, 1))
	if nMatchUB < 0 {
		nMatchUB = 0
	}

	// Restrict stage 2 to D' — the records whose score is at least the
	// (nMatch/γ)-th highest: no lower threshold can reach precision γ.
	cut := int(nMatchUB / spec.Gamma)
	aCut := src.KthHighest(cut)
	subset := src.AppendAtLeast(make([]int, 0, src.CountAtLeast(aCut)), aCut)
	if len(subset) == 0 {
		// Degenerate: no plausible matches anywhere.
		return TauResult{Tau: noSelectionTau(), Labeled: s0.labels, OracleCalls: s0.calls}, nil
	}

	// Stage 2: weighted sampling within D', candidate certification with
	// the remaining half of the budget and failure probability.
	s1, err := drawWeightedSubset(r.Stream(2), scores, subset, weights, o, spec.Budget-half, ar)
	if err != nil {
		return TauResult{}, err
	}
	tau := certifyMinPrecisionTau(s1, src, float64(len(subset)), spec, cfg, b, spec.Delta/2, ar)

	labels := ar.labelMap(len(s0.labels) + len(s1.labels))
	maps.Copy(labels, s0.labels)
	maps.Copy(labels, s1.labels)
	return TauResult{Tau: tau, Labeled: labels, OracleCalls: s0.calls + s1.calls}, nil
}

// certifyMinPrecisionTau scans every MinStep-th sampled score ascending
// and returns the smallest candidate whose dataset precision is
// certified above gamma with the given total failure probability split
// across candidates by union bound. domainSize is the number of records
// the sample's m(x) factors normalize over (|D| or |D'|).
func certifyMinPrecisionTau(s *labeledSample, src ScoreSource, domainSize float64, spec Spec, cfg Config, b bounder, delta float64, ar *arena) float64 {
	n := s.len()
	// Clamp the stride to the sample size so a budget below MinStep
	// still yields one candidate (the full sample) instead of none —
	// the uniform variant in uci.go applies the same clamp.
	step := cfg.MinStep
	if step > n {
		step = n
	}
	numCandidates := n / step
	deltaEach := delta / float64(numCandidates)
	rangeHint := math.Max(s.maxM, 1)

	y := ar.floats(n)
	prev := math.Inf(-1)
	for i := step; i <= n; i += step {
		cand := s.score[i-1]
		if cand == prev {
			continue
		}
		prev = cand
		for j := 0; j < n; j++ {
			if s.score[j] >= cand {
				y[j] = s.label[j] * s.m[j]
			} else {
				y[j] = 0
			}
		}
		posLB := domainSize * b.lower(y, deltaEach, rangeHint)
		sel := src.CountAtLeast(cand)
		if sel == 0 {
			continue
		}
		if posLB/float64(sel) > spec.Gamma {
			return cand
		}
	}
	return noSelectionTau()
}
