package core

import (
	"supg/internal/oracle"
	"supg/internal/randx"
)

// This file implements the U-NoCI baselines (Section 5.1): uniform
// sampling with the empirical cutoff and no confidence correction. This
// is the strategy of NoScope and probabilistic predicates; it provides
// no failure-probability guarantee and Figures 5/6 show it failing up
// to ~75% of the time.

// estimateUNoCIRecall implements Eq. 6: tau = max{τ : Recall_S(τ) >= γ}.
func estimateUNoCIRecall(r *randx.Rand, src ScoreSource, o *oracle.Budgeted, spec Spec, ar *arena) (float64, error) {
	s, err := drawUniform(r, src.Scores(), o, spec.Budget, ar)
	if err != nil {
		return 0, err
	}
	tau, ok := s.maxTauWithRecall(spec.Gamma, ar)
	if !ok {
		return selectAllTau, ErrNoPositives
	}
	return tau, nil
}

// estimateUNoCIPrecision implements Eq. 5: tau = min{τ : Precision_S(τ) >= γ},
// with Precision_S the empirical precision among sampled records at or
// above τ.
func estimateUNoCIPrecision(r *randx.Rand, src ScoreSource, o *oracle.Budgeted, spec Spec, ar *arena) (float64, error) {
	s, err := drawUniform(r, src.Scores(), o, spec.Budget, ar)
	if err != nil {
		return 0, err
	}
	return minTauWithEmpiricalPrecision(s, spec.Gamma, ar), nil
}

// minTauWithEmpiricalPrecision scans candidate thresholds (distinct
// sampled scores, ascending) and returns the smallest whose empirical
// sample precision meets gamma, or noSelectionTau when none does.
func minTauWithEmpiricalPrecision(s *labeledSample, gamma float64, ar *arena) float64 {
	n := s.len()
	// Suffix sums of positives for O(1) precision at each group start.
	sufPos := ar.floats(n + 1)
	for i := n - 1; i >= 0; i-- {
		sufPos[i] = sufPos[i+1] + s.label[i]
	}
	for _, g := range s.groupStarts() {
		above := float64(n - g)
		if above == 0 {
			continue
		}
		if sufPos[g]/above >= gamma {
			return s.score[g]
		}
	}
	return noSelectionTau()
}
