package core

import (
	"supg/internal/oracle"
	"supg/internal/randx"
	"supg/internal/stats"
)

// Finite-sample recall-target estimation — an extension beyond the
// paper, whose guarantees are asymptotic (Section 8 calls out
// finite-sample analysis as future work).
//
// The construction uses an exact order-statistics argument. Sample
// records uniformly and keep the k positives. Each sampled positive
// lands below the (1-gamma) quantile of the positive-score
// distribution independently with probability exactly 1-gamma, so the
// number of sampled positives below that quantile is
// X ~ Binomial(k, 1-gamma). Setting tau to the j-th smallest sampled
// positive score fails (RecallD(tau) < gamma) exactly when X <= j-1.
// Choosing the largest j with P(X <= j-1) <= delta therefore yields a
// non-asymptotic guarantee:
//
//	Pr[RecallD(tau_j) >= gamma] >= 1 - delta
//
// at every sample size, with no normal approximation and no plug-in
// variance. When even j=1 is too risky (k too small), the estimator
// falls back to selecting the entire dataset, which is always valid.
//
// The price of exactness is conservatism: tau_j sits below the
// threshold the CLT-based Algorithm 2 picks, so precision (result
// quality) is lower. The ablation-finite experiment quantifies the
// trade.

// estimateFiniteRecall implements the exact finite-sample RT estimator
// over a uniform sample.
func estimateFiniteRecall(r *randx.Rand, src ScoreSource, o *oracle.Budgeted, spec Spec, ar *arena) (float64, error) {
	s, err := drawUniform(r, src.Scores(), o, spec.Budget, ar)
	if err != nil {
		return 0, err
	}

	// Collect the sampled positive scores in ascending order (the
	// sample is already score-sorted).
	var posScores []float64
	for i := 0; i < s.len(); i++ {
		if s.label[i] > 0 {
			posScores = append(posScores, s.score[i])
		}
	}
	if len(posScores) == 0 {
		return selectAllTau, ErrNoPositives
	}

	j := stats.BinomialTailQuantile(len(posScores), 1-spec.Gamma, spec.Delta)
	if j == 0 {
		// Even the lowest sampled positive is not a safe threshold.
		return selectAllTau, nil
	}
	return posScores[j-1], nil
}
