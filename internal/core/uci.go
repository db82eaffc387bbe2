package core

import (
	"math"

	"supg/internal/oracle"
	"supg/internal/randx"
)

// This file implements the uniform-sampling estimators with guarantees:
// Algorithm 2 (U-CI-R) and Algorithm 3 (U-CI-P).

// estimateUCIRecall implements Algorithm 2. It finds the empirical
// threshold for the requested recall, inflates the recall target to γ'
// to absorb sampling variation (via UB/LB on the above/below-threshold
// positive indicator means), and re-solves for the threshold at γ'.
func estimateUCIRecall(r *randx.Rand, src ScoreSource, o *oracle.Budgeted, spec Spec, cfg Config, ar *arena) (float64, error) {
	s, err := drawUniform(r, src.Scores(), o, spec.Budget, ar)
	if err != nil {
		return 0, err
	}
	return recallThresholdWithCI(s, spec, newBounder(cfg, r.Stream(0xb0)), ar)
}

// minPositiveDraws returns the smallest number k of sampled positives
// for which even the most conservative in-sample threshold (the lowest
// sampled positive score) certifies the recall target: under uniform
// sampling the failure probability of that threshold is exactly
// gamma^k (all k positives landing above the 1-gamma quantile), so we
// require gamma^k <= delta. Below this count no in-sample threshold is
// certifiable and the caller must fall back to selecting everything.
// This finite-sample guard closes the gap the paper leaves to its
// asymptotic analysis (Section 8 lists finite-sample bounds as future
// work).
func minPositiveDraws(gamma, delta float64) int {
	if gamma >= 1 {
		return math.MaxInt32 // recall 1 can never be certified from a sample
	}
	return int(math.Ceil(math.Log(delta) / math.Log(gamma)))
}

// recallThresholdWithCI is the shared Algorithm 2/4 body: both the
// uniform and importance-weighted variants inflate gamma to gamma' using
// confidence bounds on Z1 (positives above the empirical threshold) and
// Z2 (positives below), then re-solve. For uniform samples all m(x)==1
// and this reduces exactly to Algorithm 2.
func recallThresholdWithCI(s *labeledSample, spec Spec, b bounder, ar *arena) (float64, error) {
	tauHat, ok := s.maxTauWithRecall(spec.Gamma, ar)
	if !ok {
		return selectAllTau, ErrNoPositives
	}

	// Finite-sample guard: with too few positive draws the asymptotic
	// machinery below is meaningless and the only safe answer is the
	// whole dataset.
	positives := 0
	for _, l := range s.label {
		if l > 0 {
			positives++
		}
	}
	if positives < minPositiveDraws(spec.Gamma, spec.Delta) {
		return selectAllTau, nil
	}

	n := s.len()
	z1 := ar.floats(n)
	z2 := ar.floats(n)
	for i := 0; i < n; i++ {
		v := s.label[i] * s.m[i]
		if s.score[i] >= tauHat {
			z1[i] = v
		} else {
			z2[i] = v
		}
	}
	rangeHint := math.Max(s.maxM, 1)
	ub1 := b.upper(z1, spec.Delta/2, rangeHint)
	lb2 := b.lower(z2, spec.Delta/2, rangeHint)
	if lb2 < 0 {
		lb2 = 0
	}
	gammaPrime := 1.0
	if ub1+lb2 > 0 {
		gammaPrime = ub1 / (ub1 + lb2)
	}
	if gammaPrime > 1 {
		gammaPrime = 1
	}
	if gammaPrime < spec.Gamma {
		// The inflated target can only be more conservative.
		gammaPrime = spec.Gamma
	}
	tau, ok := s.maxTauWithRecall(gammaPrime, ar)
	if !ok {
		return selectAllTau, ErrNoPositives
	}
	return tau, nil
}

// estimateUCIPrecision implements Algorithm 3: lower-bound the precision
// of every m-th candidate threshold with a union-bound-corrected
// confidence level, and return the smallest certified candidate.
//
// Candidates are the m-th, 2m-th, ... highest sampled scores, so every
// candidate's above-threshold subset holds at least m labels. (Reading
// the sort in Algorithm 3 as ascending would leave the topmost
// candidates with subsets of one or two samples, whose plug-in variance
// of zero would vacuously "certify" any precision — the descending
// reading is the one consistent with the paper's minimum step size m
// and its observation that the normal approximation needs 100+
// samples.)
func estimateUCIPrecision(r *randx.Rand, src ScoreSource, o *oracle.Budgeted, spec Spec, cfg Config, ar *arena) (float64, error) {
	s, err := drawUniform(r, src.Scores(), o, spec.Budget, ar)
	if err != nil {
		return 0, err
	}
	b := newBounder(cfg, r.Stream(0xb1))

	n := s.len()
	// Clamp the stride to the sample size: a budget below MinStep
	// otherwise yields a phantom candidate past the sample's end
	// (historically an out-of-range panic). The single surviving
	// candidate is the full sample — the most conservative threshold.
	step := cfg.MinStep
	if step > n {
		step = n
	}
	numCandidates := n / step
	deltaEach := spec.Delta / float64(numCandidates)

	tau := noSelectionTau()
	// Scan candidates from the lowest threshold upward so the first
	// certified candidate is the minimal one.
	for i := numCandidates * step; i >= step; i -= step {
		cand := s.score[n-i] // i-th highest sampled score
		// Extend left over ties so Z is exactly {x in S : A(x) >= cand}.
		j := n - i
		for j > 0 && s.score[j-1] >= cand {
			j--
		}
		z := s.label[j:]
		pl := b.lower(z, deltaEach, 1)
		if pl > spec.Gamma {
			tau = cand
			break
		}
	}
	return tau, nil
}
