package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"supg/internal/oracle"
	"supg/internal/randx"
)

// JointSpec specifies an appendix JT query: simultaneous recall and
// precision targets with no oracle budget (Figure 14). StageBudget is
// the optimistic budget allocated to the stage-2 recall subroutine.
type JointSpec struct {
	GammaRecall    float64
	GammaPrecision float64
	Delta          float64
	StageBudget    int
}

// Validate reports whether the joint spec is well-formed.
func (s JointSpec) Validate() error {
	if s.GammaRecall <= 0 || s.GammaRecall > 1 {
		return fmt.Errorf("core: recall target %g outside (0, 1]", s.GammaRecall)
	}
	if s.GammaPrecision <= 0 || s.GammaPrecision > 1 {
		return fmt.Errorf("core: precision target %g outside (0, 1]", s.GammaPrecision)
	}
	if s.Delta <= 0 || s.Delta >= 1 {
		return fmt.Errorf("core: failure probability %g outside (0, 1)", s.Delta)
	}
	if s.StageBudget < 2 {
		return fmt.Errorf("core: stage budget %d too small", s.StageBudget)
	}
	return nil
}

// JointResult is the outcome of a JT query.
type JointResult struct {
	// Indices is the sorted final result set (all oracle-verified
	// positives, so its precision is 1).
	Indices []int
	// OracleCalls is the total number of oracle invocations across all
	// three stages — the Figure 15 cost metric.
	OracleCalls int
	// CachedLabels is the number of labels served from the cross-query
	// label store instead of the inner oracle (0 without a store).
	CachedLabels int
	// Tau is the recall-stage threshold.
	Tau float64
	// CandidateSize is |R| before false-positive filtering.
	CandidateSize int
}

// SelectJointFromContextOptions runs the appendix three-stage JT
// algorithm over src:
//
//  1. allocate StageBudget optimistically,
//  2. run a recall-target subroutine (cfg selects U-CI or IS-CI) to
//     reach GammaRecall with failure probability Delta,
//  3. exhaustively filter false positives from the candidate set with
//     further oracle calls.
//
// The final set retains every verified positive, so the recall
// guarantee carries over from stage 2 and precision is 1 (>= any
// GammaPrecision). The oracle is unbudgeted by JT semantics.
//
// Cancellation and the label-store tier work as in
// SelectFromContextOptions. The stage-3 exhaustive filter — by far the
// most oracle-hungry phase of a JT query — labels the whole candidate
// set through one batch call, so a batch-capable oracle verifies
// candidates with bounded parallelism. The store attaches to the
// innermost (unlimited) budget wrapper, which every stage's labeling
// flows through, so in charged mode the reported OracleCalls stay
// byte-identical to a storeless run while the inner oracle's call
// count drops.
func SelectJointFromContextOptions(ctx context.Context, r *randx.Rand, src ScoreSource, orc oracle.Oracle, spec JointSpec, cfg Config, sopts SelectOptions) (JointResult, error) {
	if err := spec.Validate(); err != nil {
		return JointResult{}, err
	}
	rtSpec := Spec{
		Kind:   RecallTarget,
		Gamma:  spec.GammaRecall,
		Delta:  spec.Delta,
		Budget: spec.StageBudget,
	}
	// The stage-3 exhaustive filter needs unrestricted oracle access;
	// wrap with an effectively unlimited budget so call accounting
	// still flows through the same path.
	budgeted := oracle.NewBudgeted(orc, math.MaxInt/2).WithContext(ctx).
		WithStore(sopts.Store, sopts.FreeReuse).WithChargeHook(sopts.OnCachedCharge)
	stageBudgeted := oracle.NewBudgeted(budgeted, spec.StageBudget).WithContext(ctx)

	candidate, err := SelectBudgeted(r, src, stageBudgeted, rtSpec, cfg)
	if err != nil {
		// Surface the labels-folded-so-far diagnostic on oracle
		// unavailability (see SelectFromContextOptions).
		oracle.NoteLabelsFolded(err, budgeted.Used())
		return JointResult{}, err
	}

	// Stage 3: verify every candidate record; keep true positives.
	cands := candidate.Answer().List(src)
	labs, err := budgeted.LabelAll(cands)
	if err != nil {
		err = fmt.Errorf("core: joint filter stage: %w", err)
		oracle.NoteLabelsFolded(err, budgeted.Used())
		return JointResult{}, err
	}
	var final []int
	for pos, i := range cands {
		if labs[pos] {
			final = append(final, i)
		}
	}
	sort.Ints(final)
	return JointResult{
		Indices:       final,
		OracleCalls:   budgeted.Used(),
		CachedLabels:  budgeted.StoreHits(),
		Tau:           candidate.Tau,
		CandidateSize: len(cands),
	}, nil
}
