package core

import (
	"context"

	"supg/internal/oracle"
	"supg/internal/randx"
)

// selectFrom runs a budgeted query over src with no cancellation and no
// label store.
func selectFrom(r *randx.Rand, src ScoreSource, orc oracle.Oracle, spec Spec, cfg Config) (Result, error) {
	return SelectFromContextOptions(context.Background(), r, src, orc, spec, cfg, SelectOptions{})
}

// selectJoint runs a JT query over src with no cancellation and no
// label store.
func selectJoint(r *randx.Rand, src ScoreSource, orc oracle.Oracle, spec JointSpec, cfg Config) (JointResult, error) {
	return SelectJointFromContextOptions(context.Background(), r, src, orc, spec, cfg, SelectOptions{})
}

// assemble constructs Algorithm 1's R1 ∪ R2 from a threshold estimate
// over a plain score slice.
func assemble(scores []float64, tr TauResult) Result {
	return assembleFrom(NewRawSource(scores), tr, nil)
}
