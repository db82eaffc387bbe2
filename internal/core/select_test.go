package core

import (
	"context"
	"testing"

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

// labeledBudget returns a budget wrapper whose memo holds exactly
// labels, as if a sample had drawn those records.
func labeledBudget(t *testing.T, labels map[int]bool) *oracle.Budgeted {
	t.Helper()
	b := oracle.NewBudgeted(oracle.Func(func(i int) (bool, error) { return labels[i], nil }), len(labels))
	ids := make([]int, 0, len(labels))
	for i := range labels {
		ids = append(ids, i)
	}
	if _, err := b.LabelAll(ids); err != nil {
		t.Fatal(err)
	}
	return b
}

// assemble constructs Algorithm 1's R1 ∪ R2 from a threshold and the
// labels b holds, over a plain score slice.
func assemble(scores []float64, tau float64, b *oracle.Budgeted) Result {
	return assembleListed(NewRawSource(scores), tau, b)
}

// assembleListed is assembleFrom over src with Indices listed, as the
// materializing entry points list them.
func assembleListed(src ScoreSource, tau float64, b *oracle.Budgeted) Result {
	res := assembleFrom(src, tau, b, nil)
	res.Indices = res.Answer().List(src)
	return res
}
