package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"supg/internal/dataset"
	"supg/internal/oracle"
	"supg/internal/randx"
)

// TestConcurrentDispatchDeterminism is the dispatcher determinism
// regression: labeling the sampled draws concurrently (through an
// oracle.Dispatcher at several widths) must return results identical to
// the sequential path for a fixed seed, across recall, precision, and
// joint queries.
func TestConcurrentDispatchDeterminism(t *testing.T) {
	d := dataset.Beta(randx.New(5), 20_000, 0.02, 2)

	cases := []struct {
		name string
		run  func(orc oracle.Oracle) ([]int, float64, int, error)
	}{
		{"recall/IS-CI", func(orc oracle.Oracle) ([]int, float64, int, error) {
			spec := Spec{Kind: RecallTarget, Gamma: 0.9, Delta: 0.05, Budget: 400}
			res, err := selectFrom(randx.New(42), NewRawSource(d.Scores()), orc, spec, DefaultSUPG())
			return res.Indices, res.Tau, res.OracleCalls, err
		}},
		{"recall/U-CI", func(orc oracle.Oracle) ([]int, float64, int, error) {
			spec := Spec{Kind: RecallTarget, Gamma: 0.9, Delta: 0.05, Budget: 400}
			res, err := selectFrom(randx.New(43), NewRawSource(d.Scores()), orc, spec, DefaultUCI())
			return res.Indices, res.Tau, res.OracleCalls, err
		}},
		{"precision/IS-CI two-stage", func(orc oracle.Oracle) ([]int, float64, int, error) {
			spec := Spec{Kind: PrecisionTarget, Gamma: 0.9, Delta: 0.05, Budget: 400}
			res, err := selectFrom(randx.New(44), NewRawSource(d.Scores()), orc, spec, DefaultSUPG())
			return res.Indices, res.Tau, res.OracleCalls, err
		}},
		{"precision/U-CI", func(orc oracle.Oracle) ([]int, float64, int, error) {
			spec := Spec{Kind: PrecisionTarget, Gamma: 0.9, Delta: 0.05, Budget: 400}
			res, err := selectFrom(randx.New(45), NewRawSource(d.Scores()), orc, spec, DefaultUCI())
			return res.Indices, res.Tau, res.OracleCalls, err
		}},
		{"joint", func(orc oracle.Oracle) ([]int, float64, int, error) {
			spec := JointSpec{GammaRecall: 0.9, GammaPrecision: 0.9, Delta: 0.05, StageBudget: 400}
			res, err := selectJoint(randx.New(46), NewRawSource(d.Scores()), orc, spec, DefaultSUPG())
			return res.Indices, res.Tau, res.OracleCalls, err
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantIdx, wantTau, wantCalls, err := tc.run(oracle.NewSimulated(d))
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			for _, p := range []int{2, 8} {
				gotIdx, gotTau, gotCalls, err := tc.run(oracle.NewDispatcher(oracle.NewSimulated(d), p))
				if err != nil {
					t.Fatalf("parallelism %d: %v", p, err)
				}
				if gotTau != wantTau {
					t.Errorf("parallelism %d: tau = %v, want %v", p, gotTau, wantTau)
				}
				if gotCalls != wantCalls {
					t.Errorf("parallelism %d: oracle calls = %d, want %d", p, gotCalls, wantCalls)
				}
				if len(gotIdx) != len(wantIdx) {
					t.Fatalf("parallelism %d: %d indices, want %d", p, len(gotIdx), len(wantIdx))
				}
				for i := range wantIdx {
					if gotIdx[i] != wantIdx[i] {
						t.Fatalf("parallelism %d: index[%d] = %d, want %d", p, i, gotIdx[i], wantIdx[i])
					}
				}
			}
		})
	}
}

// TestSelectFromContextCancellation verifies a cancelled context stops
// oracle consumption: the query fails with context.Canceled and the
// oracle is never invoked.
func TestSelectFromContextCancellation(t *testing.T) {
	d := dataset.Beta(randx.New(6), 5000, 0.05, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	var calls atomic.Int64
	orc := oracle.Func(func(i int) (bool, error) {
		calls.Add(1)
		return d.TrueLabel(i), nil
	})
	spec := Spec{Kind: RecallTarget, Gamma: 0.9, Delta: 0.05, Budget: 200}
	_, err := SelectFromContextOptions(ctx, randx.New(9), NewRawSource(d.Scores()), orc, spec, DefaultSUPG(), SelectOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Errorf("oracle called %d times after cancellation", calls.Load())
	}

	_, err = SelectJointFromContextOptions(ctx, randx.New(9), NewRawSource(d.Scores()), orc,
		JointSpec{GammaRecall: 0.9, GammaPrecision: 0.9, Delta: 0.05, StageBudget: 200}, DefaultSUPG(), SelectOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("joint err = %v, want context.Canceled", err)
	}
}
