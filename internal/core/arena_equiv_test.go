package core

import (
	"math"
	"testing"

	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/oracle"
	"supg/internal/randx"
)

// This file pins two execution details of the read path — the pooled
// scratch arena and intra-query parallelism — as invisible:
// byte-identical Results at every parallelism level, every
// segmentation, and between the arena'd Select path and the nil-arena
// estimator path.

// TestSelectParallelismByteIdentical is the acceptance sweep: Indices,
// Tau, and OracleCalls must be identical across index parallelism
// 1/2/8 at all four estimator configs and segment sizes 1/7/1024/n.
// n and the segment sizes are chosen so the parallel gather (>= 16Ki
// ids) fast path genuinely engages for the sub-monolithic layouts.
func TestSelectParallelismByteIdentical(t *testing.T) {
	const n, budget = 40000, 400
	d := dataset.Beta(randx.New(9090), n, 0.01, 2)
	configs := map[string]Config{
		"SUPG":   DefaultSUPG(),
		"UCI":    DefaultUCI(),
		"UNoCI":  DefaultUNoCI(),
		"Finite": DefaultFinite(),
	}
	for _, segSize := range segmentSizes(n) {
		mk := func(par int) *index.ScoreIndex {
			ix, err := index.NewWithOptions(d.Scores(), index.Options{
				SegmentSize: segSize,
				Parallelism: par,
			})
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}
		ref := mk(1)
		for name, cfg := range configs {
			for _, kind := range []TargetKind{RecallTarget, PrecisionTarget} {
				spec := Spec{Kind: kind, Gamma: 0.9, Delta: 0.05, Budget: budget}
				seed := uint64(segSize)*31 + 7
				want, err := SelectFrom(randx.New(seed), ref, oracle.NewSimulated(d), spec, cfg)
				if err != nil {
					t.Fatalf("segSize=%d %s/%v sequential: %v", segSize, name, kind, err)
				}
				for _, par := range []int{2, 8} {
					got, err := SelectFrom(randx.New(seed), mk(par), oracle.NewSimulated(d), spec, cfg)
					if err != nil {
						t.Fatalf("segSize=%d %s/%v par=%d: %v", segSize, name, kind, par, err)
					}
					assertResultsEqual(t, name, want, got)
				}
			}
		}
	}
}

// TestSelectArenaMatchesPublicPath pins that routing scratch through
// the pooled arena changes nothing observable: Select (arena'd) must
// equal estimateTau with a nil arena (caller-owned memory) + assemble,
// and repeated Selects — which reuse dirtied slabs and recycled label
// maps — must keep producing the identical Result.
func TestSelectArenaMatchesPublicPath(t *testing.T) {
	const n = 8000
	d := dataset.Beta(randx.New(5151), n, 0.01, 2)
	for name, cfg := range map[string]Config{"SUPG": DefaultSUPG(), "UCI": DefaultUCI()} {
		for _, kind := range []TargetKind{RecallTarget, PrecisionTarget} {
			spec := Spec{Kind: kind, Gamma: 0.9, Delta: 0.05, Budget: 250}

			tr, err := estimateTau(randx.New(77), newRawSource(d.Scores()),
				oracle.NewBudgeted(oracle.NewSimulated(d), spec.Budget), spec, cfg, nil)
			if err != nil && err != ErrNoPositives {
				t.Fatalf("%s/%v estimate: %v", name, kind, err)
			}
			if err == ErrNoPositives && kind == PrecisionTarget {
				tr.Tau = math.Inf(1)
			}
			want := assemble(d.Scores(), tr)

			for round := 0; round < 3; round++ {
				got, err := Select(randx.New(77), d.Scores(), oracle.NewSimulated(d), spec, cfg)
				if err != nil {
					t.Fatalf("%s/%v round %d: %v", name, kind, round, err)
				}
				assertResultsEqual(t, name, want, got)
			}
		}
	}
}
