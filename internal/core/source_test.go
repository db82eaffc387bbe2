package core

import (
	"context"
	"strconv"
	"testing"

	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/oracle"
	"supg/internal/randx"
	"supg/internal/sampling"
)

// TestSelectFromIndexMatchesRawPath is the load-bearing equivalence
// property of the ScoreIndex refactor: for a fixed random stream, the
// indexed hot path must return exactly the records the raw-slice path
// returns, for every estimator family.
func TestSelectFromIndexMatchesRawPath(t *testing.T) {
	d := dataset.Beta(randx.New(314), 30000, 0.01, 2)
	ix, err := index.New(d.Scores())
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]Config{
		"SUPG":   DefaultSUPG(),
		"UCI":    DefaultUCI(),
		"UNoCI":  DefaultUNoCI(),
		"Finite": DefaultFinite(),
	}
	for name, cfg := range configs {
		for _, kind := range []TargetKind{RecallTarget, PrecisionTarget} {
			spec := Spec{Kind: kind, Gamma: 0.9, Delta: 0.05, Budget: 800}
			raw, err := Select(randx.New(99), d.Scores(), oracle.NewSimulated(d), spec, cfg)
			if err != nil {
				t.Fatalf("%s/%v raw: %v", name, kind, err)
			}
			idxRes, err := SelectFrom(randx.New(99), ix, oracle.NewSimulated(d), spec, cfg)
			if err != nil {
				t.Fatalf("%s/%v indexed: %v", name, kind, err)
			}
			if raw.Tau != idxRes.Tau {
				t.Fatalf("%s/%v: tau %v (raw) vs %v (indexed)", name, kind, raw.Tau, idxRes.Tau)
			}
			if raw.OracleCalls != idxRes.OracleCalls {
				t.Fatalf("%s/%v: oracle calls %d vs %d", name, kind, raw.OracleCalls, idxRes.OracleCalls)
			}
			if raw.SampledPositives != idxRes.SampledPositives {
				t.Fatalf("%s/%v: sampled positives %d vs %d", name, kind, raw.SampledPositives, idxRes.SampledPositives)
			}
			if len(raw.Indices) != len(idxRes.Indices) {
				t.Fatalf("%s/%v: %d records (raw) vs %d (indexed)", name, kind, len(raw.Indices), len(idxRes.Indices))
			}
			for i := range raw.Indices {
				if raw.Indices[i] != idxRes.Indices[i] {
					t.Fatalf("%s/%v: record %d differs: %d vs %d", name, kind, i, raw.Indices[i], idxRes.Indices[i])
				}
			}
		}
	}
}

// TestSelectJointFromIndexMatchesRawPath is the same equivalence for
// the joint-target appendix algorithm.
func TestSelectJointFromIndexMatchesRawPath(t *testing.T) {
	d := dataset.Beta(randx.New(27), 20000, 0.01, 2)
	ix, err := index.New(d.Scores())
	if err != nil {
		t.Fatal(err)
	}
	spec := JointSpec{GammaRecall: 0.8, GammaPrecision: 0.9, Delta: 0.05, StageBudget: 500}
	raw, err := SelectJoint(randx.New(5), d.Scores(), oracle.NewSimulated(d), spec, DefaultSUPG())
	if err != nil {
		t.Fatal(err)
	}
	idxRes, err := SelectJointFromContextOptions(context.Background(), randx.New(5), ix, oracle.NewSimulated(d), spec, DefaultSUPG(), SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Tau != idxRes.Tau || raw.OracleCalls != idxRes.OracleCalls || raw.CandidateSize != idxRes.CandidateSize {
		t.Fatalf("joint stats differ: raw %+v vs indexed %+v", raw, idxRes)
	}
	if len(raw.Indices) != len(idxRes.Indices) {
		t.Fatalf("joint result sizes differ: %d vs %d", len(raw.Indices), len(idxRes.Indices))
	}
	for i := range raw.Indices {
		if raw.Indices[i] != idxRes.Indices[i] {
			t.Fatalf("joint record %d differs", i)
		}
	}
}

// TestAssembleFromMergesSampledPositives covers the backward merge of
// labeled positives below the threshold into the presorted suffix.
func TestAssembleFromMergesSampledPositives(t *testing.T) {
	scores := []float64{0.95, 0.05, 0.6, 0.2, 0.8, 0.1}
	ix, err := index.New(scores)
	if err != nil {
		t.Fatal(err)
	}
	tr := TauResult{
		Tau: 0.6,
		// Positives 1 and 5 sit below tau; positive 0 is above; the
		// labeled negative 3 must stay excluded.
		Labeled: map[int]bool{0: true, 1: true, 3: false, 5: true},
	}
	for name, res := range map[string]Result{
		"raw":     assemble(scores, tr),
		"indexed": assembleFrom(ix, tr, nil),
	} {
		want := []int{0, 1, 2, 4, 5}
		if len(res.Indices) != len(want) {
			t.Fatalf("%s: indices %v, want %v", name, res.Indices, want)
		}
		for i := range want {
			if res.Indices[i] != want[i] {
				t.Fatalf("%s: indices %v, want %v", name, res.Indices, want)
			}
		}
		if res.SampledPositives != 2 {
			t.Fatalf("%s: SampledPositives = %d, want 2", name, res.SampledPositives)
		}
	}
}

// oversizedSource claims one record more than an alias table can
// address. Only Len may be called on it: building its mixture would
// panic deep in sampling.
type oversizedSource struct{ ScoreSource }

var aliasLimit = sampling.MaxAliasLen // a variable, so 32-bit builds compile

func (oversizedSource) Len() int { return aliasLimit + 1 }

func (oversizedSource) Mixture(float64, float64) ([]float64, *sampling.Alias) {
	panic("mixture built for a source beyond sampling.MaxAliasLen")
}

// TestISRefusesSourceBeyondAliasLimit pins that an IS query over more
// than sampling.MaxAliasLen records returns an error instead of
// panicking — a panic in a server's query worker would take the
// process down.
func TestISRefusesSourceBeyondAliasLimit(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("an int cannot count past the alias limit")
	}
	never := oracle.Func(func(int) (bool, error) {
		t.Fatal("oracle called")
		return false, nil
	})
	oneStage := DefaultSUPG()
	oneStage.TwoStage = false
	cases := map[string]struct {
		kind TargetKind
		cfg  Config
	}{
		"recall":             {RecallTarget, DefaultSUPG()},
		"precision-twostage": {PrecisionTarget, DefaultSUPG()},
		"precision-onestage": {PrecisionTarget, oneStage},
	}
	for name, c := range cases {
		spec := Spec{Kind: c.kind, Gamma: 0.9, Delta: 0.05, Budget: 100}
		_, err := SelectFrom(randx.New(1), oversizedSource{}, never, spec, c.cfg)
		if err == nil {
			t.Fatalf("%s: no error for a source beyond the alias limit", name)
		}
	}
	jspec := JointSpec{GammaRecall: 0.9, GammaPrecision: 0.9, Delta: 0.05, StageBudget: 100}
	if _, err := SelectJointFromContextOptions(context.Background(), randx.New(1), oversizedSource{}, never, jspec, DefaultSUPG(), SelectOptions{}); err == nil {
		t.Fatal("joint: no error for a source beyond the alias limit")
	}
}
