package core

import (
	"context"
	"testing"

	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/oracle"
	"supg/internal/randx"
)

// This file is the segmented-index equivalence battery, extending the
// TestSelectFromIndexMatchesRawPath pattern to every segmentation: the
// paper's guarantees are distributional, so a correct sharding must be
// *invisible* — byte-identical Indices and Tau for a fixed seed at
// every segment size, every estimator family, and every query kind.

// segmentSizes is the satellite-mandated sweep: degenerate 1-record
// segments, a small prime that misaligns with everything, a mid-size
// power of two, and the monolithic single-segment layout.
func segmentSizes(n int) []int {
	return []int{1, 7, 1024, n}
}

func assertResultsEqual(t *testing.T, label string, want, got Result) {
	t.Helper()
	if want.Tau != got.Tau {
		t.Fatalf("%s: tau %v vs %v", label, want.Tau, got.Tau)
	}
	if want.OracleCalls != got.OracleCalls {
		t.Fatalf("%s: oracle calls %d vs %d", label, want.OracleCalls, got.OracleCalls)
	}
	if want.SampledPositives != got.SampledPositives {
		t.Fatalf("%s: sampled positives %d vs %d", label, want.SampledPositives, got.SampledPositives)
	}
	if len(want.Indices) != len(got.Indices) {
		t.Fatalf("%s: %d records vs %d", label, len(want.Indices), len(got.Indices))
	}
	for i := range want.Indices {
		if want.Indices[i] != got.Indices[i] {
			t.Fatalf("%s: record %d differs: %d vs %d", label, i, want.Indices[i], got.Indices[i])
		}
	}
}

// TestSelectSegmentedMatchesMonolithic sweeps randomized tables and
// segment sizes across recall/precision queries of every estimator
// family, asserting byte-identical results between the monolithic
// (single-segment) layout, every sharded layout, and the raw
// non-indexed path.
func TestSelectSegmentedMatchesMonolithic(t *testing.T) {
	configs := map[string]Config{
		"SUPG":   DefaultSUPG(),
		"UCI":    DefaultUCI(),
		"UNoCI":  DefaultUNoCI(),
		"Finite": DefaultFinite(),
	}
	for ti, tbl := range []struct {
		n      int
		budget int
		alpha  float64
		beta   float64
	}{
		{n: 400, budget: 80, alpha: 0.5, beta: 1},
		{n: 3000, budget: 300, alpha: 0.01, beta: 2},
		{n: 20000, budget: 600, alpha: 0.01, beta: 2},
	} {
		d := dataset.Beta(randx.New(uint64(500+ti)), tbl.n, tbl.alpha, tbl.beta)
		mono, err := index.NewWithOptions(d.Scores(), index.Options{SegmentSize: tbl.n})
		if err != nil {
			t.Fatal(err)
		}
		for name, cfg := range configs {
			for _, kind := range []TargetKind{RecallTarget, PrecisionTarget} {
				spec := Spec{Kind: kind, Gamma: 0.9, Delta: 0.05, Budget: tbl.budget}
				seed := uint64(1000*ti) + 17
				want, err := selectFrom(randx.New(seed), mono, oracle.NewSimulated(d), spec, cfg)
				if err != nil {
					t.Fatalf("n=%d %s/%v monolithic: %v", tbl.n, name, kind, err)
				}
				raw, err := selectFrom(randx.New(seed), NewRawSource(d.Scores()), oracle.NewSimulated(d), spec, cfg)
				if err != nil {
					t.Fatalf("n=%d %s/%v raw: %v", tbl.n, name, kind, err)
				}
				assertResultsEqual(t, "raw-vs-monolithic", raw, want)
				for _, segSize := range segmentSizes(tbl.n) {
					seg, err := index.NewWithOptions(d.Scores(), index.Options{SegmentSize: segSize, Parallelism: 4})
					if err != nil {
						t.Fatal(err)
					}
					got, err := selectFrom(randx.New(seed), seg, oracle.NewSimulated(d), spec, cfg)
					if err != nil {
						t.Fatalf("n=%d segSize=%d %s/%v: %v", tbl.n, segSize, name, kind, err)
					}
					assertResultsEqual(t, labelFor(tbl.n, segSize, name, kind), want, got)
				}
			}
		}
	}
}

func labelFor(n, segSize int, name string, kind TargetKind) string {
	return "n=" + itoa(n) + " segSize=" + itoa(segSize) + " " + name + "/" + kind.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestSelectJointSegmentedMatchesMonolithic is the same sweep for the
// appendix joint-target algorithm, whose two-stage plumbing exercises
// KthHighest and subset sampling across segment boundaries.
func TestSelectJointSegmentedMatchesMonolithic(t *testing.T) {
	n := 12000
	d := dataset.Beta(randx.New(77), n, 0.01, 2)
	spec := JointSpec{GammaRecall: 0.8, GammaPrecision: 0.9, Delta: 0.05, StageBudget: 400}
	mono, err := index.NewWithOptions(d.Scores(), index.Options{SegmentSize: n})
	if err != nil {
		t.Fatal(err)
	}
	want, err := SelectJointFromContextOptions(context.Background(), randx.New(5), mono, oracle.NewSimulated(d), spec, DefaultSUPG(), SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, segSize := range segmentSizes(n) {
		seg, err := index.NewWithOptions(d.Scores(), index.Options{SegmentSize: segSize, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		got, err := SelectJointFromContextOptions(context.Background(), randx.New(5), seg, oracle.NewSimulated(d), spec, DefaultSUPG(), SelectOptions{})
		if err != nil {
			t.Fatalf("segSize=%d: %v", segSize, err)
		}
		if want.Tau != got.Tau || want.OracleCalls != got.OracleCalls || want.CandidateSize != got.CandidateSize {
			t.Fatalf("segSize=%d: joint stats differ: %+v vs %+v", segSize, want, got)
		}
		if len(want.Indices) != len(got.Indices) {
			t.Fatalf("segSize=%d: %d records vs %d", segSize, len(want.Indices), len(got.Indices))
		}
		for i := range want.Indices {
			if want.Indices[i] != got.Indices[i] {
				t.Fatalf("segSize=%d: joint record %d differs", segSize, i)
			}
		}
	}
}

// TestSelectAppendedIndexMatchesMonolithic closes the loop on the
// append path at the selection level: an index grown record-batch by
// record-batch must select the same records as a one-shot build.
func TestSelectAppendedIndexMatchesMonolithic(t *testing.T) {
	n := 9000
	d := dataset.Beta(randx.New(88), n, 0.01, 2)
	mono, err := index.NewWithOptions(d.Scores(), index.Options{SegmentSize: n})
	if err != nil {
		t.Fatal(err)
	}
	grown, err := index.NewWithOptions(d.Scores()[:3000], index.Options{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, hi := range []int{3001, 6500, n} {
		grown, err = grown.Append(d.Scores()[grown.Len():hi])
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, kind := range []TargetKind{RecallTarget, PrecisionTarget} {
		spec := Spec{Kind: kind, Gamma: 0.9, Delta: 0.05, Budget: 400}
		want, err := selectFrom(randx.New(3), mono, oracle.NewSimulated(d), spec, DefaultSUPG())
		if err != nil {
			t.Fatal(err)
		}
		got, err := selectFrom(randx.New(3), grown, oracle.NewSimulated(d), spec, DefaultSUPG())
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, "appended/"+kind.String(), want, got)
	}
}
