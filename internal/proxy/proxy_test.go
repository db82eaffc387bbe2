package proxy

import (
	"math"
	"testing"

	"supg/internal/dataset"
	"supg/internal/randx"
)

func TestReliabilityBucketsPartition(t *testing.T) {
	d := dataset.Beta(randx.New(1), 50000, 2, 2)
	rel := Reliability(d, 10)
	if len(rel) != 10 {
		t.Fatalf("got %d buckets", len(rel))
	}
	total := 0
	for i, b := range rel {
		total += b.Count
		if b.Positives > b.Count {
			t.Fatalf("bucket %d has more positives than records", i)
		}
		if b.Count > 0 && (b.MeanScore < b.Lo-1e-9 || b.MeanScore > b.Hi+1e-9) {
			t.Fatalf("bucket %d mean score %v outside [%v,%v)", i, b.MeanScore, b.Lo, b.Hi)
		}
	}
	if total != d.Len() {
		t.Fatalf("buckets cover %d of %d records", total, d.Len())
	}
}

func TestReliabilityCalibratedProxy(t *testing.T) {
	// Beta datasets are calibrated by construction: bucket match rates
	// should track bucket confidences.
	d := dataset.Beta(randx.New(2), 200000, 2, 2)
	for _, b := range Reliability(d, 10) {
		if b.Count < 500 {
			continue
		}
		if math.Abs(b.MatchRate()-b.MeanScore) > 0.05 {
			t.Errorf("bucket [%v,%v): match rate %v vs confidence %v", b.Lo, b.Hi, b.MatchRate(), b.MeanScore)
		}
	}
}

func TestReliabilityDefaultBuckets(t *testing.T) {
	d := dataset.Beta(randx.New(3), 1000, 1, 1)
	if len(Reliability(d, 0)) != 10 {
		t.Error("bucket count should default to 10")
	}
}

func TestECECalibratedIsSmall(t *testing.T) {
	d := dataset.Beta(randx.New(4), 200000, 2, 2)
	if e := ECE(d, 10); e > 0.02 {
		t.Errorf("calibrated proxy ECE %v too large", e)
	}
}

func TestECEMiscalibratedIsLarger(t *testing.T) {
	d := dataset.Beta(randx.New(5), 100000, 2, 2)
	// scores^3: same ranking, bad calibration.
	warped := d.Clone()
	scores := warped.Scores()
	for i := range scores {
		scores[i] = math.Pow(scores[i], 3)
	}
	if ECE(warped, 10) <= ECE(d, 10) {
		t.Error("monotone distortion should increase ECE")
	}
}

func TestInvert(t *testing.T) {
	d := dataset.MustNew("i", []float64{0.2, 0.9}, []bool{false, true})
	inv := Invert(d)
	if inv.Score(0) != 0.8 || math.Abs(inv.Score(1)-0.1) > 1e-12 {
		t.Errorf("Invert scores: %v %v", inv.Score(0), inv.Score(1))
	}
	if inv.TrueLabel(1) != true {
		t.Error("Invert must not change labels")
	}
}
