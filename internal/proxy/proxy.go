// Package proxy provides proxy-model abstractions and diagnostics. The
// SUPG algorithms consume a proxy only through its scores; this package
// adds the calibration analysis the paper uses to justify thresholding
// (bucketed empirical match rates, §4.2) plus the score inversion that
// builds the adversarial proxy of the defensive-mixing ablation.
package proxy

import (
	"math"

	"supg/internal/dataset"
)

// ReliabilityBucket is one row of a calibration (reliability) diagram:
// records whose score falls in [Lo, Hi) with their empirical match rate.
type ReliabilityBucket struct {
	Lo, Hi    float64
	Count     int
	Positives int
	MeanScore float64
}

// MatchRate returns the empirical positive rate in the bucket.
func (b ReliabilityBucket) MatchRate() float64 {
	if b.Count == 0 {
		return 0
	}
	return float64(b.Positives) / float64(b.Count)
}

// Reliability computes a reliability diagram over equal-width score
// buckets using ground-truth labels. It is an evaluation tool: it reads
// true labels directly and must not be used inside query execution.
func Reliability(d *dataset.Dataset, buckets int) []ReliabilityBucket {
	if buckets <= 0 {
		buckets = 10
	}
	out := make([]ReliabilityBucket, buckets)
	for i := range out {
		w := 1.0 / float64(buckets)
		out[i].Lo = float64(i) * w
		out[i].Hi = out[i].Lo + w
	}
	for i := 0; i < d.Len(); i++ {
		s := d.Score(i)
		b := int(s * float64(buckets))
		if b >= buckets {
			b = buckets - 1
		}
		out[b].Count++
		out[b].MeanScore += s
		if d.TrueLabel(i) {
			out[b].Positives++
		}
	}
	for i := range out {
		if out[i].Count > 0 {
			out[i].MeanScore /= float64(out[i].Count)
		}
	}
	return out
}

// ECE returns the expected calibration error: the count-weighted mean
// absolute gap between bucket confidence and bucket match rate.
func ECE(d *dataset.Dataset, buckets int) float64 {
	rel := Reliability(d, buckets)
	total := 0
	sum := 0.0
	for _, b := range rel {
		total += b.Count
		sum += float64(b.Count) * math.Abs(b.MeanScore-b.MatchRate())
	}
	if total == 0 {
		return 0
	}
	return sum / float64(total)
}

// Invert returns a copy of d with scores replaced by 1-s: an adversarial
// proxy that is perfectly anti-correlated with the labels of the
// original calibrated proxy. Used by the defensive-mixing ablation.
func Invert(d *dataset.Dataset) *dataset.Dataset {
	out := d.Clone()
	scores := out.Scores()
	for i := range scores {
		scores[i] = 1 - scores[i]
	}
	return out
}
