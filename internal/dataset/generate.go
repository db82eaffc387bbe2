package dataset

import (
	"fmt"
	"math"

	"supg/internal/dist"
	"supg/internal/randx"
)

// Beta generates the paper's synthetic dataset: proxy scores A(x) drawn
// from Beta(alpha, beta) and oracle labels as independent Bernoulli(A(x))
// trials, i.e. a perfectly calibrated proxy. The paper uses n = 10^6
// with (alpha, beta) in {(0.01, 1), (0.01, 2)}.
func Beta(r *randx.Rand, n int, alpha, beta float64) *Dataset {
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		a := dist.SampleBeta(r, alpha, beta)
		scores[i] = a
		labels[i] = r.Bernoulli(a)
	}
	return MustNew(fmt.Sprintf("Beta(%g, %g)", alpha, beta), scores, labels)
}

// MixtureProfile describes a two-component proxy-score model used to
// simulate the paper's real datasets: negatives draw scores from
// Beta(NegAlpha, NegBeta), positives from Beta(PosAlpha, PosBeta), with
// an optional fraction of "hard" records whose component is flipped
// (positives scored like negatives and vice versa). This captures the
// two properties the SUPG algorithms are sensitive to — class imbalance
// and proxy quality — without the underlying images or text.
type MixtureProfile struct {
	Name     string
	N        int
	TPR      float64
	PosAlpha float64
	PosBeta  float64
	NegAlpha float64
	NegBeta  float64
	// HardPos is the fraction of positives whose score is drawn from the
	// negative component (false negatives of the proxy); HardNeg is the
	// fraction of negatives drawn from the positive component.
	HardPos float64
	HardNeg float64
}

// Generate realizes the profile into a Dataset.
func (p MixtureProfile) Generate(r *randx.Rand) *Dataset {
	scores := make([]float64, p.N)
	labels := make([]bool, p.N)
	for i := 0; i < p.N; i++ {
		pos := r.Bernoulli(p.TPR)
		labels[i] = pos
		usePosComponent := pos
		if pos && r.Bernoulli(p.HardPos) {
			usePosComponent = false
		} else if !pos && r.Bernoulli(p.HardNeg) {
			usePosComponent = true
		}
		if usePosComponent {
			scores[i] = dist.SampleBeta(r, p.PosAlpha, p.PosBeta)
		} else {
			scores[i] = dist.SampleBeta(r, p.NegAlpha, p.NegBeta)
		}
	}
	return MustNew(p.Name, scores, labels)
}

// The simulated real-dataset profiles. Record counts follow the paper
// directly (ImageNet: 50,000 validation images) or are back-derived from
// the Table 5 exhaustive-labeling costs at $0.08/label (OntoNotes $893,
// TACRED $1810) and $0.00025/frame (night-street $243); true-positive
// rates follow Table 2. Proxy quality is set per the paper's discussion:
// ImageNet's ResNet-50 is "especially favorable ... highly calibrated";
// TACRED's SpanBERT is state of the art; OntoNotes uses a weak baseline;
// night-street sits in between.

// ImageNetSim mirrors "finding hummingbirds in the ImageNet validation
// set": 50,000 records, 0.1% TPR, a sharply separating proxy.
func ImageNetSim(r *randx.Rand) *Dataset {
	return MixtureProfile{
		Name: "ImageNet", N: 50_000, TPR: 0.001,
		PosAlpha: 6, PosBeta: 1.2,
		NegAlpha: 0.03, NegBeta: 6,
		HardPos: 0.04, HardNeg: 0.0006,
	}.Generate(r)
}

// NightStreetSimN mirrors "finding cars in the night-street video"
// (972,000 frames in the paper) at n records: 4% TPR, a good but
// noisier proxy.
func NightStreetSimN(r *randx.Rand, n int) *Dataset {
	return MixtureProfile{
		Name: "night-street", N: n, TPR: 0.04,
		PosAlpha: 3, PosBeta: 1.5,
		NegAlpha: 0.12, NegBeta: 4,
		HardPos: 0.08, HardNeg: 0.01,
	}.Generate(r)
}

// OntoNotesSim mirrors "finding city relationships" with a weak LSTM
// baseline proxy: 11,165 records, 2.5% TPR.
func OntoNotesSim(r *randx.Rand) *Dataset {
	return MixtureProfile{
		Name: "OntoNotes", N: 11_165, TPR: 0.025,
		PosAlpha: 1.6, PosBeta: 1.4,
		NegAlpha: 0.25, NegBeta: 3,
		HardPos: 0.15, HardNeg: 0.03,
	}.Generate(r)
}

// TACREDSim mirrors "finding employees relationships" with a strong
// SpanBERT proxy: 22,631 records, 2.4% TPR.
func TACREDSim(r *randx.Rand) *Dataset {
	return MixtureProfile{
		Name: "TACRED", N: 22_631, TPR: 0.024,
		PosAlpha: 4, PosBeta: 1.2,
		NegAlpha: 0.08, NegBeta: 5,
		HardPos: 0.06, HardNeg: 0.004,
	}.Generate(r)
}

// AddProxyNoise returns a copy of d whose scores have independent
// Gaussian noise of standard deviation sigma added, clipped to [0, 1] —
// the Figure 9 sensitivity workload. Labels are unchanged.
func AddProxyNoise(r *randx.Rand, d *Dataset, sigma float64) *Dataset {
	out := d.Clone()
	out.name = fmt.Sprintf("%s+noise(%.3g)", d.name, sigma)
	for i := range out.scores {
		v := out.scores[i] + sigma*r.NormFloat64()
		out.scores[i] = clamp01(v)
	}
	return out
}

// ScoreStdDev returns the standard deviation of the proxy scores, used
// by Figure 9 to express noise as a percentage of the score spread.
func (d *Dataset) ScoreStdDev() float64 {
	n := float64(len(d.scores))
	mean := 0.0
	for _, s := range d.scores {
		mean += s
	}
	mean /= n
	varsum := 0.0
	for _, s := range d.scores {
		dv := s - mean
		varsum += dv * dv
	}
	return math.Sqrt(varsum / n)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
