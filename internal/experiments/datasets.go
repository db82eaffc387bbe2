package experiments

import (
	"supg/internal/dataset"
	"supg/internal/randx"
)

// evalDataset couples one of the paper's six evaluation datasets with
// the oracle budget the paper uses for it (Section 6.3: 1,000 for
// ImageNet, 10,000 for night-street and the synthetic datasets; the
// text datasets use the human-label budget of 1,000).
type evalDataset struct {
	d      *dataset.Dataset
	budget int
}

// paper-scale record counts: the sizes of the paper's evaluation
// datasets (Table 2), with 10^6 records for the synthetic Beta ones.
const (
	imageNetN    = 50_000
	nightStreetN = 972_000
	ontoNotesN   = 11_165
	tacredN      = 22_631
	betaN        = 1_000_000
)

// evalDatasets realizes the Table 2 suite at the requested scale. The
// mixture profiles mirror dataset.ImageNetSim etc. but with scaled
// record counts.
func evalDatasets(o Options, r *randx.Rand) []evalDataset {
	return []evalDataset{
		{imageNetAt(o, r.Stream(1)), o.scaledBudget(1000)},
		{nightStreetAt(o, r.Stream(2)), o.scaledBudget(10000)},
		{ontoNotesAt(o, r.Stream(3)), o.scaledBudget(1000)},
		{tacredAt(o, r.Stream(4)), o.scaledBudget(1000)},
		{betaAt(o, r.Stream(5), 0.01, 1), o.scaledBudget(10000)},
		{betaAt(o, r.Stream(6), 0.01, 2), o.scaledBudget(10000)},
	}
}

func imageNetAt(o Options, r *randx.Rand) *dataset.Dataset {
	return dataset.MixtureProfile{
		Name: "ImageNet", N: o.scaled(imageNetN), TPR: 0.001,
		PosAlpha: 6, PosBeta: 1.2,
		NegAlpha: 0.03, NegBeta: 6,
		HardPos: 0.04, HardNeg: 0.0006,
	}.Generate(r)
}

func nightStreetAt(o Options, r *randx.Rand) *dataset.Dataset {
	return dataset.NightStreetSimN(r, o.scaled(nightStreetN))
}

func ontoNotesAt(o Options, r *randx.Rand) *dataset.Dataset {
	return dataset.MixtureProfile{
		Name: "OntoNotes", N: o.scaled(ontoNotesN), TPR: 0.025,
		PosAlpha: 1.6, PosBeta: 1.4,
		NegAlpha: 0.25, NegBeta: 3,
		HardPos: 0.15, HardNeg: 0.03,
	}.Generate(r)
}

func tacredAt(o Options, r *randx.Rand) *dataset.Dataset {
	return dataset.MixtureProfile{
		Name: "TACRED", N: o.scaled(tacredN), TPR: 0.024,
		PosAlpha: 4, PosBeta: 1.2,
		NegAlpha: 0.08, NegBeta: 5,
		HardPos: 0.06, HardNeg: 0.004,
	}.Generate(r)
}

func betaAt(o Options, r *randx.Rand, alpha, beta float64) *dataset.Dataset {
	return dataset.Beta(r, o.scaled(betaN), alpha, beta)
}
