package core

import (
	"fmt"
	"math"

	"supg/internal/randx"
	"supg/internal/stats"
)

// bounder dispatches mean upper/lower confidence bounds over the CI
// constructions compared in Figure 13. rangeHint is the a-priori width
// of the values' support, needed only by Hoeffding (binary oracle labels
// have width 1; importance-reweighted labels have width max m(x)).
type bounder struct {
	kind BoundKind
	rng  *randx.Rand
}

func newBounder(cfg Config, rng *randx.Rand) bounder {
	return bounder{kind: cfg.Bound, rng: rng}
}

// upper returns an upper confidence bound at failure probability delta
// for the population mean of the distribution behind values.
func (b bounder) upper(values []float64, delta, rangeHint float64) float64 {
	n := len(values)
	if n == 0 {
		return math.Inf(1)
	}
	switch b.kind {
	case BoundNormal:
		m := stats.Summarize(values)
		return stats.UB(m.Mean(), m.StdDev(), n, delta)
	case BoundHoeffding:
		return stats.HoeffdingUB(stats.Mean(values), rangeHint, n, delta)
	case BoundBootstrap:
		return stats.BootstrapUB(b.rng, values, delta)
	case BoundClopperPearson:
		k := binaryCount(values)
		return stats.ClopperPearsonUB(k, n, delta)
	}
	panic(fmt.Sprintf("core: unknown bound kind %d", int(b.kind)))
}

// lower is the mirror of upper.
func (b bounder) lower(values []float64, delta, rangeHint float64) float64 {
	n := len(values)
	if n == 0 {
		return math.Inf(-1)
	}
	switch b.kind {
	case BoundNormal:
		m := stats.Summarize(values)
		return stats.LB(m.Mean(), m.StdDev(), n, delta)
	case BoundHoeffding:
		return stats.HoeffdingLB(stats.Mean(values), rangeHint, n, delta)
	case BoundBootstrap:
		return stats.BootstrapLB(b.rng, values, delta)
	case BoundClopperPearson:
		k := binaryCount(values)
		return stats.ClopperPearsonLB(k, n, delta)
	}
	panic(fmt.Sprintf("core: unknown bound kind %d", int(b.kind)))
}

// binaryCount validates that values are all 0/1 and returns the count of
// ones. Clopper–Pearson only applies to uniform binary samples; using it
// with importance-reweighted values is a programming error.
func binaryCount(values []float64) int {
	k := 0
	for _, v := range values {
		switch v {
		case 0:
		case 1:
			k++
		default:
			panic(fmt.Sprintf("core: Clopper-Pearson bound applied to non-binary value %g; it is only valid for uniform sampling", v))
		}
	}
	return k
}
