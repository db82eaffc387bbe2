package experiments

import (
	"fmt"

	"supg/internal/core"
	"supg/internal/dataset"
	"supg/internal/metrics"
	"supg/internal/multiproxy"
	"supg/internal/oracle"
	"supg/internal/parallel"
	"supg/internal/randx"
)

// This file implements the extension experiments that go beyond the
// paper: the multiple-proxy fusion of Section 8's future work and the
// finite-sample certificate ablation.

func runAblationMultiproxy(o Options) (*Report, error) {
	o = o.withDefaults()
	r := randx.New(o.Seed)
	n := o.scaled(200_000)
	base := dataset.Beta(r.Stream(1), n, 0.1, 1)
	budget := o.scaledBudget(4_000)
	trials := sweepTrials(o)

	// Three independently-noisy proxy views.
	noisy := func(stream uint64) []float64 {
		rs := r.Stream(stream)
		out := make([]float64, base.Len())
		for i := range out {
			v := base.Score(i) + 0.3*rs.NormFloat64()
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			out[i] = v
		}
		return out
	}
	cols := [][]float64{noisy(10), noisy(11), noisy(12)}

	spec := core.Spec{Kind: core.RecallTarget, Gamma: 0.9, Delta: 0.05, Budget: budget}
	rep := &Report{
		ID:    "ablation-multiproxy",
		Title: "Multiple proxies: fusion strategy vs quality (recall target 90%)",
		Table: metrics.Table{Header: []string{"proxies", "fusion", "fail rate", "mean precision"}},
	}

	type variant struct {
		name   string
		cols   [][]float64
		fusion multiproxy.Fusion
	}
	variants := []variant{
		{"single (proxy 1)", cols[:1], multiproxy.FuseMean},
		{"all 3", cols, multiproxy.FuseMean},
		{"all 3", cols, multiproxy.FuseMax},
		{"all 3", cols, multiproxy.FuseLogistic},
	}
	for vi, v := range variants {
		fail, prec, err := runMultiTrials(r.Stream(uint64(5000+vi)), base, v.cols, spec, v.fusion, trials, o.Parallelism)
		if err != nil {
			return nil, err
		}
		rep.Table.AddRow(v.name, v.fusion.String(), pct(fail), pct(prec))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("n=%d, budget=%d, per-proxy noise sd=0.3, trials per point=%d", n, budget, trials))
	return rep, nil
}

func runMultiTrials(r *randx.Rand, d *dataset.Dataset, cols [][]float64, spec core.Spec, fusion multiproxy.Fusion, trials, parallelism int) (failRate, meanPrecision float64, err error) {
	type outcome struct {
		fail bool
		prec float64
		err  error
	}
	results := make([]outcome, trials)
	parallel.Run(parallelism, trials, func(t int) {
		res, err := multiproxy.Select(r.Stream(uint64(t)+1), cols, oracle.NewSimulated(d), spec, core.DefaultSUPG(), multiproxy.Fuser{Kind: fusion})
		if err != nil {
			results[t] = outcome{err: err}
			return
		}
		e := metrics.Evaluate(d, res.Indices)
		results[t] = outcome{fail: e.Recall < spec.Gamma, prec: e.Precision}
	})
	fails, precSum := 0, 0.0
	for _, oc := range results {
		if oc.err != nil {
			return 0, 0, oc.err
		}
		if oc.fail {
			fails++
		}
		precSum += oc.prec
	}
	return float64(fails) / float64(trials), precSum / float64(trials), nil
}

func runAblationFinite(o Options) (*Report, error) {
	o = o.withDefaults()
	r := randx.New(o.Seed)
	d := dataset.Beta(r.Stream(1), o.scaled(200_000), 0.05, 1)
	trials := sweepTrials(o)

	rep := &Report{
		ID:    "ablation-finite",
		Title: "Finite-sample certificates vs CLT bounds",
		Table: metrics.Table{Header: []string{"setting", "budget", "estimator", "fail rate", "quality"}},
	}
	for _, budget := range []int{o.scaledBudget(500), o.scaledBudget(5000)} {
		for _, setting := range []struct {
			kind  core.TargetKind
			gamma float64
			other metrics.TargetMetric
		}{
			{core.RecallTarget, 0.9, metrics.MetricPrecision},
			{core.PrecisionTarget, 0.9, metrics.MetricRecall},
		} {
			metric := metrics.MetricRecall
			if setting.kind == core.PrecisionTarget {
				metric = metrics.MetricPrecision
			}
			spec := core.Spec{Kind: setting.kind, Gamma: setting.gamma, Delta: 0.05, Budget: budget}
			for vi, v := range []struct {
				name string
				cfg  core.Config
			}{
				{"CLT (paper)", core.DefaultUCI()},
				{"finite-sample", core.DefaultFinite()},
			} {
				ts, err := runTrials(r.Stream(uint64(6000+budget+10*int(setting.kind)+vi)), d, spec, v.cfg, trials, o.Parallelism)
				if err != nil {
					return nil, err
				}
				rep.Table.AddRow(setting.kind.String()+" target", fmt.Sprintf("%d", budget), v.name,
					pct(ts.FailureRate(metric, setting.gamma)),
					pct(ts.MeanMetric(setting.other)))
			}
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("Beta(0.05,1) (~4.8%% positives), trials per point=%d", trials))
	return rep, nil
}
