package experiments

import (
	"context"
	"fmt"

	"supg/internal/core"
	"supg/internal/dataset"
	"supg/internal/metrics"
	"supg/internal/oracle"
	"supg/internal/parallel"
	"supg/internal/proxy"
	"supg/internal/randx"
	"supg/internal/stats"
)

// This file implements Figure 15 (appendix): joint recall+precision
// target queries, comparing U-CI and SUPG recall subroutines by the
// number of oracle queries consumed.

func init() {
	register(Experiment{
		ID:    "fig15",
		Title: "Joint-target queries: oracle usage, U-CI vs SUPG subroutine",
		Description: "The three-stage JT algorithm with recall/precision targets in\n" +
			"{0.5, 0.6, 0.7, 0.75, 0.8, 0.9}; lower oracle counts are better.\n" +
			"Reproduces Figure 15 on the four figure datasets.",
		Run: runFig15,
	})
	register(Experiment{
		ID:    "ablation-multiproxy",
		Title: "Extension: multiple proxies (Section 8 future work)",
		Description: "Two independently-noisy proxies, fused label-free (mean/max) or with\n" +
			"an oracle-calibrated logistic stacker, vs the best single proxy.\n" +
			"Recall target 90%; quality is achieved precision.",
		Run: runAblationMultiproxy,
	})
	register(Experiment{
		ID:    "ablation-finite",
		Title: "Extension: finite-sample certificates vs the paper's CLT bounds",
		Description: "The exact order-statistics RT estimator and Clopper-Pearson PT\n" +
			"certificates against the asymptotic defaults, at a small budget where\n" +
			"asymptotics are strained.",
		Run: runAblationFinite,
	})
	register(Experiment{
		ID:    "ablation-defensive",
		Title: "Ablation: defensive mixing under an adversarial (inverted) proxy",
		Description: "An ablation beyond the paper's figures: with the proxy scores\n" +
			"inverted (anti-correlated), defensive mixing keeps the recall\n" +
			"guarantee while mixing=0 fails.",
		Run: runAblationDefensive,
	})
}

func runFig15(o Options) (*Report, error) {
	o = o.withDefaults()
	r := randx.New(o.Seed)
	targets := []float64{0.5, 0.6, 0.7, 0.75, 0.8, 0.9}
	trials := sweepTrials(o)

	sets := []evalDataset{
		{imageNetAt(o, r.Stream(1)), o.scaledBudget(1000)},
		{nightStreetAt(o, r.Stream(2)), o.scaledBudget(10000)},
		{betaAt(o, r.Stream(5), 0.01, 1), o.scaledBudget(10000)},
		{betaAt(o, r.Stream(6), 0.01, 2), o.scaledBudget(10000)},
	}
	methods := []struct {
		name string
		cfg  core.Config
	}{
		{"U-CI", core.DefaultUCI()},
		{"SUPG", core.DefaultSUPG()},
	}

	rep := &Report{
		ID:    "fig15",
		Title: "Figure 15: joint targets vs oracle queries (mean over trials)",
		Table: metrics.Table{Header: []string{"dataset", "method", "target", "oracle queries", "recall ok"}},
	}
	for di, ed := range sets {
		for mi, m := range methods {
			for ti, gamma := range targets {
				spec := core.JointSpec{
					GammaRecall:    gamma,
					GammaPrecision: gamma,
					Delta:          0.05,
					StageBudget:    ed.budget,
				}
				calls, recallOK, err := runJointTrials(r.Stream(uint64(4000+100*di+10*mi+ti)), ed.d, spec, m.cfg, trials, o.Parallelism)
				if err != nil {
					return nil, fmt.Errorf("fig15 %s/%s: %w", ed.d.Name(), m.name, err)
				}
				rep.Table.AddRow(ed.d.Name(), m.name, pct(gamma),
					fmt.Sprintf("%.0f", calls), pct(recallOK))
			}
		}
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("stage-2 budget per dataset as in Section 6.3; trials per point=%d; precision is 1 by construction (exhaustive filter)", trials))
	return rep, nil
}

// runJointTrials returns the mean oracle-call count and the fraction of
// trials meeting the recall target.
func runJointTrials(r *randx.Rand, d *dataset.Dataset, spec core.JointSpec, cfg core.Config, trials, parallelism int) (meanCalls, recallOK float64, err error) {
	type outcome struct {
		calls  int
		recall float64
		err    error
	}
	results := make([]outcome, trials)
	parallel.Run(parallelism, trials, func(t int) {
		res, err := core.SelectJointFromContextOptions(context.Background(), r.Stream(uint64(t)+1), core.NewRawSource(d.Scores()), oracle.NewSimulated(d), spec, cfg, core.SelectOptions{})
		if err != nil {
			results[t] = outcome{err: err}
			return
		}
		e := metrics.Evaluate(d, res.Indices)
		results[t] = outcome{calls: res.OracleCalls, recall: e.Recall}
	})

	var calls, ok []float64
	for _, o := range results {
		if o.err != nil {
			return 0, 0, o.err
		}
		calls = append(calls, float64(o.calls))
		if o.recall >= spec.GammaRecall {
			ok = append(ok, 1)
		} else {
			ok = append(ok, 0)
		}
	}
	return stats.Mean(calls), stats.Mean(ok), nil
}

func runAblationDefensive(o Options) (*Report, error) {
	o = o.withDefaults()
	r := randx.New(o.Seed)
	base := betaAt(o, r.Stream(5), 0.01, 2)
	budget := o.scaledBudget(10_000)
	trials := sweepTrials(o)

	// Invert the scores so the proxy actively points away from positives.
	inverted := proxy.Invert(base).WithName(base.Name() + " (inverted proxy)")

	rep := &Report{
		ID:    "ablation-defensive",
		Title: "Defensive mixing under an adversarial proxy (recall target 90%)",
		Table: metrics.Table{Header: []string{"proxy", "mixing", "fail rate", "mean recall"}},
	}
	spec := core.Spec{Kind: core.RecallTarget, Gamma: 0.90, Delta: 0.05, Budget: budget}
	for di, d := range []*dataset.Dataset{base, inverted} {
		for xi, mix := range []float64{0, 0.1, 0.3} {
			cfg := core.DefaultSUPG()
			cfg.Mix = mix
			ts, err := runTrials(r.Stream(uint64(4500+10*di+xi)), d, spec, cfg, trials, o.Parallelism)
			if err != nil {
				return nil, err
			}
			name := "calibrated"
			if di == 1 {
				name = "adversarial"
			}
			rep.Table.AddRow(name, fmt.Sprintf("%.1f", mix),
				pct(ts.FailureRate(metrics.MetricRecall, spec.Gamma)),
				pct(ts.MeanMetric(metrics.MetricRecall)))
		}
	}
	return rep, nil
}
