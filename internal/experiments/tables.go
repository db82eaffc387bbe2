package experiments

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"supg/internal/core"
	"supg/internal/costmodel"
	"supg/internal/dataset"
	"supg/internal/metrics"
	"supg/internal/oracle"
	"supg/internal/proxy"
	"supg/internal/randx"
)

// This file implements the paper's Tables 2-5.

func init() {
	register(Experiment{
		ID:          "table2",
		Title:       "Dataset summary (records, positives, TPR, proxy calibration)",
		Description: "Reproduces Table 2's dataset inventory with measured true-positive rates.",
		Run:         runTable2,
	})
	register(Experiment{
		ID:          "table3",
		Title:       "Distributionally shifted dataset summary",
		Description: "Reproduces Table 3: the train -> shifted-test pairs used for the drift study.",
		Run:         runTable3,
	})
	register(Experiment{
		ID:    "table4",
		Title: "Accuracy under model drift: fixed empirical cutoff vs SUPG (target 95%)",
		Description: "The naive method fixes a threshold on fully-labeled training data and\n" +
			"applies it to the shifted test set; SUPG samples the shifted set under\n" +
			"the usual budget. Reproduces Table 4.",
		Run: runTable4,
	})
	register(Experiment{
		ID:          "table5",
		Title:       "Cost of SUPG query processing vs proxy, oracle, and exhaustive labeling",
		Description: "Reproduces Table 5 using Scale API label pricing and AWS p3.2xlarge GPU pricing.",
		Run:         runTable5,
	})
}

func runTable2(o Options) (*Report, error) {
	o = o.withDefaults()
	r := randx.New(o.Seed)
	rep := &Report{
		ID:    "table2",
		Title: "Table 2: dataset, oracle, proxy, true positive rate",
		Table: metrics.Table{Header: []string{"dataset", "oracle", "proxy", "records", "positives", "TPR", "proxy ECE"}},
	}
	meta := []struct{ oracle, proxy string }{
		{"Human labels (sim)", "ResNet-50 (sim)"},
		{"Mask R-CNN (sim)", "ResNet-50 (sim)"},
		{"Human labels (sim)", "LSTM baseline (sim)"},
		{"Human labels (sim)", "SpanBERT (sim)"},
		{"True values", "Probabilities"},
		{"True values", "Probabilities"},
	}
	for i, ed := range evalDatasets(o, r.Stream(7)) {
		s := ed.d.Summarize()
		rep.Table.AddRow(s.Name, meta[i].oracle, meta[i].proxy,
			strconv.Itoa(s.Records), strconv.Itoa(s.Positives),
			fmt.Sprintf("%.2f%%", 100*s.TPR),
			f3(proxy.ECE(ed.d, 20)))
	}
	return rep, nil
}

// driftScale returns the per-dataset record count used by the drift
// experiments (paper-scale 100k keeps table4 affordable).
func (o Options) driftScale() int { return o.scaled(100_000) }

func runTable3(o Options) (*Report, error) {
	o = o.withDefaults()
	r := randx.New(o.Seed)
	rep := &Report{
		ID:    "table3",
		Title: "Table 3: distributionally shifted datasets",
		Table: metrics.Table{Header: []string{"dataset", "shifted dataset", "train TPR", "test TPR", "train ECE", "test ECE"}},
	}
	for _, pair := range dataset.StandardDriftPairs(r.Stream(8), o.driftScale()) {
		rep.Table.AddRow(pair.Train.Name(), pair.Test.Name(),
			fmt.Sprintf("%.2f%%", 100*pair.Train.PositiveRate()),
			fmt.Sprintf("%.2f%%", 100*pair.Test.PositiveRate()),
			f3(proxy.ECE(pair.Train, 20)),
			f3(proxy.ECE(pair.Test, 20)))
	}
	return rep, nil
}

func runTable4(o Options) (*Report, error) {
	o = o.withDefaults()
	r := randx.New(o.Seed)
	rep := &Report{
		ID:    "table4",
		Title: "Table 4: achieved accuracy under drift, target 95% (delta=0.05)",
		Table: metrics.Table{Header: []string{
			"dataset", "query type", "target", "naive accuracy", "SUPG accuracy", "SUPG success rate",
		}},
	}
	const gamma = 0.95
	pairs := dataset.StandardDriftPairs(r.Stream(8), o.driftScale())
	budget := o.scaledBudget(10_000)
	trials := o.Trials
	if trials > 25 {
		trials = 25 // the paper reports means; 25 trials suffice and keep drift runs fast
	}
	for pi, pair := range pairs {
		for _, kind := range []core.TargetKind{core.PrecisionTarget, core.RecallTarget} {
			metric := metrics.MetricPrecision
			if kind == core.RecallTarget {
				metric = metrics.MetricRecall
			}
			// Naive: empirical cutoff fitted on the fully-labeled
			// training set, applied verbatim to the shifted test set.
			naive := naiveFixedThresholdAccuracy(r.Stream(uint64(300+pi)), pair, kind, gamma)

			spec := core.Spec{Kind: kind, Gamma: gamma, Delta: 0.05, Budget: budget}
			ts, err := runTrials(r.Stream(uint64(400+10*pi+int(kind))), pair.Test, spec, core.DefaultSUPG(), trials, o.Parallelism)
			if err != nil {
				return nil, err
			}
			rep.Table.AddRow(pair.Description, kind.String(), pct(gamma),
				pct(naive), pct(ts.MeanMetric(metric)),
				pct(1-ts.FailureRate(metric, gamma)))
		}
	}
	rep.Notes = append(rep.Notes,
		"naive accuracy is deterministic given the training labels; SUPG columns average "+strconv.Itoa(trials)+" runs")
	return rep, nil
}

// naiveFixedThresholdAccuracy fits the empirical cutoff for the target
// on the entire labeled training set (as NoScope/probabilistic
// predicates do) and measures the achieved metric on the shifted test
// set.
func naiveFixedThresholdAccuracy(r *randx.Rand, pair dataset.DriftPair, kind core.TargetKind, gamma float64) float64 {
	train := pair.Train
	// "Oracle labels on the entire training dataset": budget = |train|.
	spec := core.Spec{Kind: kind, Gamma: gamma, Delta: 0.05, Budget: train.Len()}
	budgeted := oracle.NewBudgeted(oracle.NewSimulated(train), train.Len())
	fit, err := core.SelectBudgeted(r, core.NewRawSource(train.Scores()), budgeted, spec, core.DefaultUNoCI())
	if err != nil {
		return 0
	}
	tau := fit.Tau

	// Apply the fixed threshold to the shifted test set (no new labels).
	test := pair.Test
	var selected []int
	for i := 0; i < test.Len(); i++ {
		if test.Score(i) >= tau {
			selected = append(selected, i)
		}
	}
	e := metrics.Evaluate(test, selected)
	if kind == core.PrecisionTarget {
		return e.Precision
	}
	return e.Recall
}

func runTable5(o Options) (*Report, error) {
	o = o.withDefaults()
	r := randx.New(o.Seed)
	rep := &Report{
		ID:    "table5",
		Title: "Table 5: cost breakdown (USD)",
		Table: metrics.Table{Header: []string{
			"dataset", "SUPG sampling", "proxy", "oracle", "SUPG total", "exhaustive oracle",
		}},
	}

	// Measure real threshold-estimation wall time on a scaled dataset,
	// then price the paper-scale dataset with the published constants.
	gen := map[string]func(*randx.Rand) *dataset.Dataset{
		"night":     func(rr *randx.Rand) *dataset.Dataset { return nightStreetAt(o, rr) },
		"ImageNet":  func(rr *randx.Rand) *dataset.Dataset { return imageNetAt(o, rr) },
		"OntoNotes": func(rr *randx.Rand) *dataset.Dataset { return ontoNotesAt(o, rr) },
		"TACRED":    func(rr *randx.Rand) *dataset.Dataset { return tacredAt(o, rr) },
	}
	for i, c := range costmodel.StandardCosts() {
		d := gen[c.Name](r.Stream(uint64(20 + i)))
		budget := c.Budget
		if budget > d.Len()/2 {
			budget = d.Len() / 2
		}
		spec := core.Spec{Kind: core.RecallTarget, Gamma: 0.9, Delta: 0.05, Budget: budget}
		start := time.Now()
		res, err := core.SelectFromContextOptions(context.Background(), r.Stream(uint64(40+i)), core.NewRawSource(d.Scores()), oracle.NewSimulated(d), spec, core.DefaultSUPG(), core.SelectOptions{})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		b := costmodel.Compute(c, elapsed, c.Budget)
		_ = res
		rep.Table.AddRow(b.Dataset,
			fmt.Sprintf("$%.1e", b.Sampling),
			fmt.Sprintf("$%.2f", b.Proxy),
			fmt.Sprintf("$%.2f", b.Oracle),
			fmt.Sprintf("$%.2f", b.Total),
			fmt.Sprintf("$%.0f", b.Exhaustive))
	}
	rep.Notes = append(rep.Notes,
		"sampling cost prices measured wall time at $3.06/hr (AWS p3.2xlarge); oracle/proxy columns use the paper's published rates")
	return rep, nil
}
