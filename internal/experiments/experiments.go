// Package experiments reproduces every table and figure in the paper's
// evaluation (Section 6 and the appendix). Each experiment is registered
// under an id that names the paper's figure or table (fig1, fig5, ...,
// table5, fig15), producing a textual Report with the same rows/series
// the paper plots. cmd/supg-bench runs them from the command line and
// the repository-root benchmarks exercise them at reduced scale.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"supg/internal/core"
	"supg/internal/dataset"
	"supg/internal/metrics"
	"supg/internal/oracle"
	"supg/internal/parallel"
	"supg/internal/randx"
)

// Options control experiment scale so the same code serves the paper's
// full configuration (CLI) and fast CI runs (tests, benchmarks).
type Options struct {
	// Seed drives all randomness; equal seeds give identical reports.
	Seed uint64
	// Trials is the number of repeated runs per configuration
	// (paper: 100).
	Trials int
	// Scale multiplies dataset sizes and budgets (1.0 = paper scale).
	Scale float64
	// Parallelism bounds concurrent trials (0 = GOMAXPROCS).
	Parallelism int
}

// withDefaults fills unset fields with the paper's configuration.
func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 0x5069 // arbitrary fixed default for reproducibility
	}
	if o.Trials <= 0 {
		o.Trials = 100
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// scaled applies the scale factor to a paper-sized count with a floor
// that keeps the statistics meaningful.
func (o Options) scaled(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 2000 {
		v = 2000
	}
	if v > n && o.Scale <= 1 {
		v = n
	}
	return v
}

// scaledBudget applies the scale factor to an oracle budget with a
// smaller floor.
func (o Options) scaledBudget(b int) int {
	v := int(float64(b) * o.Scale)
	if v < 500 {
		v = 500
	}
	if v > b && o.Scale <= 1 {
		v = b
	}
	return v
}

// Report is the textual result of one experiment.
type Report struct {
	ID          string
	Title       string
	Description string
	Table       metrics.Table
	Notes       []string
}

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", r.ID, r.Title)
	if r.Description != "" {
		fmt.Fprintf(&sb, "%s\n", r.Description)
	}
	sb.WriteByte('\n')
	sb.WriteString(r.Table.String())
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Experiment couples an id with its runner.
type Experiment struct {
	ID          string
	Title       string
	Description string
	Run         func(Options) (*Report, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments in registration order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// runTrials executes `trials` independent SUPG selections of (spec, cfg)
// over d and aggregates per-trial quality. Trials run in parallel but
// each consumes a deterministic random stream, so results are
// reproducible regardless of scheduling.
func runTrials(r *randx.Rand, d *dataset.Dataset, spec core.Spec, cfg core.Config, trials, parallelism int) (*metrics.TrialSet, error) {
	return runTrialsVia(r, d, trials, parallelism,
		func(rt *randx.Rand) (core.Result, error) {
			return core.SelectFromContextOptions(context.Background(), rt, core.NewRawSource(d.Scores()), oracle.NewSimulated(d), spec, cfg, core.SelectOptions{})
		})
}

// runTrialsFrom is runTrials over a prebuilt ScoreSource (e.g. a
// segmented index.ScoreIndex shared across trials) — the harness the
// guarantee regression tests use to Monte-Carlo the indexed hot path
// rather than the raw-slice path.
func runTrialsFrom(r *randx.Rand, d *dataset.Dataset, src core.ScoreSource, spec core.Spec, cfg core.Config, trials, parallelism int) (*metrics.TrialSet, error) {
	return runTrialsVia(r, d, trials, parallelism,
		func(rt *randx.Rand) (core.Result, error) {
			return core.SelectFromContextOptions(context.Background(), rt, src, oracle.NewSimulated(d), spec, cfg, core.SelectOptions{})
		})
}

// runTrialsVia is the shared trial loop: one deterministic stream per
// trial, bounded parallelism, quality evaluated against ground truth.
func runTrialsVia(r *randx.Rand, d *dataset.Dataset, trials, parallelism int,
	run func(*randx.Rand) (core.Result, error)) (*metrics.TrialSet, error) {
	type outcome struct {
		eval  metrics.Eval
		calls int
		err   error
	}
	results := make([]outcome, trials)
	parallel.Run(parallelism, trials, func(t int) {
		res, err := run(r.Stream(uint64(t) + 1))
		if err != nil {
			results[t] = outcome{err: err}
			return
		}
		results[t] = outcome{eval: metrics.Evaluate(d, res.Indices), calls: res.OracleCalls}
	})

	ts := &metrics.TrialSet{}
	for _, o := range results {
		if o.err != nil {
			return nil, o.err
		}
		ts.Add(o.eval, o.calls)
	}
	return ts, nil
}

// pct formats a fraction as a percentage with one decimal.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// f3 formats a float with three significant decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
