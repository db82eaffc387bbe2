// Package multiproxy extends SUPG to queries with several proxy models,
// the future-work direction of the paper's Section 8 ("many scenarios
// naturally have multiple proxy models ... these algorithms can improve
// statistical rates relative to single proxy models").
//
// The extension fuses K proxy-score columns into a single column and
// then runs the standard single-proxy SUPG machinery on the fusion, so
// all accuracy guarantees carry over unchanged (they never depended on
// proxy quality — only result quality does). Three fusion strategies
// are provided:
//
//   - FuseMean / FuseMax: label-free combinations.
//   - FuseLogistic: a logistic-regression stacker calibrated on a small
//     oracle-labeled sample drawn through a budgeted oracle.
//
// The package is a fusion provider, not a query engine: Fuser turns
// proxy columns into one fused column plus calibration metadata, and
// the callers decide where that column lives. The SQL engine composes a
// Fuser into its per-table index builds (the fused column becomes a
// cached, segmented ScoreIndex shared by every query of the same score
// source, with calibration labels flowing through the cross-query label
// store), while Select below runs the classic one-shot library path
// where calibration shares the query's own oracle budget.
package multiproxy

import (
	"fmt"
	"math"

	"supg/internal/core"
	"supg/internal/oracle"
	"supg/internal/randx"
	"supg/internal/sampling"
)

// Fusion names a proxy-combination strategy.
type Fusion int

const (
	// FuseMean averages the proxy scores.
	FuseMean Fusion = iota
	// FuseMax takes the per-record maximum score.
	FuseMax
	// FuseLogistic fits a logistic stacker on an oracle-labeled
	// calibration sample.
	FuseLogistic
)

// String implements fmt.Stringer.
func (f Fusion) String() string {
	switch f {
	case FuseMean:
		return "mean"
	case FuseMax:
		return "max"
	case FuseLogistic:
		return "logistic"
	}
	return fmt.Sprintf("Fusion(%d)", int(f))
}

// validateColumns checks the score matrix shape.
func validateColumns(columns [][]float64) (n int, err error) {
	if len(columns) == 0 {
		return 0, fmt.Errorf("multiproxy: no proxy columns")
	}
	n = len(columns[0])
	if n == 0 {
		return 0, fmt.Errorf("multiproxy: empty proxy columns")
	}
	for i, c := range columns {
		if len(c) != n {
			return 0, fmt.Errorf("multiproxy: column %d has %d records, column 0 has %d", i, len(c), n)
		}
	}
	return n, nil
}

// Mean fuses columns by averaging.
func Mean(columns [][]float64) ([]float64, error) {
	n, err := validateColumns(columns)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	inv := 1.0 / float64(len(columns))
	for _, c := range columns {
		for i, v := range c {
			out[i] += v * inv
		}
	}
	return out, nil
}

// Max fuses columns by the per-record maximum.
func Max(columns [][]float64) ([]float64, error) {
	n, err := validateColumns(columns)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	copy(out, columns[0])
	for _, c := range columns[1:] {
		for i, v := range c {
			if v > out[i] {
				out[i] = v
			}
		}
	}
	return out, nil
}

// LogisticModel is a fitted stacker over K proxy scores.
type LogisticModel struct {
	// Weights has one weight per proxy column.
	Weights []float64
	// Bias is the intercept.
	Bias float64
}

// Score returns the fused probability for one record's proxy scores.
func (m *LogisticModel) Score(features []float64) float64 {
	z := m.Bias
	for i, w := range m.Weights {
		z += w * features[i]
	}
	return sigmoid(z)
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// FitLogistic trains a logistic stacker by full-batch gradient descent
// with L2 regularization. features is row-major: one row of K proxy
// scores per labeled record.
func FitLogistic(features [][]float64, labels []bool, epochs int, lr, l2 float64) (*LogisticModel, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("multiproxy: no calibration examples")
	}
	if len(features) != len(labels) {
		return nil, fmt.Errorf("multiproxy: %d feature rows but %d labels", len(features), len(labels))
	}
	k := len(features[0])
	for i, row := range features {
		if len(row) != k {
			return nil, fmt.Errorf("multiproxy: row %d has %d features, want %d", i, len(row), k)
		}
	}
	if epochs <= 0 {
		epochs = 500
	}
	if lr <= 0 {
		lr = 0.5
	}

	m := &LogisticModel{Weights: make([]float64, k)}
	n := float64(len(features))
	gradW := make([]float64, k)
	for e := 0; e < epochs; e++ {
		for j := range gradW {
			gradW[j] = 0
		}
		gradB := 0.0
		for i, row := range features {
			p := m.Score(row)
			y := 0.0
			if labels[i] {
				y = 1
			}
			diff := p - y
			for j, v := range row {
				gradW[j] += diff * v
			}
			gradB += diff
		}
		for j := range m.Weights {
			m.Weights[j] -= lr * (gradW[j]/n + l2*m.Weights[j])
		}
		m.Bias -= lr * gradB / n
	}
	return m, nil
}

// Calibrate draws calibBudget uniform records, labels them with the
// budgeted oracle, and fits a logistic stacker over the proxy columns.
// The sample is labeled as one batch (one LabelAll: the same labels,
// budget charges and error as a Label loop, one durability commit).
func Calibrate(r *randx.Rand, columns [][]float64, o *oracle.Budgeted, calibBudget int) (*LogisticModel, error) {
	n, err := validateColumns(columns)
	if err != nil {
		return nil, err
	}
	if calibBudget < 10 {
		return nil, fmt.Errorf("multiproxy: calibration budget %d too small (need >= 10)", calibBudget)
	}
	idx := sampling.UniformWithoutReplacement(r, n, calibBudget)
	labels, err := o.LabelAll(idx)
	if err != nil {
		return nil, fmt.Errorf("multiproxy: calibration labeling: %w", err)
	}
	features := make([][]float64, len(idx))
	for k, i := range idx {
		row := make([]float64, len(columns))
		for j, c := range columns {
			row[j] = c[i]
		}
		features[k] = row
	}
	return FitLogistic(features, labels, 0, 0, 1e-4)
}

// Apply scores every record with the fitted stacker.
func (m *LogisticModel) Apply(columns [][]float64) ([]float64, error) {
	n, err := validateColumns(columns)
	if err != nil {
		return nil, err
	}
	if len(m.Weights) != len(columns) {
		return nil, fmt.Errorf("multiproxy: model has %d weights for %d columns", len(m.Weights), len(columns))
	}
	out := make([]float64, n)
	row := make([]float64, len(columns))
	for i := 0; i < n; i++ {
		for j, c := range columns {
			row[j] = c[i]
		}
		out[i] = m.Score(row)
	}
	return out, nil
}

// Fuser is a fusion provider: a pure transformer from K proxy-score
// columns to the one fused column the selection machinery consumes.
// The zero CalibrationBudget is invalid for Fuse with FuseLogistic;
// callers (the query planner, Select) resolve a concrete budget first
// so equal Fusers always produce equal columns.
type Fuser struct {
	// Kind selects the fusion strategy.
	Kind Fusion
	// CalibrationBudget caps the oracle labels spent fitting a
	// calibrated (logistic) stacker. Ignored by label-free kinds.
	CalibrationBudget int
}

// Fused is a Fuser's output: the fused column plus the metadata callers
// surface in query statistics.
type Fused struct {
	// Scores is the fused column, one score per record.
	Scores []float64
	// CalibrationCalls counts the budget-consuming oracle calls spent on
	// calibration (0 for label-free fusions).
	CalibrationCalls int
	// CalibrationStoreHits counts calibration labels served from the
	// oracle's attached cross-query label store instead of the inner
	// UDF (subset of CalibrationCalls in charged mode).
	CalibrationStoreHits int
	// Model is the fitted stacker for calibrated fusions (nil otherwise).
	Model *LogisticModel
}

// Fuse produces the fused column. Label-free kinds ignore r and o (nil
// is fine); FuseLogistic draws its calibration sample with r and labels
// it through o, consuming at most CalibrationBudget units of o's
// budget. The same (r, columns, labels) always yield the same column —
// fusion is deterministic, which is what lets engines cache its output.
func (f Fuser) Fuse(r *randx.Rand, columns [][]float64, o *oracle.Budgeted) (*Fused, error) {
	switch f.Kind {
	case FuseMean:
		scores, err := Mean(columns)
		if err != nil {
			return nil, err
		}
		return &Fused{Scores: scores}, nil
	case FuseMax:
		scores, err := Max(columns)
		if err != nil {
			return nil, err
		}
		return &Fused{Scores: scores}, nil
	case FuseLogistic:
		if o == nil {
			return nil, fmt.Errorf("multiproxy: logistic fusion needs a budgeted oracle")
		}
		before, beforeHits := o.Used(), o.StoreHits()
		model, err := Calibrate(r, columns, o, f.CalibrationBudget)
		if err != nil {
			return nil, err
		}
		scores, err := model.Apply(columns)
		if err != nil {
			return nil, err
		}
		return &Fused{
			Scores:               scores,
			CalibrationCalls:     o.Used() - before,
			CalibrationStoreHits: o.StoreHits() - beforeHits,
			Model:                model,
		}, nil
	}
	return nil, fmt.Errorf("multiproxy: unknown fusion %v", f.Kind)
}

// Result is a multi-proxy SUPG answer, extending core.Result with the
// fusion bookkeeping.
type Result struct {
	core.Result
	// Fusion is the strategy that produced the fused proxy.
	Fusion Fusion
	// CalibrationCalls counts oracle labels spent on fusion (included
	// in Result.OracleCalls).
	CalibrationCalls int
}

// DefaultCalibration resolves the library-path logistic calibration
// budget from a query's total oracle budget: 20% of it, at least 30
// calls, at most half.
func DefaultCalibration(budget int) int {
	calib := budget / 5
	if calib < 30 {
		calib = 30
	}
	if calib > budget/2 {
		calib = budget / 2
	}
	return calib
}

// Select answers a SUPG query over multiple proxy columns: fuse with f,
// then run core.SelectBudgeted on the fused scores over the budget
// wrapper calibration already spent, so every record calibration
// labeled positive joins R1 too. Calibration shares the query's own
// oracle budget (the engine path instead charges calibration to index
// construction and amortizes it across queries): a FuseLogistic Fuser
// with no CalibrationBudget reserves DefaultCalibration of the budget
// for the stacker, and the remainder drives threshold estimation; the
// spec's total budget is never exceeded.
func Select(r *randx.Rand, columns [][]float64, orc oracle.Oracle, spec core.Spec, cfg core.Config, f Fuser) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if _, err := validateColumns(columns); err != nil {
		return nil, err
	}

	if f.Kind == FuseLogistic && f.CalibrationBudget <= 0 {
		f.CalibrationBudget = DefaultCalibration(spec.Budget)
	}
	budgeted := oracle.NewBudgeted(orc, spec.Budget)
	fused, err := f.Fuse(r.Stream(1), columns, budgeted)
	if err != nil {
		return nil, err
	}

	subSpec := spec
	subSpec.Budget = spec.Budget - fused.CalibrationCalls
	src := core.NewRawSource(fused.Scores)
	sel, err := core.SelectBudgeted(r.Stream(2), src, budgeted, subSpec, cfg)
	if err != nil {
		return nil, err
	}
	sel.Indices = sel.Answer().List(src)
	return &Result{Result: sel, Fusion: f.Kind, CalibrationCalls: fused.CalibrationCalls}, nil
}
