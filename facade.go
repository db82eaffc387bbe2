package supg

import (
	"io"

	"supg/internal/dataset"
	"supg/internal/engine"
	"supg/internal/labelstore"
	"supg/internal/metrics"
	"supg/internal/multiproxy"
	"supg/internal/oracle"
	"supg/internal/randx"
)

// This file re-exports the data and engine substrates so downstream
// users can work entirely through the supg package.

// Dataset is an immutable record collection with proxy scores and
// hidden ground-truth labels (used for simulation and evaluation).
type Dataset = dataset.Dataset

// NewDataset builds a dataset from parallel score/label columns.
func NewDataset(name string, scores []float64, labels []bool) (*Dataset, error) {
	return dataset.New(name, scores, labels)
}

// ReadDatasetCSV loads a dataset from the id,proxy_score,label CSV
// interchange format.
func ReadDatasetCSV(r io.Reader, name string) (*Dataset, error) {
	return dataset.ReadCSV(r, name)
}

// WriteDatasetCSV stores a dataset in the CSV interchange format.
func WriteDatasetCSV(w io.Writer, d *Dataset) error {
	return dataset.WriteCSV(w, d)
}

// GenerateBeta creates the paper's synthetic benchmark: proxy scores
// from Beta(alpha, beta) with labels drawn as Bernoulli(score), i.e. a
// perfectly calibrated proxy. seed makes generation deterministic.
func GenerateBeta(seed uint64, n int, alpha, beta float64) *Dataset {
	return dataset.Beta(randx.New(seed), n, alpha, beta)
}

// SimulatedOracle returns an oracle revealing d's ground-truth labels,
// standing in for a human labeler in simulations.
func SimulatedOracle(d *Dataset) Oracle { return oracle.NewSimulated(d) }

// Evaluation is the quality of a returned set against ground truth.
type Evaluation = metrics.Eval

// Evaluate computes precision/recall of result indices against d's
// ground-truth labels.
func Evaluate(d *Dataset, indices []int) Evaluation {
	return metrics.Evaluate(d, indices)
}

// Engine executes the paper's SQL dialect (Figure 3 / Figure 14)
// against registered tables and UDFs.
type Engine = engine.Engine

// QueryResult is the engine-level answer with execution statistics.
type QueryResult = engine.QueryResult

// EngineOptions tune engine construction: score-index segmentation and
// the cross-query oracle label store bounds. The zero value selects
// every default.
type EngineOptions = engine.Options

// OpenEngine returns an empty engine seeded for deterministic queries.
// It fails only when opts asks for durable state (a label WAL or a
// persist directory) that cannot be opened. Close the engine when done
// to flush that state.
func OpenEngine(seed uint64, opts EngineOptions) (*Engine, error) {
	return engine.Open(seed, opts)
}

// ExecOptions tune one engine query execution (oracle parallelism,
// progress reporting, label-reuse charging mode, and whether the
// answer is listed into QueryResult.Indices).
type ExecOptions = engine.ExecOptions

// LabelStoreStats is a snapshot of the engine's cross-query oracle
// label store activity (hits, misses, evictions, invalidations); see
// Engine.LabelStore.
type LabelStoreStats = labelstore.Stats

// Fusion selects how multiple proxy columns are combined by RunMulti.
type Fusion = multiproxy.Fusion

// Fusion strategies for RunMulti.
const (
	// FuseMean averages the proxy columns (label-free).
	FuseMean = multiproxy.FuseMean
	// FuseMax takes the per-record maximum (label-free).
	FuseMax = multiproxy.FuseMax
	// FuseLogistic fits a logistic stacker on an oracle-labeled
	// calibration sample, charged against the query budget.
	FuseLogistic = multiproxy.FuseLogistic
)

// MultiResult is RunMulti's answer.
type MultiResult = multiproxy.Result

// Fuser is the fusion provider RunMulti and the SQL engine share: a
// pure transformer from K proxy columns to one fused column plus
// calibration metadata (see the multiproxy package).
type Fuser = multiproxy.Fuser

// RunMulti answers a SUPG query over several proxy-score columns — the
// multiple-proxy extension sketched in the paper's Section 8. Columns
// are fused into one score per record (optionally calibrated with
// oracle labels, within the budget) and the standard guarantees then
// apply to the fused query. It is a thin shim over multiproxy.Select;
// the SQL engine composes the same Fuser provider into its cached
// per-table indexes (see the FUSE clause in the query grammar).
func RunMulti(columns [][]float64, o Oracle, q Query, fusion Fusion, opts ...Option) (*MultiResult, error) {
	rc := buildConfig(opts)
	f := Fuser{Kind: fusion, CalibrationBudget: rc.calib}
	return multiproxy.Select(randx.New(rc.seed), columns, o, coreSpec(q), rc.cfg, f)
}
