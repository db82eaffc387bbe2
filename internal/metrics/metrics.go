// Package metrics evaluates SUPG query results against ground truth and
// aggregates repeated trials the way the paper's evaluation does:
// achieved precision/recall per trial, empirical failure rates against a
// target, and box-plot summaries for the Figure 1/5/6 style plots.
package metrics

import (
	"fmt"
	"strings"

	"supg/internal/dataset"
	"supg/internal/stats"
)

// Eval holds the quality of one returned set against ground truth.
type Eval struct {
	Precision float64
	Recall    float64
	F1        float64
	Returned  int
	TruePos   int
}

// Evaluate computes precision and recall of the returned indices against
// the dataset's ground-truth labels. An empty result has precision 1
// (vacuously correct) and recall 0 (unless there are no positives, in
// which case recall is 1).
func Evaluate(d *dataset.Dataset, indices []int) Eval {
	tp := 0
	for _, i := range indices {
		if d.TrueLabel(i) {
			tp++
		}
	}
	return FromCounts(len(indices), tp, d.PositiveCount())
}

// FromCounts is Evaluate's formula over counts alone: returned records,
// truePos of them positives, in a dataset of totalPos positives. A
// caller that counts a returned set's true positives without listing
// it gets the same bits as Evaluate over the list.
func FromCounts(returned, truePos, totalPos int) Eval {
	e := Eval{Returned: returned, TruePos: truePos}
	if returned == 0 {
		e.Precision = 1
	} else {
		e.Precision = float64(truePos) / float64(returned)
	}
	if totalPos == 0 {
		e.Recall = 1
	} else {
		e.Recall = float64(truePos) / float64(totalPos)
	}
	if e.Precision+e.Recall > 0 {
		e.F1 = 2 * e.Precision * e.Recall / (e.Precision + e.Recall)
	}
	return e
}

// TrialSet aggregates the evaluations of repeated independent runs.
type TrialSet struct {
	Precisions []float64
	Recalls    []float64
	Oracle     []float64
}

// Add records one trial's evaluation.
func (t *TrialSet) Add(e Eval, oracleCalls int) {
	t.Precisions = append(t.Precisions, e.Precision)
	t.Recalls = append(t.Recalls, e.Recall)
	t.Oracle = append(t.Oracle, float64(oracleCalls))
}

// N returns the number of trials recorded.
func (t *TrialSet) N() int { return len(t.Precisions) }

// FailureRate returns the fraction of trials whose target metric fell
// strictly below target.
func (t *TrialSet) FailureRate(kind TargetMetric, target float64) float64 {
	return stats.FractionBelow(t.metric(kind), target)
}

// MeanMetric returns the mean of the chosen metric across trials.
func (t *TrialSet) MeanMetric(kind TargetMetric) float64 {
	return stats.Mean(t.metric(kind))
}

// Box returns box-plot statistics of the chosen metric.
func (t *TrialSet) Box(kind TargetMetric) stats.BoxStats {
	return stats.NewBoxStats(t.metric(kind))
}

func (t *TrialSet) metric(kind TargetMetric) []float64 {
	switch kind {
	case MetricPrecision:
		return t.Precisions
	case MetricRecall:
		return t.Recalls
	}
	panic(fmt.Sprintf("metrics: unknown metric %d", int(kind)))
}

// TargetMetric names the metric a trial set is judged on.
type TargetMetric int

const (
	// MetricPrecision judges trials on achieved precision.
	MetricPrecision TargetMetric = iota
	// MetricRecall judges trials on achieved recall.
	MetricRecall
)

// String implements fmt.Stringer.
func (m TargetMetric) String() string {
	if m == MetricPrecision {
		return "precision"
	}
	return "recall"
}

// FormatBox renders box statistics as a compact single-line summary,
// values scaled to percent.
func FormatBox(b stats.BoxStats) string {
	return fmt.Sprintf("min=%5.1f%% q1=%5.1f%% med=%5.1f%% q3=%5.1f%% max=%5.1f%%",
		100*b.Min, 100*b.Q1, 100*b.Median, 100*b.Q3, 100*b.Max)
}

// Table is a minimal aligned ASCII table builder used for experiment
// reports.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}
