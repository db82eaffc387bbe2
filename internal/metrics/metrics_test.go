package metrics

import (
	"math"
	"strings"
	"testing"

	"supg/internal/dataset"
)

func evalDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	// positives at indices 1, 3, 4.
	return dataset.MustNew("m",
		[]float64{0.1, 0.9, 0.2, 0.8, 0.7},
		[]bool{false, true, false, true, true})
}

func TestEvaluateBasic(t *testing.T) {
	d := evalDataset(t)
	e := Evaluate(d, []int{1, 3, 0}) // 2 of 3 returned are true; 2 of 3 positives found
	if math.Abs(e.Precision-2.0/3) > 1e-12 {
		t.Errorf("precision %v", e.Precision)
	}
	if math.Abs(e.Recall-2.0/3) > 1e-12 {
		t.Errorf("recall %v", e.Recall)
	}
	if e.Returned != 3 || e.TruePos != 2 {
		t.Errorf("counts %+v", e)
	}
	if e.F1 <= 0 || e.F1 > 1 {
		t.Errorf("F1 %v", e.F1)
	}
}

func TestEvaluateEmptyResult(t *testing.T) {
	d := evalDataset(t)
	e := Evaluate(d, nil)
	if e.Precision != 1 {
		t.Errorf("empty result precision %v, want vacuous 1", e.Precision)
	}
	if e.Recall != 0 {
		t.Errorf("empty result recall %v", e.Recall)
	}
}

func TestEvaluateNoPositivesInData(t *testing.T) {
	d := dataset.MustNew("none", []float64{0.5, 0.6}, []bool{false, false})
	e := Evaluate(d, []int{0})
	if e.Recall != 1 {
		t.Errorf("recall with no positives should be 1, got %v", e.Recall)
	}
	if e.Precision != 0 {
		t.Errorf("precision %v", e.Precision)
	}
}

func TestEvaluatePerfect(t *testing.T) {
	d := evalDataset(t)
	e := Evaluate(d, []int{1, 3, 4})
	if e.Precision != 1 || e.Recall != 1 || e.F1 != 1 {
		t.Errorf("perfect result scored %+v", e)
	}
}

func TestTrialSet(t *testing.T) {
	var ts TrialSet
	ts.Add(Eval{Precision: 0.95, Recall: 0.5, Returned: 10}, 100)
	ts.Add(Eval{Precision: 0.85, Recall: 0.7, Returned: 30}, 200)
	ts.Add(Eval{Precision: 0.80, Recall: 0.9, Returned: 20}, 300)
	if ts.N() != 3 {
		t.Fatalf("N = %d", ts.N())
	}
	if got := ts.FailureRate(MetricPrecision, 0.9); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("failure rate %v", got)
	}
	if got := ts.MeanMetric(MetricRecall); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("mean recall %v", got)
	}
	box := ts.Box(MetricPrecision)
	if box.Median != 0.85 {
		t.Errorf("median %v", box.Median)
	}
}

func TestTargetMetricString(t *testing.T) {
	if MetricPrecision.String() != "precision" || MetricRecall.String() != "recall" {
		t.Error("metric strings")
	}
}

func TestFormatBox(t *testing.T) {
	s := FormatBox(ts(0.5, 0.6, 0.7).Box(MetricPrecision))
	if !strings.Contains(s, "med=") || !strings.Contains(s, "%") {
		t.Errorf("FormatBox output %q", s)
	}
}

func ts(ps ...float64) *TrialSet {
	var t TrialSet
	for _, p := range ps {
		t.Add(Eval{Precision: p}, 0)
	}
	return &t
}

func TestTableRendering(t *testing.T) {
	tab := Table{Header: []string{"col", "value"}}
	tab.AddRow("short", "1")
	tab.AddRow("a-much-longer-cell", "2")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("missing separator: %q", lines[1])
	}
	// Aligned: the second column should start at the same offset.
	idx1 := strings.Index(lines[2], "1")
	idx2 := strings.Index(lines[3], "2")
	if idx1 != idx2 {
		t.Errorf("columns misaligned: %d vs %d\n%s", idx1, idx2, out)
	}
}
