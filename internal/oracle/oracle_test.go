package oracle

import (
	"errors"
	"slices"
	"testing"

	"supg/internal/dataset"
)

func testDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.MustNew("t",
		[]float64{0.1, 0.9, 0.5, 0.7},
		[]bool{false, true, false, true})
}

func TestSimulatedLabels(t *testing.T) {
	o := NewSimulated(testDataset(t))
	got, err := o.Label(1)
	if err != nil || !got {
		t.Fatalf("Label(1) = %v, %v", got, err)
	}
	got, err = o.Label(0)
	if err != nil || got {
		t.Fatalf("Label(0) = %v, %v", got, err)
	}
}

func TestSimulatedCounting(t *testing.T) {
	o := NewSimulated(testDataset(t))
	o.Label(0)
	o.Label(0)
	o.Label(1)
	if o.Calls() != 3 {
		t.Errorf("Calls = %d, want 3", o.Calls())
	}
}

func TestSimulatedOutOfRange(t *testing.T) {
	o := NewSimulated(testDataset(t))
	if _, err := o.Label(-1); err == nil {
		t.Error("negative index should error")
	}
	if _, err := o.Label(4); err == nil {
		t.Error("index past end should error")
	}
}

func TestBudgetedEnforcesLimit(t *testing.T) {
	o := NewBudgeted(NewSimulated(testDataset(t)), 2)
	if _, err := o.Label(0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Label(1); err != nil {
		t.Fatal(err)
	}
	_, err := o.Label(2)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("expected ErrBudgetExhausted, got %v", err)
	}
	if o.Used() != 2 || o.Budget() != 2 {
		t.Errorf("accounting wrong: used=%d budget=%d", o.Used(), o.Budget())
	}
}

func TestBudgetedMemoization(t *testing.T) {
	inner := NewSimulated(testDataset(t))
	o := NewBudgeted(inner, 2)
	o.Label(1)
	// Re-labeling a cached record is free and works past exhaustion.
	o.Label(0)
	if got, err := o.Label(1); err != nil || !got {
		t.Fatalf("cached label failed: %v %v", got, err)
	}
	if o.Used() != 2 {
		t.Errorf("cached call consumed budget: used=%d", o.Used())
	}
	if inner.Calls() != 2 {
		t.Errorf("inner oracle called %d times, want 2", inner.Calls())
	}
}

func TestBudgetedLabeled(t *testing.T) {
	o := NewBudgeted(NewSimulated(testDataset(t)), 4)
	o.Label(0)
	o.Label(1)
	o.Label(3)
	// The positives follow dst's existing entries, ascending.
	if pos := o.AppendLabeledPositives([]int{7}); !slices.Equal(pos, []int{7, 1, 3}) {
		t.Errorf("AppendLabeledPositives = %v, want [7 1 3]", pos)
	}
}

func TestBudgetedPropagatesErrors(t *testing.T) {
	fails := Func(func(i int) (bool, error) { return false, errors.New("boom") })
	o := NewBudgeted(fails, 5)
	if _, err := o.Label(0); err == nil {
		t.Error("inner error should propagate")
	}
	if o.Used() != 0 {
		t.Error("failed call must not consume budget")
	}
}

func TestFuncAdapter(t *testing.T) {
	f := Func(func(i int) (bool, error) { return i%2 == 1, nil })
	got, err := f.Label(3)
	if err != nil || !got {
		t.Fatal("Func adapter broken")
	}
}
