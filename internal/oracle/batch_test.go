package oracle

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"supg/internal/dataset"
	"supg/internal/metrics"
	"supg/internal/randx"
)

func largeDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	r := randx.New(7)
	return dataset.Beta(r, 2000, 0.05, 2)
}

// TestSimulatedConcurrentAccounting is the -race regression test for
// the Simulated oracle: concurrent Label calls (as issued by the
// Dispatcher) must not race on the call accounting.
func TestSimulatedConcurrentAccounting(t *testing.T) {
	d := largeDataset(t)
	o := NewSimulated(d)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := o.Label((w*perWorker + i) % d.Len()); err != nil {
					t.Errorf("Label: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if o.Calls() != workers*perWorker {
		t.Errorf("Calls = %d, want %d", o.Calls(), workers*perWorker)
	}
}

func TestDispatcherMatchesSequential(t *testing.T) {
	d := largeDataset(t)
	idx := make([]int, 500)
	r := randx.New(3)
	for i := range idx {
		idx[i] = r.IntN(d.Len())
	}

	want := make([]bool, len(idx))
	for i, j := range idx {
		want[i] = d.TrueLabel(j)
	}

	for _, p := range []int{1, 2, 8, 64} {
		disp := NewDispatcher(NewSimulated(d), p)
		got, err := disp.LabelBatch(context.Background(), idx)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: label[%d] = %v, want %v", p, i, got[i], want[i])
			}
		}
	}
}

func TestDispatcherCountsBatches(t *testing.T) {
	d := largeDataset(t)
	var c metrics.Counters
	disp := NewDispatcher(NewSimulated(d), 4).WithCounters(&c)
	if _, err := disp.LabelBatch(context.Background(), []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := disp.LabelBatch(context.Background(), []int{4}); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap.DispatchBatches != 2 || snap.DispatchCalls != 4 {
		t.Errorf("counters = %+v, want 2 batches / 4 calls", snap)
	}
}

func TestDispatcherPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	inner := Func(func(i int) (bool, error) {
		if i == 13 {
			return false, boom
		}
		return true, nil
	})
	idx := make([]int, 100)
	for i := range idx {
		idx[i] = i
	}
	disp := NewDispatcher(inner, 8)
	if _, err := disp.LabelBatch(context.Background(), idx); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestDispatcherCancellation(t *testing.T) {
	var calls sync.Map
	slow := Func(func(i int) (bool, error) {
		calls.Store(i, true)
		time.Sleep(2 * time.Millisecond)
		return true, nil
	})
	idx := make([]int, 1000)
	for i := range idx {
		idx[i] = i
	}
	ctx, cancel := context.WithCancel(context.Background())
	disp := NewDispatcher(slow, 4)
	done := make(chan error, 1)
	go func() {
		_, err := disp.LabelBatch(ctx, idx)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	n := 0
	calls.Range(func(_, _ any) bool { n++; return true })
	if n == 0 || n >= len(idx) {
		t.Errorf("cancellation did not stop mid-batch: %d of %d calls made", n, len(idx))
	}
}

func TestBudgetedLabelAllMatchesSequential(t *testing.T) {
	d := largeDataset(t)
	idx := make([]int, 300)
	r := randx.New(11)
	for i := range idx {
		idx[i] = r.IntN(50) // force repeats so memoization paths differ
	}

	seq := NewBudgeted(NewSimulated(d), 300)
	want := make([]bool, len(idx))
	for i, j := range idx {
		v, err := seq.Label(j)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	batchInner := NewSimulated(d)
	bat := NewBudgeted(NewDispatcher(batchInner, 8), 300)
	got, err := bat.LabelAll(idx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("label[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if bat.Used() != seq.Used() {
		t.Errorf("batch used %d, sequential used %d", bat.Used(), seq.Used())
	}
	if batchInner.Calls() != bat.Used() {
		t.Errorf("inner called %d times for %d budget units", batchInner.Calls(), bat.Used())
	}
}

func TestBudgetedLabelAllExhaustionMatchesSequential(t *testing.T) {
	d := largeDataset(t)
	idx := []int{0, 1, 2, 3, 4, 5}

	// Sequential reference: budget 4 labels records 0..3, then fails on
	// 4 having consumed the full budget.
	seq := NewBudgeted(NewSimulated(d), 4)
	var seqErr error
	for _, j := range idx {
		if _, err := seq.Label(j); err != nil {
			seqErr = err
			break
		}
	}
	if !errors.Is(seqErr, ErrBudgetExhausted) {
		t.Fatalf("sequential reference did not exhaust: %v", seqErr)
	}

	inner := NewSimulated(d)
	bat := NewBudgeted(NewDispatcher(inner, 3), 4)
	_, err := bat.LabelAll(idx)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("LabelAll err = %v, want ErrBudgetExhausted", err)
	}
	if bat.Used() != seq.Used() {
		t.Errorf("batch used %d, sequential used %d", bat.Used(), seq.Used())
	}
	if inner.Calls() != 4 {
		t.Errorf("inner called %d times, want 4 (in-budget prefix)", inner.Calls())
	}
	// The in-budget prefix must be cached: re-labeling it is free.
	for _, j := range idx[:4] {
		if _, err := bat.Label(j); err != nil {
			t.Errorf("prefix record %d not cached: %v", j, err)
		}
	}
}

// TestLabelAllSequentialErrorKeepsPrefixState verifies the non-batch
// fallback matches the sequential loop on the error path too: labels
// fetched before an inner error stay cached and budget-counted.
func TestLabelAllSequentialErrorKeepsPrefixState(t *testing.T) {
	flaky := Func(func(i int) (bool, error) {
		if i == 3 {
			return false, errors.New("transient")
		}
		return true, nil
	})
	b := NewBudgeted(flaky, 10)
	if _, err := b.LabelAll([]int{0, 1, 2, 3, 4}); err == nil {
		t.Fatal("want inner error")
	}
	if b.Used() != 3 {
		t.Errorf("used = %d, want 3 (successful prefix)", b.Used())
	}
	for _, j := range []int{0, 1, 2} {
		if v, err := b.Label(j); err != nil || !v {
			t.Errorf("prefix record %d not cached: %v, %v", j, v, err)
		}
	}
	if b.Used() != 3 {
		t.Errorf("re-reading cached prefix consumed budget: used = %d", b.Used())
	}
}

func TestBudgetedContextCancellation(t *testing.T) {
	d := largeDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	b := NewBudgeted(NewSimulated(d), 100).WithContext(ctx)
	if _, err := b.Label(0); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := b.Label(1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Label after cancel = %v, want context.Canceled", err)
	}
	// Cached hits are still served after cancellation — no oracle call
	// is involved; only fresh labeling is cut off.
	if v, err := b.Label(0); err != nil || v != d.TrueLabel(0) {
		t.Fatalf("cached Label after cancel = %v, %v", v, err)
	}
	if _, err := b.LabelAll([]int{2, 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("LabelAll after cancel = %v, want context.Canceled", err)
	}
}

func TestDispatcherLabelDelegates(t *testing.T) {
	disp := NewDispatcher(Func(func(i int) (bool, error) {
		if i < 0 {
			return false, fmt.Errorf("bad index")
		}
		return i%2 == 0, nil
	}), 4)
	if v, err := disp.Label(2); err != nil || !v {
		t.Fatalf("Label(2) = %v, %v", v, err)
	}
	if disp.parallelism != 4 {
		t.Errorf("parallelism = %d", disp.parallelism)
	}
}
