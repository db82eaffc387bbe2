package oracle

import (
	"context"
	"errors"
	"sync"
	"testing"

	"supg/internal/labelstore"
)

// storeFor returns a fresh labelstore cache — the real LabelCache
// implementation the engine wires in.
func storeFor(t *testing.T) LabelCache {
	t.Helper()
	s, err := labelstore.Open(labelstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s.Cache("t", "o")
}

// TestChargedStoreHitsPreserveBudgetTrace is the oracle-level half of
// the charged-mode guarantee: a warm Budgeted consumes budget units
// and exhausts at exactly the same points as a cold one, while the
// inner oracle is never called for stored labels.
func TestChargedStoreHitsPreserveBudgetTrace(t *testing.T) {
	store := storeFor(t)
	idx := []int{4, 2, 4, 9, 2} // three distinct records with repeats

	labelOf := func(i int) bool { return i%2 == 0 }
	calls := 0
	inner := Func(func(i int) (bool, error) { calls++; return labelOf(i), nil })

	cold := NewBudgeted(inner, 3).WithStore(store, false)
	coldLabels, coldErr := cold.LabelAll(idx)
	if coldErr != nil {
		t.Fatalf("cold LabelAll: %v", coldErr)
	}
	if calls != 3 || cold.Used() != 3 {
		t.Fatalf("cold run: calls %d used %d, want 3/3", calls, cold.Used())
	}
	if cold.StoreHits() != 0 {
		t.Fatalf("cold run reported %d store hits", cold.StoreHits())
	}

	// Warm run: identical labels, identical budget consumption, zero
	// inner calls.
	calls = 0
	warm := NewBudgeted(inner, 3).WithStore(store, false)
	warmLabels, warmErr := warm.LabelAll(idx)
	if warmErr != nil {
		t.Fatalf("warm LabelAll: %v", warmErr)
	}
	if calls != 0 {
		t.Errorf("warm run made %d inner calls, want 0", calls)
	}
	if warm.Used() != cold.Used() {
		t.Errorf("warm used %d, cold used %d", warm.Used(), cold.Used())
	}
	if warm.StoreHits() != 3 {
		t.Errorf("warm StoreHits = %d, want 3", warm.StoreHits())
	}
	for i := range coldLabels {
		if coldLabels[i] != warmLabels[i] {
			t.Fatalf("label[%d] diverged: cold %v warm %v", i, coldLabels[i], warmLabels[i])
		}
	}

	// Exhaustion point must match a storeless run too: budget 2 over 3
	// distinct fresh records exhausts whether labels come from the
	// store or the oracle.
	storeless := NewBudgeted(inner, 2)
	_, slErr := storeless.LabelAll(idx)
	warm2 := NewBudgeted(inner, 2).WithStore(store, false)
	_, w2Err := warm2.LabelAll(idx)
	if !errors.Is(slErr, ErrBudgetExhausted) || !errors.Is(w2Err, ErrBudgetExhausted) {
		t.Fatalf("exhaustion diverged: storeless %v warm %v", slErr, w2Err)
	}
	if warm2.Used() != storeless.Used() {
		t.Errorf("exhausted warm used %d, storeless used %d", warm2.Used(), storeless.Used())
	}
}

func TestFreeReuseStretchesBudget(t *testing.T) {
	store := storeFor(t)
	inner := Func(func(i int) (bool, error) { return true, nil })

	// Seed the store with records 0 and 1.
	seed := NewBudgeted(inner, 10).WithStore(store, false)
	if _, err := seed.LabelAll([]int{0, 1}); err != nil {
		t.Fatal(err)
	}

	// Budget 2 in free mode: records 0 and 1 are free store hits, so 2
	// and 3 still fit in budget.
	free := NewBudgeted(inner, 2).WithStore(store, true)
	labels, err := free.LabelAll([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatalf("free-reuse LabelAll: %v", err)
	}
	if len(labels) != 4 {
		t.Fatalf("labels = %d entries, want 4", len(labels))
	}
	if free.Used() != 2 {
		t.Errorf("free-reuse used %d budget units, want 2 (hits are free)", free.Used())
	}
	if free.StoreHits() != 2 {
		t.Errorf("StoreHits = %d, want 2", free.StoreHits())
	}

	// The same request in charged mode exhausts: 4 fresh records, 2
	// units.
	charged := NewBudgeted(inner, 2).WithStore(store, false)
	if _, err := charged.LabelAll([]int{0, 1, 2, 3}); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("charged mode err = %v, want ErrBudgetExhausted", err)
	}

	// Per-call path (Label) honors free reuse past exhaustion as well.
	spent := NewBudgeted(inner, 1).WithStore(store, true)
	if _, err := spent.Label(5); err != nil { // consumes the only unit
		t.Fatal(err)
	}
	if v, err := spent.Label(0); err != nil || !v {
		t.Errorf("free store hit after exhaustion = %v, %v; want true, nil", v, err)
	}
	if _, err := spent.Label(6); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("fresh record after exhaustion err = %v", err)
	}
}

func TestChargeHookKeepsProgressEqualToUsed(t *testing.T) {
	store := storeFor(t)
	realCalls := 0
	inner := Func(func(i int) (bool, error) { realCalls++; return false, nil })

	seed := NewBudgeted(inner, 10).WithStore(store, false)
	if _, err := seed.LabelAll([]int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}

	// Warm run labeling a mix of stored and fresh records: the hook
	// must account for exactly the store hits, so hook + real calls ==
	// Used.
	hooked := 0
	warm := NewBudgeted(inner, 10).WithStore(store, false).
		WithChargeHook(func(n int) { hooked += n })
	realCalls = 0
	if _, err := warm.LabelAll([]int{0, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if hooked != 3 {
		t.Errorf("charge hook saw %d units, want 3 store hits", hooked)
	}
	if hooked+realCalls != warm.Used() {
		t.Errorf("hook %d + real %d != used %d", hooked, realCalls, warm.Used())
	}

	// Free mode: hits are not budget-consuming, so the hook stays
	// silent and Used covers only real calls.
	hooked, realCalls = 0, 0
	free := NewBudgeted(inner, 10).WithStore(store, true).
		WithChargeHook(func(n int) { hooked += n })
	if _, err := free.LabelAll([]int{0, 1, 2, 5}); err != nil {
		t.Fatal(err)
	}
	if hooked != 0 {
		t.Errorf("free mode charge hook saw %d units, want 0", hooked)
	}
	if realCalls != free.Used() {
		t.Errorf("free mode: real %d != used %d", realCalls, free.Used())
	}
}

// TestDispatcherPartialPrefixOnError is the regression test for the
// batch error path: the dispatcher returns the successfully-labeled
// prefix so already-fetched (and charged-for) labels are not thrown
// away.
func TestDispatcherPartialPrefixOnError(t *testing.T) {
	boom := errors.New("backend down")
	var mu sync.Mutex
	calls := 0
	flaky := Func(func(i int) (bool, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		if i >= 5 {
			return false, boom
		}
		return true, nil
	})
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}

	for _, p := range []int{1, 3} {
		mu.Lock()
		calls = 0
		mu.Unlock()
		disp := NewDispatcher(flaky, p)
		labels, err := disp.LabelBatch(context.Background(), idx)
		if !errors.Is(err, boom) {
			t.Fatalf("parallelism %d: err = %v, want boom", p, err)
		}
		if len(labels) > 5 {
			t.Fatalf("parallelism %d: prefix %d includes the failed record", p, len(labels))
		}
		for i, v := range labels {
			if !v {
				t.Fatalf("parallelism %d: prefix label[%d] = false, want true", p, i)
			}
		}
		if p == 1 && len(labels) != 5 {
			t.Errorf("sequential dispatch kept %d labels, want the full prefix 5", len(labels))
		}
	}
}

// TestFetchAllFoldsBatchPrefix pins the Budgeted side of the fix: the
// prefix a failing batch did label is cached, budget-counted, and
// written through to the store — matching the sequential path's kept
// prefix instead of discarding the whole batch.
func TestFetchAllFoldsBatchPrefix(t *testing.T) {
	boom := errors.New("backend down")
	flaky := Func(func(i int) (bool, error) {
		if i == 3 {
			return false, boom
		}
		return true, nil
	})
	store := storeFor(t)
	b := NewBudgeted(NewDispatcher(flaky, 1), 10).WithStore(store, false)
	if _, err := b.LabelAll([]int{0, 1, 2, 3, 4}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if b.Used() != 3 {
		t.Errorf("used = %d, want 3 (kept prefix is charged)", b.Used())
	}
	// The prefix is memoized: re-labeling is free.
	for _, j := range []int{0, 1, 2} {
		if v, err := b.Label(j); err != nil || !v {
			t.Errorf("prefix record %d not cached: %v, %v", j, v, err)
		}
	}
	if b.Used() != 3 {
		t.Errorf("re-reading the prefix consumed budget: used = %d", b.Used())
	}
	// And written through to the shared store: a fresh Budgeted can
	// reuse it without touching the oracle.
	fresh := NewBudgeted(Func(func(i int) (bool, error) {
		t.Errorf("inner oracle called for stored record %d", i)
		return false, nil
	}), 10).WithStore(store, false)
	for _, j := range []int{0, 1, 2} {
		if v, err := fresh.Label(j); err != nil || !v {
			t.Errorf("store lost prefix record %d: %v, %v", j, v, err)
		}
	}
}

// TestNestedBudgetedPropagatesPrefix: a Budgeted used as the inner
// BatchOracle of another Budgeted (the joint-query stacking) must
// surface its memoized prefix on error, so the outer wrapper's cache
// and budget keep the labels the inner one already charged for.
func TestNestedBudgetedPropagatesPrefix(t *testing.T) {
	boom := errors.New("backend down")
	flaky := Func(func(i int) (bool, error) {
		if i == 3 {
			return false, boom
		}
		return true, nil
	})
	inner := NewBudgeted(flaky, 100)
	outer := NewBudgeted(inner, 10)
	if _, err := outer.LabelAll([]int{0, 1, 2, 3, 4}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if inner.Used() != 3 {
		t.Errorf("inner used = %d, want 3", inner.Used())
	}
	if outer.Used() != 3 {
		t.Errorf("outer used = %d, want 3 (prefix propagated up)", outer.Used())
	}
	for _, j := range []int{0, 1, 2} {
		if v, err := outer.Label(j); err != nil || !v {
			t.Errorf("outer lost prefix record %d: %v, %v", j, v, err)
		}
	}
	if outer.Used() != 3 {
		t.Errorf("outer re-read charged budget: used = %d", outer.Used())
	}
}

// TestFetchAllFoldsParallelBatchPrefix is the same regression through
// the concurrent dispatcher: whatever contiguous prefix the workers
// completed before the failure must survive into cache and budget.
func TestFetchAllFoldsParallelBatchPrefix(t *testing.T) {
	boom := errors.New("backend down")
	flaky := Func(func(i int) (bool, error) {
		if i == 40 {
			return false, boom
		}
		return true, nil
	})
	idx := make([]int, 64)
	for i := range idx {
		idx[i] = i
	}
	b := NewBudgeted(NewDispatcher(flaky, 8), 100)
	_, err := b.LabelAll(idx)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if b.Used() > 40 {
		t.Errorf("used = %d, exceeds the failing position", b.Used())
	}
	// Every budget unit spent corresponds to a cached label — nothing
	// was paid for and thrown away.
	cached := len(b.cache)
	if cached != b.Used() {
		t.Errorf("cached %d labels but charged %d units", cached, b.Used())
	}
}

// committingStore is a LabelCache with a durability point that counts
// its commits.
type committingStore struct {
	LabelCache
	commits int
}

func (s *committingStore) Commit() { s.commits++ }

// TestBudgetedCommitsStoreOncePerBatch pins when Budgeted commits a
// committing store: once at the end of every LabelAll, on the error
// and cancellation paths too, and after every Label that consulted the
// store, so no caller ever holds a label that is not yet durable.
func TestBudgetedCommitsStoreOncePerBatch(t *testing.T) {
	boom := errors.New("backend down")
	inner := Func(func(i int) (bool, error) {
		if i == 99 {
			return false, boom
		}
		return i%2 == 0, nil
	})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		run  func(b *Budgeted) error
	}{
		{"fresh batch", func(b *Budgeted) error { _, err := b.LabelAll([]int{1, 2, 3}); return err }},
		{"inner error", func(b *Budgeted) error { _, err := b.LabelAll([]int{1, 99, 3}); return err }},
		{"budget exhausted", func(b *Budgeted) error { _, err := b.LabelAll([]int{1, 2, 3, 4, 5, 6}); return err }},
		{"cancelled", func(b *Budgeted) error { _, err := b.WithContext(cancelled).LabelAll([]int{1}); return err }},
		{"store hits only", func(b *Budgeted) error {
			b.store.Put(7, false)
			_, err := b.LabelAll([]int{7})
			return err
		}},
		{"label fresh", func(b *Budgeted) error { _, err := b.Label(1); return err }},
		{"label store hit", func(b *Budgeted) error {
			b.store.Put(7, false)
			_, err := b.Label(7)
			return err
		}},
		{"nested stage budget", func(b *Budgeted) error {
			_, err := NewBudgeted(b, 5).LabelAll([]int{1, 2, 3})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := &committingStore{LabelCache: storeFor(t)}
			b := NewBudgeted(inner, 5).WithStore(store, false)
			tc.run(b)
			if store.commits != 1 {
				t.Fatalf("%d commits, want 1", store.commits)
			}
		})
	}

	// A memo hit never reaches the store, so it does not commit.
	store := &committingStore{LabelCache: storeFor(t)}
	b := NewBudgeted(inner, 5).WithStore(store, false)
	if _, err := b.Label(1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Label(1); err != nil {
		t.Fatal(err)
	}
	if store.commits != 1 {
		t.Fatalf("memo hit committed: %d commits, want 1", store.commits)
	}
}
