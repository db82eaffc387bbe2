package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"supg/internal/dataset"
	"supg/internal/randx"
)

const ctxTestSQL = `SELECT * FROM beta WHERE beta_oracle(x) = true ` +
	`ORACLE LIMIT 300 USING beta_proxy(x) RECALL TARGET 90% WITH PROBABILITY 95%`

func newCtxTestEngine(t *testing.T, seed uint64) (*Engine, *dataset.Dataset) {
	t.Helper()
	d := dataset.Beta(randx.New(3), 20_000, 0.02, 2)
	e := openEngine(t, seed, Options{})
	e.RegisterDatasetDefaults("beta", d)
	return e, d
}

func TestExecuteContextMatchesSequential(t *testing.T) {
	seq, _ := newCtxTestEngine(t, 1)
	want, err := execute(seq, ctxTestSQL)
	if err != nil {
		t.Fatal(err)
	}

	par, _ := newCtxTestEngine(t, 1)
	got, err := par.ExecuteContext(context.Background(), ctxTestSQL, ExecOptions{
		OracleParallelism: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Tau != want.Tau || got.OracleCalls != want.OracleCalls {
		t.Errorf("parallel tau/calls = %v/%d, want %v/%d", got.Tau, got.OracleCalls, want.Tau, want.OracleCalls)
	}
	if len(got.Indices) != len(want.Indices) {
		t.Fatalf("parallel returned %d indices, want %d", len(got.Indices), len(want.Indices))
	}
	for i := range want.Indices {
		if got.Indices[i] != want.Indices[i] {
			t.Fatalf("index[%d] = %d, want %d", i, got.Indices[i], want.Indices[i])
		}
	}
	snap := par.Counters().Snapshot()
	if snap.Queries != 1 || snap.DispatchBatches == 0 {
		t.Errorf("counters = %+v, want 1 query and >0 dispatch batches", snap)
	}
}

func TestExecuteContextProgress(t *testing.T) {
	e, _ := newCtxTestEngine(t, 1)
	var last atomic.Int64
	res, err := e.ExecuteContext(context.Background(), ctxTestSQL, ExecOptions{
		OracleParallelism: 4,
		Progress:          func(n int) { last.Store(int64(n)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(last.Load()) != res.OracleCalls {
		t.Errorf("final progress = %d, want %d oracle calls", last.Load(), res.OracleCalls)
	}
}

// TestExecuteContextProgressInOrder pins that progress totals arrive
// one at a time and in increasing order under parallel dispatch: the
// first report stalls its dispatcher worker in the hook, and no other
// worker's total may be recorded before it.
func TestExecuteContextProgressInOrder(t *testing.T) {
	e, _ := newCtxTestEngine(t, 1)
	var (
		stalled atomic.Bool
		mu      sync.Mutex
		seen    []int
	)
	res, err := e.ExecuteContext(context.Background(), ctxTestSQL, ExecOptions{
		OracleParallelism: 4,
		Progress: func(n int) {
			if stalled.CompareAndSwap(false, true) {
				time.Sleep(20 * time.Millisecond)
			}
			mu.Lock()
			seen = append(seen, n)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Fatalf("progress went %d -> %d", seen[i-1], seen[i])
		}
	}
	if len(seen) == 0 || seen[len(seen)-1] != res.OracleCalls {
		t.Fatalf("progress reports %v end below %d oracle calls", seen, res.OracleCalls)
	}
}

func TestExecuteContextCancelledBeforeStart(t *testing.T) {
	e, _ := newCtxTestEngine(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExecuteContext(ctx, ctxTestSQL, ExecOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestExecuteContextCancelledMidQuery(t *testing.T) {
	d := dataset.Beta(randx.New(3), 20_000, 0.02, 2)
	e := openEngine(t, 1, Options{})
	e.RegisterTable("beta", d)
	e.RegisterProxy("beta_proxy", func(i int) float64 { return d.Score(i) })
	var calls atomic.Int64
	e.RegisterOracle("beta_oracle", func(i int) (bool, error) {
		calls.Add(1)
		time.Sleep(time.Millisecond)
		return d.TrueLabel(i), nil
	})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.ExecuteContext(ctx, ctxTestSQL, ExecOptions{OracleParallelism: 2})
		done <- err
	}()
	// Let the query get into the labeling loop, then cancel.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	settled := calls.Load()
	time.Sleep(20 * time.Millisecond)
	if calls.Load() != settled {
		t.Errorf("oracle consumption continued after cancellation: %d -> %d", settled, calls.Load())
	}
	if settled >= 300 {
		t.Errorf("cancellation did not stop mid-run: %d calls of budget 300", settled)
	}
}
