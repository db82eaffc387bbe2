package oracle

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"supg/internal/metrics"
)

// BatchOracle labels a set of records in one call. Implementations may
// fetch the labels in parallel or ship them to a remote backend in one
// round trip; the returned slice is positional (labels[i] is the label
// of idx[i]). Labeling must be a pure function of the record index so
// that fetch order cannot change results.
type BatchOracle interface {
	// LabelBatch returns the labels of idx, in idx order. On error the
	// returned slice holds the labels of the longest successfully-labeled
	// prefix of idx (possibly empty): labels[i] is valid for idx[i] for
	// every i < len(labels). Callers fold that prefix into their cache
	// and budget accounting so already-paid-for labels survive a partial
	// failure, mirroring the sequential path's kept prefix.
	LabelBatch(ctx context.Context, idx []int) ([]bool, error)
}

// Dispatcher fans the labels of a batch out across a bounded pool of
// goroutines, each calling the wrapped oracle's Label. It adapts any
// per-record Oracle — a user UDF, a Simulated oracle with latency — to
// the BatchOracle interface, overlapping slow per-call latency (the
// dominant cost per the paper's Section 4.1) up to the configured
// parallelism. Results are merged back positionally, so for a
// deterministic oracle the output is identical to a sequential loop.
//
// The wrapped oracle must be goroutine-safe when parallelism > 1.
type Dispatcher struct {
	inner       Oracle
	parallelism int
	counters    *metrics.Counters
}

// NewDispatcher wraps inner with a dispatch width of parallelism
// concurrent label fetches per batch. parallelism <= 1 dispatches
// sequentially (but still batches accounting).
func NewDispatcher(inner Oracle, parallelism int) *Dispatcher {
	if parallelism < 1 {
		parallelism = 1
	}
	return &Dispatcher{inner: inner, parallelism: parallelism}
}

// WithCounters attaches service counters recording dispatch volume.
// Returns d for chaining.
func (d *Dispatcher) WithCounters(c *metrics.Counters) *Dispatcher {
	d.counters = c
	return d
}

// Label implements Oracle by delegating to the wrapped oracle, so a
// Dispatcher can stand anywhere an Oracle is expected.
func (d *Dispatcher) Label(i int) (bool, error) { return d.inner.Label(i) }

// LabelBatch implements BatchOracle with bounded-parallel fan-out.
// Workers pull positions from a shared cursor; the first error (or a
// context cancellation) stops the remaining work. Per the BatchOracle
// contract, on error the longest successfully-labeled prefix is
// returned alongside it, so callers can keep labels that were already
// fetched (and paid for) instead of discarding the whole batch.
func (d *Dispatcher) LabelBatch(ctx context.Context, idx []int) ([]bool, error) {
	d.counters.DispatchBatch(len(idx))
	out := make([]bool, len(idx))
	if len(idx) == 0 {
		return out, nil
	}

	workers := d.parallelism
	if workers > len(idx) {
		workers = len(idx)
	}
	if workers <= 1 {
		for i, j := range idx {
			if err := ctx.Err(); err != nil {
				return out[:i], fmt.Errorf("oracle: %w", err)
			}
			v, err := d.inner.Label(j)
			if err != nil {
				return out[:i], err
			}
			out[i] = v
		}
		return out, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		cursor   atomic.Int64
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
	)
	// done[pos] marks positions whose label landed in out; written by
	// workers before wg.Done, read only after wg.Wait (the WaitGroup
	// orders the accesses).
	done := make([]bool, len(idx))
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				pos := int(cursor.Add(1)) - 1
				if pos >= len(idx) {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(fmt.Errorf("oracle: %w", err))
					return
				}
				v, err := d.inner.Label(idx[pos])
				if err != nil {
					fail(err)
					return
				}
				out[pos] = v
				done[pos] = true
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		// The contiguous done prefix is exactly what a sequential loop
		// stopping at the first failure could have kept; later completed
		// positions are discarded to preserve prefix semantics.
		k := 0
		for k < len(done) && done[k] {
			k++
		}
		return out[:k], firstErr
	}
	return out, nil
}
