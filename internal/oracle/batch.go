package oracle

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"supg/internal/metrics"
	"supg/internal/parallel"
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

// Dispatcher fans the labels of a batch out across a bounded number of
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
// concurrent label fetches per batch. parallelism <= 1 labels the batch
// in order on the calling goroutine (but still batches accounting).
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

// LabelBatch implements BatchOracle with bounded-parallel fan-out on
// parallel.Run. The first error (or a context cancellation) turns every
// position not yet started into a no-op. Per the BatchOracle contract,
// on error the longest successfully-labeled prefix is returned
// alongside it, so callers can keep labels that were already fetched
// (and paid for) instead of discarding the whole batch.
func (d *Dispatcher) LabelBatch(ctx context.Context, idx []int) ([]bool, error) {
	d.counters.DispatchBatch(len(idx))
	out := make([]bool, len(idx))
	// done[pos] marks positions whose label landed in out; parallel.Run
	// returns only after every write.
	done := make([]bool, len(idx))
	var (
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	parallel.Run(d.parallelism, len(idx), func(pos int) {
		if failed.Load() {
			return
		}
		err := ctx.Err()
		if err != nil {
			err = fmt.Errorf("oracle: %w", err)
		} else if out[pos], err = d.inner.Label(idx[pos]); err == nil {
			done[pos] = true
			return
		}
		failed.Store(true)
		errOnce.Do(func() { firstErr = err })
	})
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
