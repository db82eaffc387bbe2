// Package oracle models the expensive ground-truth predicate of a SUPG
// query. The paper treats the oracle as a user-provided UDF — a human
// labeler or an expensive DNN — whose calls are counted against a hard
// budget (the ORACLE LIMIT clause). This package provides the Oracle
// interface, budget enforcement, call accounting, and a simulated
// oracle backed by a dataset's hidden ground-truth labels.
package oracle

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"supg/internal/dataset"
)

// Oracle evaluates the ground-truth predicate O(x) for a record index.
// Implementations may be expensive; callers must respect budgets.
type Oracle interface {
	// Label returns the oracle predicate value for record i.
	Label(i int) (bool, error)
}

// Func adapts a plain function to the Oracle interface.
type Func func(i int) (bool, error)

// Label implements Oracle.
func (f Func) Label(i int) (bool, error) { return f(i) }

// ErrBudgetExhausted is returned by a Budgeted oracle once its call
// limit has been spent.
var ErrBudgetExhausted = errors.New("oracle: budget exhausted")

// Simulated is an oracle backed by a dataset's hidden ground-truth
// labels, with a call counter. It stands in for the paper's human
// labelers and ground-truth DNNs: the simulated datasets carry their
// true labels, and the oracle's only observable cost is its number of
// calls. It is safe for concurrent use: the Dispatcher labels batches
// from multiple goroutines.
type Simulated struct {
	data  *dataset.Dataset
	calls atomic.Int64
}

// NewSimulated returns an oracle that reveals d's ground-truth labels.
func NewSimulated(d *dataset.Dataset) *Simulated {
	return &Simulated{data: d}
}

// Label implements Oracle.
func (s *Simulated) Label(i int) (bool, error) {
	if i < 0 || i >= s.data.Len() {
		return false, Permanent(fmt.Errorf("oracle: record %d out of range [0,%d)", i, s.data.Len()))
	}
	s.calls.Add(1)
	return s.data.TrueLabel(i), nil
}

// Calls returns the total number of Label invocations.
func (s *Simulated) Calls() int { return int(s.calls.Load()) }

// LabelCache is a shared read-through/write-through label tier for a
// Budgeted oracle — typically a labelstore.Cache holding the labels
// every earlier query of the same (table, oracle) pair already bought.
// Implementations must be goroutine-safe (multiple queries share one
// cache) and must serve labels that are a pure function of the record
// index. A lookup may miss at any time (bounded caches evict;
// invalidated caches go cold), so correctness never depends on a hit.
type LabelCache interface {
	// Get returns the cached label of record i and whether it was found.
	Get(i int) (bool, bool)
	// Put records the label of record i. It may drop the write.
	Put(i int, v bool)
}

// committer is a LabelCache with a durability point: Commit makes
// every label the cache has returned or accepted so far durable
// (labelstore.Cache, whose write-ahead log group-commits).
type committer interface {
	Commit()
}

// Budgeted wraps an oracle with a hard call limit and memoization.
// Repeat labels of an already-labeled record are served from cache and
// do NOT consume budget, matching the paper's model where the label of
// a record, once obtained, is known. Once remaining budget reaches zero
// any uncached call fails with ErrBudgetExhausted.
//
// A Budgeted is owned by a single query goroutine: Label and LabelAll
// are not safe for concurrent use with each other. LabelAll may fan the
// underlying fetches out across goroutines (when the inner oracle is a
// BatchOracle), but the budget accounting itself stays single-threaded.
type Budgeted struct {
	inner  BatchOracle
	budget int
	used   int
	cache  map[int]bool
	ctx    context.Context // nil = never cancelled

	// store is the optional cross-query label tier (see WithStore);
	// committer is store when it has a durability point.
	store     LabelCache
	committer committer
	freeReuse bool
	storeHits int
	onCharge  func(n int) // notified per charged store hit batch
}

// NewBudgeted wraps inner with a limit of budget oracle calls. An inner
// oracle that does not label in batches is fetched through a width-1
// Dispatcher, one record at a time in order. The memoization map is
// presized to realistic budgets to keep incremental map growth off the
// query hot path; sentinel "effectively unlimited" budgets (the
// joint-query wrapper passes MaxInt/2) get no hint, since presizing to
// them would allocate far beyond actual use.
func NewBudgeted(inner Oracle, budget int) *Budgeted {
	hint := budget
	if hint < 0 || hint > 1<<20 {
		hint = 0
	}
	if hint > 1<<16 {
		hint = 1 << 16
	}
	batch, ok := inner.(BatchOracle)
	if !ok {
		batch = NewDispatcher(inner, 1)
	}
	return &Budgeted{inner: batch, budget: budget, cache: make(map[int]bool, hint)}
}

// WithContext attaches a cancellation context: once ctx is done, every
// subsequent uncached Label (and any LabelAll) fails with ctx's error,
// stopping oracle consumption mid-query. Returns b for chaining.
func (b *Budgeted) WithContext(ctx context.Context) *Budgeted {
	b.ctx = ctx
	return b
}

// WithStore attaches a shared cross-query label tier. A store hit
// skips the inner oracle entirely. In the default charged mode (free =
// false) a hit still consumes one budget unit, so budget traces —
// and therefore every downstream decision of the selection algorithms
// — are byte-identical to a run without the store; only the inner
// oracle's call count drops. With free = true hits cost nothing,
// stretching the effective sample size a budget can buy at the price
// of run-to-run comparability. Fresh labels fetched from the inner
// oracle are written through to the store either way. When the store
// has a Commit method (a WAL-backed labelstore.Cache), every LabelAll
// and every Label that consulted the store commits before returning,
// so each label a caller receives is durable. Returns b for chaining;
// a nil store leaves b unchanged.
func (b *Budgeted) WithStore(store LabelCache, free bool) *Budgeted {
	if store != nil {
		b.store = store
		b.committer, _ = store.(committer)
		b.freeReuse = free
	}
	return b
}

// commitStore makes the store durable up to this call: the labels it
// bought, and any store hit on a label another query bought but has not
// committed yet. It runs on every return path, including errors and
// cancellation, because a failed batch may still have bought a prefix.
func (b *Budgeted) commitStore() {
	if b.committer != nil {
		b.committer.Commit()
	}
}

// WithChargeHook registers fn to be notified whenever charged store
// hits consume budget (n units at a time). It lets callers that count
// real oracle invocations elsewhere (e.g. a progress hook below the
// batch dispatcher) keep their cumulative totals equal to Used(),
// which charges for store hits the inner oracle never sees. Returns b
// for chaining.
func (b *Budgeted) WithChargeHook(fn func(n int)) *Budgeted {
	b.onCharge = fn
	return b
}

// StoreHits returns the number of labels this query served from the
// attached store (charged or free).
func (b *Budgeted) StoreHits() int { return b.storeHits }

// Context returns the attached cancellation context (never nil).
func (b *Budgeted) Context() context.Context {
	if b.ctx == nil {
		return context.Background()
	}
	return b.ctx
}

// Label implements Oracle with budget enforcement and memoization: a
// memo hit is free, and anything else is a one-record LabelAll.
func (b *Budgeted) Label(i int) (bool, error) {
	if v, ok := b.cache[i]; ok {
		return v, nil
	}
	labels, err := b.LabelAll([]int{i})
	if err != nil {
		return false, err
	}
	return labels[0], nil
}

// LabelAll labels idx in order and returns the labels positionally.
// Budget semantics are identical to calling Label on each element of
// idx in sequence: repeats and already-cached records are free, each
// fresh record consumes one unit, and if the fresh records outnumber
// the remaining budget the in-budget prefix is still fetched (and
// cached, mirroring the partial consumption of the sequential loop)
// before ErrBudgetExhausted is returned.
//
// The fresh records are fetched through one LabelBatch call —
// concurrently, if the inner oracle dispatches that way; one at a time,
// in order, for an inner oracle without LabelBatch — and merged back in
// idx order, so results are bit-for-bit identical to a sequential loop
// for any oracle that is a pure function of the record index.
//
// The whole call is one durability batch: with a committing store
// attached it commits once on return (see WithStore).
func (b *Budgeted) LabelAll(idx []int) ([]bool, error) {
	defer b.commitStore()
	if b.ctx != nil {
		if err := b.ctx.Err(); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	// Collect the fresh records in first-occurrence order, capped at the
	// remaining budget exactly as a sequential Label loop would be.
	// Store hits are resolved inline: in charged mode they consume a
	// budget unit at their encounter position (so the exhaustion point
	// matches a storeless run unit for unit); in reuse-free mode they
	// are as free as memo hits.
	var (
		fetch     []int
		fetchPos  map[int]int
		hits      int
		exhausted bool
	)
	for _, j := range idx {
		if _, ok := b.cache[j]; ok {
			continue
		}
		if _, ok := fetchPos[j]; ok {
			continue
		}
		if b.store != nil {
			if v, ok := b.store.Get(j); ok {
				if b.freeReuse {
					b.cache[j] = v
					b.storeHits++
					continue
				}
				if b.used+len(fetch) >= b.budget {
					exhausted = true
					break
				}
				b.cache[j] = v
				b.used++
				b.storeHits++
				hits++
				continue
			}
		}
		if b.used+len(fetch) >= b.budget {
			exhausted = true
			break
		}
		if fetchPos == nil {
			fetchPos = make(map[int]int, len(idx))
		}
		fetchPos[j] = len(fetch)
		fetch = append(fetch, j)
	}
	if hits > 0 && b.onCharge != nil {
		b.onCharge(hits)
	}

	if err := b.fetchAll(fetch); err != nil {
		return nil, err
	}
	if exhausted {
		return nil, fmt.Errorf("%w (limit %d)", ErrBudgetExhausted, b.budget)
	}

	out := make([]bool, len(idx))
	for i, j := range idx {
		out[i] = b.cache[j]
	}
	return out, nil
}

// LabelBatch implements BatchOracle, so nested Budgeted wrappers (the
// joint query path stacks a stage budget on an unlimited one) propagate
// batching down to the innermost dispatcher. It must be called from the
// goroutine that owns b; the batch parallelism happens below it. On
// error it honors the BatchOracle prefix contract: the longest prefix
// of idx answerable from the memo — exactly the labels the failed run
// did obtain and charge for — is returned alongside the error, so an
// outer wrapper's accounting keeps them.
func (b *Budgeted) LabelBatch(ctx context.Context, idx []int) ([]bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	labels, err := b.LabelAll(idx)
	if err == nil {
		return labels, nil
	}
	prefix := make([]bool, 0, len(idx))
	for _, j := range idx {
		v, ok := b.cache[j]
		if !ok {
			break
		}
		prefix = append(prefix, v)
	}
	return prefix, err
}

// fetchAll labels the deduplicated fresh records through one LabelBatch
// call and folds them into the cache and budget accounting. On error
// the inner oracle returns the successfully-labeled prefix, and that
// prefix is cached, charged, and written through to the store before
// the error propagates — labels the inner oracle already fetched (and
// was paid for) are never thrown away, exactly as a sequential loop
// stopping at the failure would keep them.
func (b *Budgeted) fetchAll(fetch []int) error {
	if len(fetch) == 0 {
		return nil
	}
	labels, err := b.inner.LabelBatch(b.Context(), fetch)
	n := min(len(labels), len(fetch))
	for i := 0; i < n; i++ {
		j := fetch[i]
		b.cache[j] = labels[i]
		if b.store != nil {
			b.store.Put(j, labels[i])
		}
	}
	b.used += n
	return err
}

// Used returns the number of budget-consuming calls made so far.
func (b *Budgeted) Used() int { return b.used }

// Budget returns the configured limit.
func (b *Budgeted) Budget() int { return b.budget }

// AppendLabeledPositives appends the records labeled positive so far —
// the R1 component of Algorithm 1's result — to dst in ascending order
// and returns the extended slice. In charged mode every labeled record
// consumed one budget unit, so a dst with spare capacity Used() never
// grows.
func (b *Budgeted) AppendLabeledPositives(dst []int) []int {
	n := len(dst)
	for k, v := range b.cache {
		if v {
			dst = append(dst, k)
		}
	}
	slices.Sort(dst[n:])
	return dst
}
