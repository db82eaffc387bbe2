// Package labelstore is the cross-query oracle label store: a
// concurrency-safe, bounded cache of ground-truth labels keyed by
// (table, oracle UDF) and record index. The paper's premise is that
// oracle calls are orders of magnitude more expensive than proxy
// evaluations, and labels are a pure function of the record index, so
// once a label has been bought by any query it can be reused by every
// later query of the same (table, oracle) pair — repeated queries,
// sensitivity sweeps, and async jobs stop re-buying ground truth the
// system already paid for.
//
// Reuse changes only cost, never results: in the default charged mode
// the budget wrapper still charges a budget unit for a store hit, so a
// warm query's Indices/Tau/oracle-call trace is byte-identical to a
// cold run; the opt-in reuse-free mode makes hits free, stretching the
// effective sample size (see oracle.Budgeted.WithStore).
//
// The store is bounded by an approximate byte budget with FIFO
// eviction, each cache behind one lock, and invalidated (never
// silently reused) when a table or oracle UDF is re-registered.
// Appends extend a table without changing existing record ids or
// labels, so append leaves the store intact by design. An optional
// write-ahead log (Options.WALPath, an internal/framelog log) makes
// bought labels survive a crash.
package labelstore

import (
	"sync"
	"sync/atomic"
)

// DefaultMaxBytes is the store-wide byte budget when Options.MaxBytes
// is zero.
const DefaultMaxBytes = 64 << 20

// entryBytes is the approximate in-memory footprint of one cached
// label: a map[int]bool entry (bucket share, key, value, padding)
// plus its FIFO queue slot. Deliberately conservative so the
// configured byte budget is an upper bound in practice.
const entryBytes = 48

// Options tune a Store. The zero value selects the defaults above.
type Options struct {
	// MaxBytes bounds the approximate total memory of all cached labels
	// across every (table, oracle) pair (0 = DefaultMaxBytes). When the
	// bound is exceeded an insert evicts one oldest entry (FIFO),
	// another cache's first.
	MaxBytes int64
	// WALPath, when non-empty, makes the store crash-durable: every
	// label written through a Cache is appended to the write-ahead log
	// at this path, and Open replays the log into memory on boot so a
	// restarted process recovers every label it paid for with zero
	// oracle re-buys. See wal.go for the on-disk format.
	WALPath string
	// WALSyncEvery is the fsync cadence. The default (0 or 1) is group
	// commit: each label is durable before the query that bought it uses
	// it, with one fsync per oracle batch — Put appends without syncing
	// and Cache.Commit, which oracle.Budgeted calls at the end of every
	// batch, flushes and syncs everything pending. Larger values sync
	// after every N appended records instead and make Commit a no-op,
	// trading the tail of a crash for throughput.
	WALSyncEvery int
}

// Key identifies one cache: labels are valid only for a specific
// (table registration, oracle UDF registration) pair.
type Key struct {
	Table  string
	Oracle string
}

// Store is the top-level label store: a registry of per-(table,
// oracle) caches sharing one byte budget and one set of counters. All
// methods are goroutine-safe and nil-safe (a nil *Store serves only
// misses and drops writes), so callers never need a feature gate at
// the call site.
type Store struct {
	mu     sync.RWMutex
	caches map[Key]*Cache

	maxEntries int64
	entries    atomic.Int64

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64

	wal         *wal
	walReplayed atomic.Int64
}

// Open returns an empty store with the given bounds. When
// Options.WALPath is set it opens (creating if absent) the
// write-ahead log, replays every durable label into memory, truncates
// any torn tail left by a crash (a read that fails before the end of
// the log fails Open instead), and compacts the log if it has grown
// far past the live label set. While another Store has the log open,
// Open fails with an error that matches framelog.ErrLocked.
func Open(opts Options) (*Store, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	s := &Store{
		caches:     make(map[Key]*Cache),
		maxEntries: max(opts.MaxBytes/entryBytes, 1),
	}
	if opts.WALPath != "" {
		w, replayed, err := openWAL(s, opts.WALPath, opts.WALSyncEvery)
		if err != nil {
			return nil, err
		}
		s.wal = w
		s.walReplayed.Store(replayed)
		// Compact on boot when the log is dominated by dead frames
		// (tombstoned labels, duplicates), so it cannot grow without
		// bound across restarts.
		live := s.entries.Load() + int64(len(s.caches))
		if frames := w.log.Frames(); frames > walCompactMinRecords && frames > 2*live {
			w.mu.Lock()
			err := w.compactLocked()
			w.mu.Unlock()
			if err != nil {
				w.close()
				return nil, err
			}
		}
	}
	return s, nil
}

// Close flushes and closes the write-ahead log, if one is attached.
// Nil-safe and idempotent; returns the first WAL append error if any
// write was lost.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	return s.wal.close()
}

// CompactWAL rewrites the write-ahead log to hold only the currently
// live labels, reclaiming the space of tombstoned and duplicate
// records. No-op without a WAL.
func (s *Store) CompactWAL() error {
	if s == nil || s.wal == nil {
		return nil
	}
	s.wal.mu.Lock()
	defer s.wal.mu.Unlock()
	return s.wal.compactLocked()
}

// Cache returns the live cache for the (table, oracle) pair, creating
// it if absent. The returned handle stays valid across invalidations:
// an invalidated handle serves only misses and drops writes, so a
// query that snapshotted it mid-flight can neither read stale labels
// into a later query nor pollute the replacement cache. Returns nil
// when s is nil.
func (s *Store) Cache(table, oracle string) *Cache {
	if s == nil {
		return nil
	}
	key := Key{Table: table, Oracle: oracle}
	s.mu.RLock()
	c := s.caches[key]
	s.mu.RUnlock()
	if c != nil {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c = s.caches[key]; c != nil {
		return c
	}
	c = &Cache{store: s, key: key, m: make(map[int]bool)}
	s.caches[key] = c
	return c
}

// InvalidateTable kills every cache of the table (any oracle) and
// reports how many caches were dropped. Call when a table is
// re-registered: record ids may now mean different records. With a WAL
// attached, a tombstone is journaled so the dropped labels stay dead
// across restarts.
func (s *Store) InvalidateTable(table string) int {
	return s.invalidate(recTombTable, table)
}

// InvalidateOracle kills every cache of the oracle UDF (any table) and
// reports how many caches were dropped. Call when an oracle UDF is
// re-registered: the function may now label differently.
// With a WAL attached, a tombstone is journaled so the dropped labels
// stay dead across restarts.
func (s *Store) InvalidateOracle(oracle string) int {
	return s.invalidate(recTombOracle, oracle)
}

// invalidate kills the caches a tombstone of kind (recTombTable or
// recTombOracle) names and journals the tombstone when any died.
func (s *Store) invalidate(kind byte, name string) int {
	if s == nil {
		return 0
	}
	n := s.invalidateMatch(kind, name, true)
	if n > 0 {
		s.wal.appendTombstone(kind, name)
	}
	return n
}

// invalidateMatch kills every cache of the table (kind recTombTable)
// or oracle (recTombOracle) name. count=false is the WAL replay path:
// reconstructing a past invalidation must not inflate the live stats.
func (s *Store) invalidateMatch(kind byte, name string, count bool) int {
	s.mu.Lock()
	var dead []*Cache
	for k, c := range s.caches {
		if (kind == recTombTable && k.Table == name) || (kind == recTombOracle && k.Oracle == name) {
			dead = append(dead, c)
			delete(s.caches, k)
		}
	}
	s.mu.Unlock()
	for _, c := range dead {
		c.kill()
	}
	if n := len(dead); n > 0 && count {
		s.invalidations.Add(int64(n))
	}
	return len(dead)
}

// Len returns the total number of cached labels across all caches.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	return int(s.entries.Load())
}

// Stats is a point-in-time snapshot of store activity.
type Stats struct {
	// Hits and Misses count Get outcomes across all caches.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts labels dropped to stay under the byte budget,
	// during WAL replay as well.
	Evictions int64 `json:"evictions"`
	// Invalidations counts caches killed by table/oracle re-registration.
	Invalidations int64 `json:"invalidations"`
	// Entries is the current number of cached labels; Caches the number
	// of live (table, oracle) pairs.
	Entries int64 `json:"entries"`
	Caches  int   `json:"caches"`
	// WALRecords is the number of frames currently in the write-ahead
	// log; WALReplayed the number of labels restored from it on boot;
	// WALSyncs the number of fsyncs of the log since Open (commits,
	// relaxed-cadence syncs, tombstones, compactions and Close). All
	// zero without a WAL.
	WALRecords  int64 `json:"wal_records"`
	WALReplayed int64 `json:"wal_replayed"`
	WALSyncs    int64 `json:"wal_syncs"`
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.RLock()
	caches := len(s.caches)
	s.mu.RUnlock()
	records, syncs := s.wal.counts()
	return Stats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Evictions:     s.evictions.Load(),
		Invalidations: s.invalidations.Load(),
		Entries:       s.entries.Load(),
		Caches:        caches,
		WALRecords:    records,
		WALReplayed:   s.walReplayed.Load(),
		WALSyncs:      syncs,
	}
}

// Cache is the label cache of one (table, oracle) pair. It implements
// the read/write interface oracle.Budgeted consumes (Get/Put) and is
// safe for concurrent use by any number of queries. Its insertion
// order is tracked in a FIFO queue so eviction is O(1).
type Cache struct {
	store *Store
	key   Key
	dead  atomic.Bool

	mu   sync.Mutex
	m    map[int]bool
	fifo []int // insertion order; fifo[head:] are the cached ids
	head int
}

// Get returns the cached label of record i. A killed (invalidated)
// cache always misses.
func (c *Cache) Get(i int) (bool, bool) {
	if c.dead.Load() {
		c.store.misses.Add(1)
		return false, false
	}
	c.mu.Lock()
	v, ok := c.m[i]
	c.mu.Unlock()
	if ok {
		c.store.hits.Add(1)
	} else {
		c.store.misses.Add(1)
	}
	return v, ok
}

// Put records the label of record i. Writes to a killed cache are
// dropped: labels bought against a superseded registration must not
// leak into the replacement cache. When the store-wide byte budget is
// exceeded an oldest entry is evicted — another cache's first, so a
// fresh workload is not starved by a budget another table filled.
// With a WAL attached the label's frame is appended right after the
// memory insert, so the log never holds a label memory rejected; in
// the default group-commit mode it is not synced until the next
// Commit.
func (c *Cache) Put(i int, v bool) {
	c.put(i, v, c.store.wal)
}

// Commit makes every label journaled so far durable: one flush and one
// fsync of all pending frames, whichever cache appended them. In the
// default group-commit mode (Options.WALSyncEvery 0 or 1) this is the
// durability point: oracle.Budgeted calls it at the end of every
// oracle batch, so each label is durable before the query that bought
// it — or hit it in the store — uses it. No-op without a WAL, when
// nothing is pending, and in relaxed mode (WALSyncEvery > 1), which
// syncs on its own cadence. A failed sync is fail-stop like a failed
// append: later writes are dropped and the error surfaces from
// Store.Close.
func (c *Cache) Commit() {
	c.store.wal.commit()
}

// put inserts the label and journals it to w (nil = not journaled:
// replay applies labels that are already durable). With a WAL the
// memory insert and the frame append happen under the WAL lock, so Get
// never returns a label whose frame is not yet in the log: a Commit
// after any Get covers every label that Get could have returned.
// Reports whether the label was newly inserted.
func (c *Cache) put(i int, v bool, w *wal) bool {
	var total int64
	if w != nil {
		w.mu.Lock()
		if total = c.insert(i, v); total > 0 {
			w.appendLabelLocked(c, i, v)
		}
		w.mu.Unlock()
	} else {
		total = c.insert(i, v)
	}
	if total == 0 {
		return false
	}
	if total > c.store.maxEntries {
		c.store.evictOne(c)
	}
	return true
}

// insert adds the label and returns the store's new entry count, or 0
// when the label was not inserted (killed cache, or already present).
func (c *Cache) insert(i int, v bool) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The dead flag is re-checked under the lock: kill sets it before
	// clearing the cache, so an insert that won the lock first is
	// counted (and cleared) by kill, and one that lost observes dead and
	// drops — either way Store.entries stays consistent.
	if c.dead.Load() {
		return 0
	}
	if _, ok := c.m[i]; ok {
		// Labels are a pure function of the record index; an existing
		// entry is already correct.
		return 0
	}
	c.m[i] = v
	c.fifo = append(c.fifo, i)
	return c.store.entries.Add(1)
}

// evictOne drops one oldest entry to get back under the byte budget.
// It prefers other caches — a new workload displaces an old one
// instead of self-evicting its own fresh entries forever — and only
// then takes the inserting cache's own oldest. Locks are taken in the
// order s.mu, then one cache's mu.
func (s *Store) evictOne(from *Cache) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, c := range s.caches {
		if c != from && c.evictOldest() {
			s.evicted()
			return
		}
	}
	if from.evictOldest() {
		s.evicted()
	}
}

func (s *Store) evicted() {
	s.entries.Add(-1)
	s.evictions.Add(1)
}

// evictOldest removes the cache's oldest entry and reports whether it
// held one.
func (c *Cache) evictOldest() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.head >= len(c.fifo) {
		return false
	}
	delete(c.m, c.fifo[c.head])
	c.head++
	// Compact the queue once the dead prefix dominates.
	if c.head > 32 && c.head > len(c.fifo)/2 {
		c.fifo = append(c.fifo[:0], c.fifo[c.head:]...)
		c.head = 0
	}
	return true
}

// label is one cached (record index, label) pair.
type label struct {
	i int
	v bool
}

// snapshot returns the cache's labels oldest first, none once it is
// dead.
func (c *Cache) snapshot() []label {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead.Load() {
		return nil
	}
	out := make([]label, 0, len(c.fifo)-c.head)
	for _, i := range c.fifo[c.head:] {
		out = append(out, label{i, c.m[i]})
	}
	return out
}

// kill marks the cache dead and releases its entries. In-flight
// holders observe only misses and dropped writes from then on.
func (c *Cache) kill() {
	if c.dead.Swap(true) {
		return
	}
	c.mu.Lock()
	n := int64(len(c.m))
	c.m, c.fifo, c.head = nil, nil, 0
	c.mu.Unlock()
	c.store.entries.Add(-n)
}
