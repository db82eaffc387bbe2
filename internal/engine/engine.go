// Package engine executes SUPG query plans against registered datasets
// and user-defined oracle / proxy functions, mirroring the operational
// architecture of the paper's Section 4.1: a batch query system where
// the user supplies the oracle and proxy as callbacks, the proxy is
// evaluated over the complete dataset up front (it is cheap), and the
// oracle is sampled under the budget.
//
// The proxy scan and everything derived from it are amortized across
// queries: the first query of a (table, proxy) pair evaluates the proxy
// over all records and builds an immutable index.ScoreIndex (validated
// scores, sorted permutation, cached sampling structures); subsequent
// queries — including concurrent ones — reuse it, so their cost is
// O(oracle budget + |result|) rather than O(n log n) per query.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"supg/internal/core"
	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/labelstore"
	"supg/internal/metrics"
	"supg/internal/multiproxy"
	"supg/internal/oracle"
	"supg/internal/parallel"
	"supg/internal/query"
	"supg/internal/randx"
	"supg/internal/storage"
)

// ErrUnknownTable is the sentinel wrapped into every "no such table"
// error; callers route on it with errors.Is instead of matching
// message text.
var ErrUnknownTable = errors.New("unknown table")

// OracleUDF is a user-provided ground-truth predicate over record ids.
type OracleUDF func(record int) (bool, error)

// ProxyUDF is a user-provided proxy scorer over record ids; scores must
// be in [0, 1]. Index builds call it from up to
// Options.BuildParallelism goroutines at once.
type ProxyUDF func(record int) float64

// indexKey identifies one cached per-table score-source index. source
// is query.ScoreSource.CacheKey: the bare proxy name for single-proxy
// sources (byte-compatible with the historical per-proxy cache), the
// full fusion identity — strategy, member proxies, and for calibrated
// fusions the calibration budget and oracle UDF — otherwise.
type indexKey struct {
	table  string
	source string
}

// built is the output of one index build: the index itself plus the
// work accounting the building query reports.
type built struct {
	ix *index.ScoreIndex
	// recovered reports that ix was adopted from the durable storage
	// tier, its files checked on this first use (and append-extended
	// when the table grew since the flush), instead of built by a proxy
	// scan. See persist.go.
	recovered bool
	// proxyCalls is the number of proxy UDF evaluations performed
	// (members × records for fused sources).
	proxyCalls int
	// calibCalls / calibHits account the calibration labels of a
	// calibrated fusion: budget-consuming oracle calls and the subset
	// served by the cross-query label store.
	calibCalls int
	calibHits  int
}

// indexEntry is a lazily-built, shared ScoreIndex. The sync.Once makes
// concurrent first queries of the same (table, source) pair build the
// index exactly once while the others wait for it. The build closure
// snapshots the table, member proxies, and (for calibrated fusions)
// the oracle and label-store handle under the same lock that publishes
// the entry into the cache, so an entry can never be built from
// registrations older than the ones its cache slot represents (a later
// re-registration deletes the slot, and the next query snapshots fresh
// state). An append publishes a new entry whose closure chains on the
// replaced one, indexing only the appended records.
//
// The proxies/fusion/calibOracle fields are immutable invalidation
// metadata: re-registering any member proxy drops the entry, and
// re-registering the calibration oracle drops every fused index whose
// stacker was fitted with its labels.
type indexEntry struct {
	// build produces the index plus its work accounting. Set at entry
	// creation, run at most once via ensure.
	build func() (built, error)

	proxies     []string         // member proxy UDFs, in source order
	fusion      query.FusionKind // FusionNone for single-proxy entries
	calibOracle string           // oracle UDF a calibrated fusion was fitted with ("" otherwise)

	// table is the table version the index covers, record for record:
	// the ids a query of this entry returns refer to it, whatever
	// re-registration or append replaces the table meanwhile. It pins
	// only that one version, never the append chain behind it.
	table *dataset.Dataset

	// epoch is the table's invalidation epoch at entry creation; a
	// flush with a stale epoch abandons itself. See persist.go.
	epoch uint64

	once    sync.Once
	done    atomic.Bool // set once res/err are final; see builtIndex
	res     built
	err     error
	elapsed time.Duration // wall time of the proxy scan + fusion + index build
}

// ensure runs the entry's build exactly once (concurrent callers wait)
// and reports whether this call performed it.
func (en *indexEntry) ensure() bool {
	ran := false
	en.once.Do(func() {
		ran = true
		start := time.Now()
		en.res, en.err = en.build()
		en.elapsed = time.Since(start)
		// Release the closure: an append entry's build holds the whole
		// parent-entry chain (old indexes, captured datasets), which
		// must not stay reachable once this index is published.
		en.build = nil
		en.done.Store(true)
	})
	return ran
}

// builtIndex returns the entry's index if its build has finished
// successfully, without waiting for (or starting) one.
func (en *indexEntry) builtIndex() *index.ScoreIndex {
	if !en.done.Load() || en.err != nil {
		return nil
	}
	return en.res.ix
}

// Options tune index construction for all tables of an engine. The
// zero value selects the index package defaults.
type Options struct {
	// SegmentSize is the records-per-segment of every built score index
	// (<= 0 selects index.DefaultSegmentSize). Smaller segments mean
	// finer-grained parallel builds and cheaper appends; results are
	// identical at every setting.
	SegmentSize int
	// BuildParallelism bounds the goroutines of one index operation:
	// proxy scoring of a build or of an append's tail, concurrent
	// segment builds, and the two per-query fan-outs — id gathers of
	// 16Ki or more ids across segments, and mixture builds over fixed
	// blocks of records (index.Options.Parallelism). <= 0 selects
	// GOMAXPROCS; 1 runs them all on the calling goroutine. Results are
	// byte-identical at every setting — only RNG-free,
	// order-independent phases fan out.
	BuildParallelism int
	// LabelCacheBytes bounds the cross-query oracle label store shared
	// by every query and job of this engine (0 selects
	// labelstore.DefaultMaxBytes; negative disables label reuse
	// entirely). In the default charged mode the store changes only the
	// inner oracle's call count, never query results.
	LabelCacheBytes int64
	// LabelWALPath, when non-empty, makes the label store crash-durable:
	// bought labels are journaled to a write-ahead log at this path and
	// replayed on Open, so a restarted process re-buys zero labels. See
	// labelstore.Options.WALPath. Ignored when the label store is
	// disabled.
	LabelWALPath string
	// LabelWALSyncEvery is the WAL fsync cadence. 0 or 1 (the default):
	// each label is durable before the query that bought it uses it, one
	// fsync per oracle batch. N > 1: fsync every N records. See
	// labelstore.Options.WALSyncEvery.
	LabelWALSyncEvery int
	// OracleTimeout bounds one oracle UDF attempt's wall-clock time
	// (0 = unbounded). A timed-out attempt counts as a transient failure
	// and is retried; the oracle UDF must be goroutine-safe when a
	// timeout is set.
	OracleTimeout time.Duration
	// OracleRetries is how many times a transient oracle failure is
	// re-attempted after the first try (0 = fail on first error).
	// Retries never change results: labels are a pure function of the
	// record index, so an eventually-successful call yields exactly the
	// fault-free label and the budget wrapper never sees the failed
	// attempts.
	OracleRetries int
	// OracleBackoff is the base delay before the first retry, doubling
	// per further retry with deterministic jitter (0 = 10ms). Tests use
	// tiny values to keep chaos batteries fast.
	OracleBackoff time.Duration
	// BreakerThreshold is the number of consecutive finally-failed
	// oracle calls (retries exhausted) that trips the per-oracle circuit
	// breaker open (0 = 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fails fast before
	// half-opening for a probe (0 = oracle.DefaultBreakerCooldown, 1s).
	BreakerCooldown time.Duration
	// Clock overrides the resilience layer's time source (nil = real
	// time) — tests inject oracle.ManualClock to run retry/backoff and
	// breaker cooldown schedules without sleeping.
	Clock oracle.Clock
	// PersistDir, when non-empty, enables the durable storage tier:
	// registered datasets and built score indexes are flushed to this
	// directory and recovered after a restart — datasets on Open, each
	// index when a query first needs it, mmap'd back into segment views
	// and checked then, with zero proxy UDF calls and zero permutation
	// sorts, answering queries byte-identically to the pre-restart
	// process. See internal/storage.
	PersistDir string
}

// Engine holds the catalog of tables, the UDF registry, and the cache
// of per-(table, proxy) score indexes.
type Engine struct {
	mu      sync.RWMutex
	tables  map[string]*dataset.Dataset
	oracles map[string]OracleUDF
	proxies map[string]ProxyUDF
	indexes map[indexKey]*indexEntry
	// refs backs the dataset-default UDFs (RegisterDatasetDefaults):
	// the closures read the current dataset through the pointer, so
	// AppendTable can extend their domain in place. Re-registration
	// installs a fresh pointer, leaving in-flight builds reading the
	// old snapshot — never torn data.
	refs   map[string]*atomic.Pointer[dataset.Dataset]
	seed   uint64
	ixOpts index.Options
	// resilient is the per-attempt timeout, retry and backoff policy
	// every query stacks onto its oracle UDF when Enabled; each query
	// sets its own jitter Seed (buildOracle). breaker configures the
	// per-oracle circuit breakers that policy shares.
	resilient oracle.ResilientOptions
	breaker   oracle.BreakerOptions
	// labels is the cross-query oracle label store (nil when disabled).
	// It is invalidated on table/oracle re-registration and survives
	// AppendTable: appends never change existing record ids or labels.
	labels *labelstore.Store
	// breakers holds one circuit breaker per oracle UDF name, created
	// lazily and shared by every query of the backend (guarded by mu).
	breakers map[string]*oracle.Breaker
	// counters records query, dispatch, retry and timeout totals; its
	// snapshots read the label store's, storage tier's and breakers'
	// own totals (readOwnedStats).
	counters *metrics.Counters
	// store is the durable storage tier (nil when Options.PersistDir is
	// empty). staged / stagedIx hold its recovered datasets and indexes
	// until the registrations they depend on arrive (guarded by mu);
	// see persist.go.
	store    *storage.Store
	staged   map[string]stagedTable
	stagedIx map[indexKey]*stagedIndex
}

// Open returns an empty engine whose query randomness derives from
// seed, with the index-construction, label-store, resilience and
// storage tuning of opts (the zero Options select every default). It
// fails only when the durable state opts configures cannot be opened:
// the storage tier opens first because it creates PersistDir, the
// label WAL's usual home, and is closed again when the WAL then fails
// to open or replay.
func Open(seed uint64, opts Options) (*Engine, error) {
	buildPar := opts.BuildParallelism
	if buildPar <= 0 {
		buildPar = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		tables:  make(map[string]*dataset.Dataset),
		oracles: make(map[string]OracleUDF),
		proxies: make(map[string]ProxyUDF),
		indexes: make(map[indexKey]*indexEntry),
		refs:    make(map[string]*atomic.Pointer[dataset.Dataset]),
		seed:    seed,
		ixOpts: index.Options{
			SegmentSize: opts.SegmentSize,
			Parallelism: buildPar,
		},
		breakers: make(map[string]*oracle.Breaker),
		staged:   make(map[string]stagedTable),
		stagedIx: make(map[indexKey]*stagedIndex),
		resilient: oracle.ResilientOptions{
			Timeout:     opts.OracleTimeout,
			Retries:     opts.OracleRetries,
			BaseBackoff: opts.OracleBackoff,
			Clock:       opts.Clock,
		},
		breaker: oracle.BreakerOptions{
			Threshold: opts.BreakerThreshold,
			Cooldown:  opts.BreakerCooldown,
			Clock:     opts.Clock,
		},
	}
	e.counters = metrics.NewCounters(e.readOwnedStats)
	if err := e.openStorage(opts); err != nil {
		return nil, err
	}
	if opts.LabelCacheBytes >= 0 {
		labels, err := labelstore.Open(labelstore.Options{
			MaxBytes:     opts.LabelCacheBytes,
			WALPath:      opts.LabelWALPath,
			WALSyncEvery: opts.LabelWALSyncEvery,
		})
		if err != nil {
			if e.store != nil {
				e.store.Close()
			}
			return nil, err
		}
		e.labels = labels
	}
	return e, nil
}

// Close flushes and closes the label store's write-ahead log and the
// durable storage tier, if configured. Before the storage tier closes,
// every built index's cached sampling mixtures are checkpointed to it
// (see checkpointMixtures). Nil-safe and idempotent.
func (e *Engine) Close() error {
	if e == nil {
		return nil
	}
	e.checkpointMixtures()
	err := e.labels.Close()
	if e.store != nil {
		if cerr := e.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Counters returns the engine's service counters: every query
// execution, oracle dispatch, retry and timeout of this engine is
// recorded there, and each Snapshot reads the label store's, the
// storage tier's and the circuit breakers' own totals, so the served
// stats never drift from their owners.
func (e *Engine) Counters() *metrics.Counters { return e.counters }

// readOwnedStats fills the snapshot fields whose totals the label
// store, the storage tier and the circuit breakers keep themselves.
func (e *Engine) readOwnedStats(snap *metrics.CounterSnapshot) {
	ls := e.labels.Stats()
	snap.LabelCacheHits = ls.Hits
	snap.LabelCacheMisses = ls.Misses
	snap.LabelCacheEvictions = ls.Evictions
	snap.LabelCacheInvalidations = ls.Invalidations
	snap.WALRecords = ls.WALRecords
	snap.WALReplayed = ls.WALReplayed
	snap.BreakerState = int64(e.OpenBreakers())
	if e.store == nil {
		return
	}
	st := e.store.Stats()
	snap.StorageSegmentsPersisted = st.SegmentsPersisted
	snap.StorageTablesRecovered = int64(st.TablesRecovered)
	snap.StorageIndexesRecovered = int64(st.IndexesRecovered)
	snap.StorageSegmentsRecovered = int64(st.SegmentsRecovered)
	snap.StorageMappedBytes = st.MappedBytes
	snap.StorageRecoveryMillis = st.RecoveryElapsed.Milliseconds()
	snap.StorageManifestRecords = st.ManifestRecords
	snap.StorageManifestCompactions = st.Compactions
	snap.StorageDegraded = int64(len(st.Degraded))
}

// LabelStore exposes the engine's cross-query oracle label store (nil
// when disabled via Options.LabelCacheBytes < 0) — for stats and
// tests.
func (e *Engine) LabelStore() *labelstore.Store { return e.labels }

// breakerFor returns the circuit breaker shared by every query of the
// named oracle UDF, creating it on first use. Returns nil (allow
// everything) when resilience is not configured.
func (e *Engine) breakerFor(name string) *oracle.Breaker {
	if !e.resilient.Enabled() {
		return nil
	}
	e.mu.RLock()
	b := e.breakers[name]
	e.mu.RUnlock()
	if b != nil {
		return b
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if b = e.breakers[name]; b != nil {
		return b
	}
	b = oracle.NewBreaker(e.breaker)
	e.breakers[name] = b
	return b
}

// Breaker exposes the named oracle's circuit breaker (nil when the
// oracle has never been queried under a resilience configuration) —
// for stats, readiness checks, and tests.
func (e *Engine) Breaker(name string) *oracle.Breaker {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.breakers[name]
}

// OpenBreakers reports how many oracle circuit breakers are currently
// not closed — the readiness signal surfaced by GET /readyz.
func (e *Engine) OpenBreakers() int {
	e.mu.RLock()
	breakers := make([]*oracle.Breaker, 0, len(e.breakers))
	for _, b := range e.breakers {
		breakers = append(breakers, b)
	}
	e.mu.RUnlock()
	n := 0
	for _, b := range breakers {
		if b.State() != oracle.BreakerClosed {
			n++
		}
	}
	return n
}

// RegisterTable adds a dataset under the given table name, invalidating
// any cached indexes and stored oracle labels built over a previous
// registration of the name. The label store is invalidated only on
// RE-registration (the name was already registered in this process):
// the first registration after boot is loading, not superseding, so
// labels replayed from the write-ahead log survive it — a restarted
// server that loads the same datasets re-buys zero labels. Operators
// re-registering a table with *different* data after a restart get the
// invalidation at that (second) registration, exactly as in-process.
func (e *Engine) RegisterTable(name string, d *dataset.Dataset) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.registerTableLocked(name, d)
}

// registerTableLocked is RegisterTable's body. Callers hold e.mu.
func (e *Engine) registerTableLocked(name string, d *dataset.Dataset) {
	_, existed := e.tables[name]
	e.tables[name] = d
	delete(e.refs, name) // a direct registration detaches default UDF refs
	for k := range e.indexes {
		if k.table == name {
			delete(e.indexes, k)
		}
	}
	if existed {
		e.labels.InvalidateTable(name)
	}
	// The durable tier mirrors the label store's first-registration
	// rule: a fresh boot loading a recovered dataset adopts the on-disk
	// state; a re-registration (or different content) tombstones and
	// rewrites it.
	e.persistTableLocked(name, d, existed)
}

// AppendTable atomically extends table name with extra's records,
// which take the ids [old len, new len). Unlike re-registration, every
// cached index of the table survives: its slot is republished as an
// incremental entry that — on next use — evaluates the proxy over only
// the appended records and merges them into the existing index as a
// fresh segment, instead of re-scanning and re-sorting the whole
// table. Stored oracle labels likewise survive: existing ids keep
// their records and labels, so the label store extends naturally as
// the new ids get labeled. Registered UDFs must accept the extended
// id range; the
// dataset-default UDFs (RegisterDatasetDefaults) are extended
// automatically. With persistence on, only the appended records are
// written, as a new chunk of the table's stored dataset, and they are
// durable when AppendTable returns; each grown index adds one column
// chunk at its next flush. The combined dataset is returned.
func (e *Engine) AppendTable(name string, extra *dataset.Dataset) (*dataset.Dataset, error) {
	if extra == nil || extra.Len() == 0 {
		return nil, fmt.Errorf("engine: empty append to table %q", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	old, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: %w %q (known: %v)", ErrUnknownTable, name, e.tableNamesLocked())
	}
	combined := old.Append(extra)
	e.tables[name] = combined
	if ref, ok := e.refs[name]; ok {
		// Extend the default UDFs' domain. Scores and labels of existing
		// ids are value-identical in the combined dataset, so in-flight
		// index builds reading through the pointer cannot observe torn
		// state.
		ref.Store(combined)
	}
	// Persist the appended records. Index records are left alone:
	// lineages survive appends, and each index re-flushes its extended
	// form after its next build.
	oldLen, newLen := old.Len(), combined.Len()
	e.persistAppend(name, combined, oldLen)
	for key, parent := range e.indexes {
		if key.table != name {
			continue
		}
		fns := make([]ProxyUDF, len(parent.proxies))
		ok := true
		for i, p := range parent.proxies {
			if fns[i], ok = e.proxies[p]; !ok {
				break
			}
		}
		// Calibrated fusions cannot extend incrementally: the stacker is
		// fitted on a uniform sample of the whole table, so an append
		// changes the population it must be calibrated against. Drop the
		// entry — the next query rebuilds and recalibrates, and its
		// labels come warm out of the cross-query label store.
		if !ok || parent.fusion.Calibrated() {
			delete(e.indexes, key)
			e.dropIndexDurably(key)
			continue
		}
		e.indexes[key] = &indexEntry{
			proxies: parent.proxies,
			fusion:  parent.fusion,
			table:   combined,
			epoch:   e.storeEpoch(name),
			build: func() (built, error) {
				var b built
				if parent.ensure() {
					b.proxyCalls = parent.res.proxyCalls
				}
				if parent.err != nil {
					return b, parent.err
				}
				b.ix = parent.res.ix
				return e.extendBuilt(b, key.source, fns, parent.fusion, oldLen, newLen)
			},
		}
	}
	return combined, nil
}

// extendBuilt scores records [lo, hi) with the label-free source (fns,
// fusion) and appends them to b's index, which covers [0, lo), as
// fresh segments — an append, indexed without re-scanning or re-sorting
// the records b already covers.
func (e *Engine) extendBuilt(b built, source string, fns []ProxyUDF, fusion query.FusionKind, lo, hi int) (built, error) {
	fresh, err := fuseRange(fns, fusion, lo, hi, e.ixOpts.Parallelism)
	if err == nil {
		b.proxyCalls += len(fns) * (hi - lo)
		b.ix, err = b.ix.Append(fresh)
	}
	if err != nil {
		return b, fmt.Errorf("engine: source %q: %w", source, err)
	}
	return b, nil
}

// fuseRange evaluates every member proxy over records [lo, hi) across
// at most par goroutines and fuses the columns with the label-free
// strategy (FusionNone passes the single column through). Label-free
// fusions are per-record functions, which is what makes incremental
// appends possible: fusing only the appended rows yields exactly the
// rows a full rebuild would compute.
func fuseRange(fns []ProxyUDF, fusion query.FusionKind, lo, hi, par int) ([]float64, error) {
	cols := make([][]float64, len(fns))
	for i, fn := range fns {
		cols[i] = scoreRange(fn, lo, hi, par)
	}
	if fusion == query.FusionNone {
		return cols[0], nil
	}
	fuser, err := fuserFor(fusion, 0)
	if err != nil {
		return nil, err
	}
	fused, err := fuser.Fuse(nil, cols, nil)
	if err != nil {
		return nil, err
	}
	return fused.Scores, nil
}

// fuserFor maps the grammar's fusion kind onto the multiproxy provider.
func fuserFor(fusion query.FusionKind, calibBudget int) (multiproxy.Fuser, error) {
	switch fusion {
	case query.FusionMean:
		return multiproxy.Fuser{Kind: multiproxy.FuseMean}, nil
	case query.FusionMax:
		return multiproxy.Fuser{Kind: multiproxy.FuseMax}, nil
	case query.FusionLogistic:
		return multiproxy.Fuser{Kind: multiproxy.FuseLogistic, CalibrationBudget: calibBudget}, nil
	}
	return multiproxy.Fuser{}, fmt.Errorf("engine: unknown fusion %v", fusion)
}

// RegisterOracle adds an oracle UDF under the given function name,
// invalidating any stored labels bought from a previous registration
// and any fused index whose calibration was fitted with its labels.
// As with RegisterTable, the invalidation fires only on
// RE-registration, so WAL-replayed labels survive the first
// registration after a restart.
func (e *Engine) RegisterOracle(name string, fn OracleUDF) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.registerOracleLocked(name, fn)
}

// registerOracleLocked is RegisterOracle's body: a re-registration
// drops everything derived from the old function's labels — the label
// store's caches and every index, cached or staged, whose fused column
// was calibrated with them. Callers hold e.mu.
func (e *Engine) registerOracleLocked(name string, fn OracleUDF) {
	_, existed := e.oracles[name]
	e.oracles[name] = fn
	if existed {
		e.labels.InvalidateOracle(name)
		e.dropIndexesLocked(true, func(_ []string, calibOracle string) bool { return calibOracle == name })
	}
}

// RegisterProxy adds a proxy UDF under the given function name,
// invalidating any cached index built from a previous registration —
// including every fused index the name is a member of.
func (e *Engine) RegisterProxy(name string, fn ProxyUDF) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.registerProxyLocked(name, fn)
}

// registerProxyLocked is RegisterProxy's body. Staged recovered indexes
// follow the first-registration rule: the first RegisterProxy after
// boot is loading the UDF the index was built from, not superseding it.
// (Cached entries need no such guard — they can only exist if the proxy
// was already registered.) Callers hold e.mu.
func (e *Engine) registerProxyLocked(name string, fn ProxyUDF) {
	_, existed := e.proxies[name]
	e.proxies[name] = fn
	e.dropIndexesLocked(existed, func(proxies []string, _ string) bool { return slices.Contains(proxies, name) })
}

// dropIndexesLocked drops, and durably tombstones, every cached index —
// and with staged every staged recovered index too — whose member
// proxies and calibration oracle match accepts. Callers hold e.mu.
func (e *Engine) dropIndexesLocked(staged bool, match func(proxies []string, calibOracle string) bool) {
	for k, en := range e.indexes {
		if match(en.proxies, en.calibOracle) {
			delete(e.indexes, k)
			e.dropIndexDurably(k)
		}
	}
	if !staged {
		return
	}
	for k, si := range e.stagedIx {
		if match(si.proxies, si.calibOracle) {
			delete(e.stagedIx, k)
			e.dropIndexDurably(k)
		}
	}
}

// WrapOracle replaces a registered oracle UDF with wrap(current) — the
// hook for layering simulated latency or instrumentation onto an
// existing registration without re-implementing it. It reports whether
// the name was registered. The wrapper must answer exactly as the
// function it wraps, so nothing is invalidated: stored labels of the
// name (WAL-replayed ones included) and fused indexes calibrated
// through it stay valid. A replacement that may answer differently
// goes through RegisterOracle, which invalidates.
func (e *Engine) WrapOracle(name string, wrap func(OracleUDF) OracleUDF) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	fn, ok := e.oracles[name]
	if !ok {
		return false
	}
	e.oracles[name] = wrap(fn)
	return true
}

// RegisterDatasetDefaults registers table name plus "<name>_oracle" and
// "<name>_proxy" UDFs backed by the dataset's own labels and scores —
// the common simulation path. The UDFs read the dataset through an
// indirection the engine updates on AppendTable, so appended records
// are scorable and labelable without re-registering (which would
// invalidate cached indexes). Re-registering defaults installs a fresh
// indirection: queries already building against the old registration
// keep reading the old snapshot.
func (e *Engine) RegisterDatasetDefaults(name string, d *dataset.Dataset) {
	ref := &atomic.Pointer[dataset.Dataset]{}
	ref.Store(d)
	// One critical section for table, UDFs, ref, and invalidation: a
	// concurrent AppendTable interleaving between the steps could
	// otherwise extend the table without extending the ref the UDFs
	// read, and the next proxy scan would index out of range. The table
	// goes first: its re-registration drops the table's cached indexes
	// and tombstones them wholesale, so the UDFs' drops that follow
	// tombstone only other tables' indexes.
	e.mu.Lock()
	defer e.mu.Unlock()
	e.registerTableLocked(name, d)
	e.refs[name] = ref
	e.registerProxyLocked(name+"_proxy", func(i int) float64 { return ref.Load().Score(i) })
	e.registerOracleLocked(name+"_oracle", func(i int) (bool, error) {
		cur := ref.Load()
		if i < 0 || i >= cur.Len() {
			return false, fmt.Errorf("engine: record %d out of range", i)
		}
		return cur.TrueLabel(i), nil
	})
}

// QueryResult is the engine-level answer with execution statistics.
type QueryResult struct {
	// Indices is the sorted returned record set: Answer listed over
	// Index. It is nil under ExecOptions.OmitIndices.
	Indices []int
	// Answer is the returned set in compact form over Index (see
	// core.Answer): the threshold and the sampled positives below it for
	// a recall or precision target, and the oracle-verified list (with
	// an +Inf threshold) for a joint target. It is set on every result,
	// so the set's size, quality and ids can be read without Indices:
	// Answer.Len(Index) counts it, Index.EachAtLeast walks the records
	// at or above its threshold, and Index.WalkAtLeastWith streams its
	// ids in ascending order.
	Answer core.Answer
	// Index is the immutable score index the query ran over; Answer's
	// threshold part refers to it, and to Table.
	Index *index.ScoreIndex
	// Tau is the chosen proxy threshold (Inf = sample positives only).
	// For a joint target it is the recall stage's threshold, which
	// Answer does not use.
	Tau float64
	// OracleCalls counts budget-consuming oracle invocations.
	OracleCalls int
	// ProxyCalls counts proxy evaluations performed by this query:
	// members × |D| when the query built the table's score-source index
	// from scratch, only the appended records when it extended an index
	// after AppendTable, and 0 when a cached index was reused.
	ProxyCalls int
	// IndexBuilt reports whether this query performed the proxy scan,
	// fusion, and index construction (the first query of a
	// table/score-source pair).
	IndexBuilt bool
	// IndexRecovered reports that this query was the first of its
	// (table, score source) pair and its index came from the durable
	// storage tier instead of a build, its files checked on this first
	// use: zero sorts, and zero proxy calls unless the table grew since
	// the flush (then ProxyCalls covers exactly the appended tail). A
	// persisted index that fails the check is rebuilt, and the query
	// reports IndexBuilt instead.
	IndexRecovered bool
	// Fusion names the score source's fusion strategy ("mean", "max",
	// "logistic"; empty for the classic single-proxy form).
	Fusion string
	// CalibrationCalls counts the budget-consuming oracle calls spent
	// calibrating a fused index when this query built it (0 on cache
	// hits and for label-free sources). Calibration is charged to index
	// construction — not to the query's ORACLE LIMIT — and amortized
	// across every query sharing the fused index.
	CalibrationCalls int
	// CalibrationCacheHits counts the calibration labels served by the
	// cross-query label store instead of the oracle UDF: a warm
	// recalibration reports CalibrationCalls == CalibrationCacheHits
	// and costs zero real oracle invocations.
	CalibrationCacheHits int
	// LabelCacheHits counts labels served from the cross-query label
	// store instead of the oracle UDF. In the default charged mode they
	// are included in OracleCalls (budget accounting is unchanged); in
	// reuse-free mode they are free.
	LabelCacheHits int
	// Elapsed covers planning through result assembly.
	Elapsed time.Duration
	// ProxyElapsed covers the upfront proxy scan and index build when
	// this query performed it (see IndexBuilt).
	ProxyElapsed time.Duration
	// Plan echoes the executed plan.
	Plan *query.Plan
	// Table is the table version Indices refer to: the one the query's
	// index was built over, even when a re-registration or an append
	// replaced the table while the query ran. Evaluate achieved quality
	// against it, never against the table registered now.
	Table *dataset.Dataset
}

// ExecOptions tune one query execution. The zero value runs the query
// synchronously with a sequential oracle.
type ExecOptions struct {
	// OracleParallelism bounds the number of concurrent oracle UDF
	// invocations per labeling batch (<= 1 labels sequentially). The
	// oracle UDF must be goroutine-safe when parallelism > 1. Results
	// are independent of the setting: draws are made before labeling,
	// and batch labels are merged back in draw order.
	OracleParallelism int
	// Progress, when non-nil, receives the cumulative count of
	// budget-consuming oracle calls as the query runs; its last value
	// equals the result's OracleCalls. Under parallel dispatch it is
	// called from several goroutines, but one report at a time and in
	// increasing order. It must be fast: oracle workers wait on it.
	Progress func(oracleCalls int)
	// FreeReuse makes cross-query label store hits free instead of
	// budget-charged for this execution — the ExecOptions form of the
	// query grammar's ORACLE LIMIT ... REUSE FREE clause. The default
	// (charged) mode keeps results byte-identical to a cold run; free
	// reuse stretches the effective sample size the budget buys.
	FreeReuse bool
	// OmitIndices leaves QueryResult.Indices nil, so the query lists no
	// ids: a caller that needs only the set's size and quality, or
	// streams its ids (the HTTP server), reads them from
	// QueryResult.Answer and Index. The zero value lists the set, which
	// in-process callers of the library need.
	OmitIndices bool
}

// ExecuteContext parses, plans, and runs a SUPG statement with
// cancellation, oracle parallelism, and progress reporting.
func (e *Engine) ExecuteContext(ctx context.Context, sql string, opts ExecOptions) (*QueryResult, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	plan, err := query.BuildPlan(q, query.PlanOptions{})
	if err != nil {
		return nil, err
	}
	return e.ExecutePlanContext(ctx, plan, opts)
}

// ExecutePlanContext runs an already-built plan under ctx: once ctx is
// done the query stops consuming oracle calls and returns ctx's error.
// See ExecOptions for parallel oracle dispatch and progress reporting.
func (e *Engine) ExecutePlanContext(ctx context.Context, plan *query.Plan, opts ExecOptions) (*QueryResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	_, okT := e.tables[plan.Table]
	oracleFn, okO := e.oracles[plan.OracleUDF]
	missingProxy := ""
	for _, p := range plan.Source.Proxies {
		if _, ok := e.proxies[p]; !ok {
			missingProxy = p
			break
		}
	}
	okP := missingProxy == "" && len(plan.Source.Proxies) > 0
	seed := e.seed
	// The label cache handle must be snapshotted under the same lock
	// that read oracleFn: invalidation (RegisterOracle et al.) replaces
	// the UDF and kills the cache atomically under e.mu, so pairing the
	// reads here guarantees a query can never write labels bought from
	// a superseded oracle into the replacement cache — a later
	// re-registration kills this handle, turning its writes into no-ops.
	var labelCache *labelstore.Cache
	if e.labels != nil && okT && okO {
		labelCache = e.labels.Cache(plan.Table, plan.OracleUDF)
	}
	e.mu.RUnlock()

	if !okT {
		return nil, fmt.Errorf("engine: %w %q (known: %v)", ErrUnknownTable, plan.Table, e.TableNames())
	}
	if !okO {
		return nil, fmt.Errorf("engine: unknown oracle UDF %q", plan.OracleUDF)
	}
	if !okP {
		return nil, fmt.Errorf("engine: unknown proxy UDF %q", missingProxy)
	}

	start := time.Now()
	// Stage 1 (§4.1): the proxy scan over the complete set of records,
	// performed once per (table, proxy) registration and indexed.
	entry, built, err := e.tableIndex(plan)
	if err != nil {
		return nil, err
	}

	rng := randx.New(seed).Stream(hashString(plan.SourceText))
	progress := newProgressCounter(opts.Progress)
	orc := e.buildOracle(ctx, plan, oracleFn, opts, progress)
	e.counters.QueryExecuted()

	// Wire the shared label store into the budget wrapper. The grammar's
	// REUSE FREE clause and the per-execution option are equivalent —
	// either makes warm hits free instead of budget-charged.
	var sopts core.SelectOptions
	if labelCache != nil {
		sopts.Store = labelCache
		sopts.FreeReuse = opts.FreeReuse || plan.FreeReuse
		if opts.Progress != nil {
			// Charged store hits never reach the counting wrapper below
			// the dispatcher, yet they consume budget; routing them
			// through the same cumulative counter keeps progress totals
			// equal to the result's OracleCalls (see Budgeted.Used).
			sopts.OnCachedCharge = progress.add
		}
	}

	ix := entry.res.ix
	res := &QueryResult{Plan: plan, Table: entry.table, Index: ix}
	if built {
		if entry.res.recovered {
			res.IndexRecovered = true
		} else {
			res.IndexBuilt = true
		}
	}
	if !plan.Source.Single() {
		res.Fusion = plan.Source.Fusion.String()
	}
	if built {
		res.ProxyCalls = entry.res.proxyCalls
		res.ProxyElapsed = entry.elapsed
		res.CalibrationCalls = entry.res.calibCalls
		res.CalibrationCacheHits = entry.res.calibHits
	}
	switch plan.Kind {
	case query.PlanBudgeted:
		// core.SelectFromContextOptions, without its listing: the budget
		// wrapper it builds, then SelectBudgeted's compact answer.
		budgeted := oracle.NewBudgeted(orc, plan.Spec.Budget).WithContext(ctx).
			WithStore(sopts.Store, sopts.FreeReuse).WithChargeHook(sopts.OnCachedCharge)
		sel, err := core.SelectBudgeted(rng, ix, budgeted, plan.Spec, plan.Config)
		if err != nil {
			oracle.NoteLabelsFolded(err, budgeted.Used())
			return nil, err
		}
		res.Answer = sel.Answer()
		res.Tau = sel.Tau
		res.OracleCalls = sel.OracleCalls
		res.LabelCacheHits = sel.CachedLabels
	case query.PlanJoint:
		sel, err := core.SelectJointFromContextOptions(ctx, rng, ix, orc, plan.JointSpec, plan.Config, sopts)
		if err != nil {
			return nil, err
		}
		res.Answer = core.Answer{Tau: math.Inf(1), Extra: sel.Indices}
		res.Tau = sel.Tau
		res.OracleCalls = sel.OracleCalls
		res.LabelCacheHits = sel.CachedLabels
	default:
		return nil, fmt.Errorf("engine: unknown plan kind %d", int(plan.Kind))
	}
	if !opts.OmitIndices {
		res.Indices = res.Answer.List(ix)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// buildOracle stacks the execution options onto the raw oracle UDF.
// From the inside out: the resilience wrapper (per-attempt timeouts,
// retries with deterministic backoff jitter, the per-oracle shared
// circuit breaker) so a transient failure is retried for the failing
// record alone; the progress-counting wrapper, which therefore counts
// only finally-successful invocations; and, when parallelism is
// requested, the batch dispatcher that overlaps oracle latency across
// goroutines. The resilience jitter seed derives from the engine seed
// and the query text — a pure function, so a replayed query backs off
// on an identical schedule regardless of interleaving.
func (e *Engine) buildOracle(ctx context.Context, plan *query.Plan, fn OracleUDF, opts ExecOptions, progress *progressCounter) oracle.Oracle {
	var orc oracle.Oracle = oracle.Func(fn)
	if e.resilient.Enabled() {
		ropts := e.resilient
		ropts.Seed = e.seed ^ hashString("resilient:"+plan.SourceText)
		orc = oracle.NewResilient(orc, ropts).
			WithBreaker(e.breakerFor(plan.OracleUDF)).WithContext(ctx).WithCounters(e.counters)
	}
	if opts.Progress != nil {
		orc = &countingOracle{inner: orc, progress: progress}
	}
	if opts.OracleParallelism > 1 {
		orc = oracle.NewDispatcher(orc, opts.OracleParallelism).WithCounters(e.counters)
	}
	return orc
}

// progressCounter accumulates budget-consuming oracle calls from both
// sources — real UDF invocations (via countingOracle) and charged
// label-store hits (via the Budgeted charge hook) — into one
// cumulative total for the progress hook, so progress reports always
// agree with the result's OracleCalls. The mutex spans the add and the
// hook call, so dispatcher workers deliver their totals one at a time,
// in increasing order. Nil-safe: a nil counter or nil hook records
// nothing.
type progressCounter struct {
	mu    sync.Mutex
	calls int
	hook  func(int)
}

func newProgressCounter(hook func(int)) *progressCounter {
	return &progressCounter{hook: hook}
}

func (p *progressCounter) add(n int) {
	if p == nil || p.hook == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls += n
	p.hook(p.calls)
}

// countingOracle reports successful oracle invocations to the shared
// progress counter. It sits below the budget wrapper, so every counted
// call is budget-consuming (memoized repeats and store hits never
// reach it), and below the dispatcher, so counts arrive as calls
// complete.
type countingOracle struct {
	inner    oracle.Oracle
	progress *progressCounter
}

func (c *countingOracle) Label(i int) (bool, error) {
	v, err := c.inner.Label(i)
	if err == nil {
		c.progress.add(1)
	}
	return v, err
}

// tableIndex returns the shared ScoreIndex for the plan's (table,
// score source) pair, building it on first use. The second return
// reports whether this call performed the build. The current table,
// member proxy, and — for calibrated fusions — oracle and label-store
// registrations are captured (into the build closure) under the write
// lock that publishes the entry, so a concurrent re-registration
// either deletes the slot before publication (the build sees the new
// state) or after (the slot is gone and the next query snapshots
// afresh) — a cached index can never outlive the registrations it was
// built from. A build error is cached with the entry — the proxies are
// deterministic by contract and calibration randomness is derived from
// the engine seed plus the source identity, so retrying cannot succeed
// until a member registration changes (which drops the entry).
func (e *Engine) tableIndex(plan *query.Plan) (*indexEntry, bool, error) {
	key := indexKey{table: plan.Table, source: plan.Source.CacheKey(plan.OracleUDF)}
	e.mu.RLock()
	entry := e.indexes[key]
	e.mu.RUnlock()
	if entry == nil {
		e.mu.Lock()
		entry = e.indexes[key]
		if entry == nil {
			var err error
			entry, err = e.newIndexEntryLocked(key, plan)
			if err != nil {
				e.mu.Unlock()
				return nil, false, err
			}
			e.indexes[key] = entry
		}
		e.mu.Unlock()
	}
	built := entry.ensure()
	if entry.err != nil {
		return nil, built, entry.err
	}
	if built {
		// Flush the fresh index to the durable tier (off the engine
		// lock; no-op when persistence is off or the entry adopted its
		// persisted index whole).
		e.persistIndex(key, entry)
	}
	return entry, built, nil
}

// newIndexEntryLocked snapshots the registrations the plan's score
// source reads and returns an unbuilt cache entry for it. Callers hold
// e.mu for writing.
func (e *Engine) newIndexEntryLocked(key indexKey, plan *query.Plan) (*indexEntry, error) {
	table, okT := e.tables[plan.Table]
	if !okT {
		return nil, fmt.Errorf("engine: table %q no longer registered", plan.Table)
	}
	src := plan.Source
	fns := make([]ProxyUDF, len(src.Proxies))
	for i, p := range src.Proxies {
		fn, ok := e.proxies[p]
		if !ok {
			return nil, fmt.Errorf("engine: table %q / proxy %q no longer registered", plan.Table, p)
		}
		fns[i] = fn
	}
	entry := &indexEntry{
		proxies: append([]string(nil), src.Proxies...),
		fusion:  src.Fusion,
		table:   table,
	}
	if src.Fusion.Calibrated() {
		entry.calibOracle = plan.OracleUDF
	}
	fresh, err := e.freshBuildLocked(key, plan, table, fns)
	if err != nil {
		return nil, err
	}
	entry.build = fresh
	// A staged recovered index for this exact (table, source) short-
	// circuits the build: the entry adopts the persisted permutation
	// (whole, or as the base of an append chain when the table grew
	// since the flush) once its first use has checked it, and runs
	// fresh instead if that check fails.
	if adopted := e.adoptStagedLocked(key, src, table, fns, fresh); adopted != nil {
		entry.build = adopted
	}
	// Read after adoption: its durable drop of an unusable staged index
	// advances the epoch, and must not abandon this entry's own flush.
	entry.epoch = e.storeEpoch(key.table)
	return entry, nil
}

// freshBuildLocked returns the build that scans the member proxies over
// the whole table and indexes the (fused) column, over the
// registrations snapshotted now. Callers hold e.mu for writing.
func (e *Engine) freshBuildLocked(key indexKey, plan *query.Plan, table *dataset.Dataset, fns []ProxyUDF) (func() (built, error), error) {
	src := plan.Source
	opts := e.ixOpts
	sourceID := key.source
	if !src.Fusion.Calibrated() {
		return func() (built, error) {
			n := table.Len()
			b := built{proxyCalls: len(fns) * n}
			scores, err := fuseRange(fns, src.Fusion, 0, n, opts.Parallelism)
			if err == nil {
				b.ix, err = index.NewWithOptions(scores, opts)
			}
			if err != nil {
				return b, fmt.Errorf("engine: source %q: %w", sourceID, err)
			}
			return b, nil
		}, nil
	}

	fuser, err := fuserFor(src.Fusion, src.CalibrationBudget)
	if err != nil {
		return nil, err
	}
	// Calibrated fusions label their calibration sample through a
	// dedicated budgeted oracle backed by the cross-query label store:
	// the first build pays real oracle calls, and any rebuild of the
	// same source (after a proxy re-registration or an append) is served
	// warm. The calibration random stream derives from the engine seed
	// and the source identity — never from the query text — so every
	// query of the source shares one fused column.
	oracleFn, okO := e.oracles[plan.OracleUDF]
	if !okO {
		return nil, fmt.Errorf("engine: oracle UDF %q no longer registered", plan.OracleUDF)
	}
	var labelCache *labelstore.Cache
	if e.labels != nil {
		labelCache = e.labels.Cache(plan.Table, plan.OracleUDF)
	}
	seed := e.seed
	return func() (built, error) {
		n := table.Len()
		cols := make([][]float64, len(fns))
		for i, fn := range fns {
			cols[i] = scoreRange(fn, 0, n, opts.Parallelism)
		}
		b := built{proxyCalls: len(fns) * n}
		budgeted := oracle.NewBudgeted(oracle.Func(oracleFn), fuser.CalibrationBudget)
		if labelCache != nil {
			// Guard before the interface conversion: a typed-nil
			// *labelstore.Cache would defeat WithStore's nil check and
			// panic on first use when the label store is disabled.
			budgeted.WithStore(labelCache, false)
		}
		rng := randx.New(seed).Stream(hashString("calibrate:" + sourceID))
		fused, err := fuser.Fuse(rng, cols, budgeted)
		if err != nil {
			return b, fmt.Errorf("engine: source %q: %w", sourceID, err)
		}
		b.calibCalls = fused.CalibrationCalls
		b.calibHits = fused.CalibrationStoreHits
		ix, err := index.NewWithOptions(fused.Scores, opts)
		if err != nil {
			return b, fmt.Errorf("engine: source %q: %w", sourceID, err)
		}
		b.ix = ix
		return b, nil
	}, nil
}

// scoreBlock is the number of records one proxy-scoring task
// evaluates. Blocks are fixed, so the records scored together never
// depend on the worker count.
const scoreBlock = 4096

// scoreRange evaluates the proxy over records [lo, hi) in scoreBlock
// blocks across at most par goroutines (1 scores on the calling
// goroutine), returning the hi-lo scores in record order.
func scoreRange(proxyFn ProxyUDF, lo, hi, par int) []float64 {
	scores := make([]float64, hi-lo)
	blocks := (len(scores) + scoreBlock - 1) / scoreBlock
	parallel.Run(par, blocks, func(b int) {
		start := b * scoreBlock
		end := min(start+scoreBlock, len(scores))
		for i := start; i < end; i++ {
			scores[i] = proxyFn(lo + i)
		}
	})
	return scores
}

// Table returns the dataset registered under name (nil when absent):
// the version queries of the name run against now, appends included.
func (e *Engine) Table(name string) *dataset.Dataset {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tables[name]
}

// TableNames returns the names of the registered tables, sorted.
func (e *Engine) TableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tableNamesLocked()
}

// tableNamesLocked is TableNames for callers already holding e.mu.
func (e *Engine) tableNamesLocked() []string {
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hashString is FNV-1a, used to derive per-query random streams.
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
