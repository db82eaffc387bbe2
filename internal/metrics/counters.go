package metrics

import "sync/atomic"

// Counters records the service totals no other package owns: async job
// lifecycle transitions, engine query executions, batch-oracle dispatch
// volume, and the resilience layer's retries and timeouts. The label
// store, the storage tier and the circuit breakers keep their own
// totals; Snapshot reads them through the function the counters were
// built with (NewCounters) instead of counting them a second time. All
// methods are goroutine-safe and nil-safe — a nil *Counters records
// nothing, so instrumented code never needs a nil check at the call
// site.
type Counters struct {
	jobsSubmitted atomic.Int64
	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsCancelled atomic.Int64

	queries atomic.Int64

	dispatchBatches atomic.Int64
	dispatchCalls   atomic.Int64

	oracleRetries  atomic.Int64
	oracleTimeouts atomic.Int64

	// read fills the snapshot fields other packages own (nil leaves
	// them zero).
	read func(*CounterSnapshot)
}

// NewCounters returns counters whose Snapshot fills the label-store,
// WAL, storage and breaker fields by calling read. The zero Counters
// value leaves those fields zero.
func NewCounters(read func(*CounterSnapshot)) *Counters {
	return &Counters{read: read}
}

// JobSubmitted records a job accepted into the queue.
func (c *Counters) JobSubmitted() {
	if c != nil {
		c.jobsSubmitted.Add(1)
	}
}

// JobDone records a job that finished successfully.
func (c *Counters) JobDone() {
	if c != nil {
		c.jobsDone.Add(1)
	}
}

// JobFailed records a job that finished with an error.
func (c *Counters) JobFailed() {
	if c != nil {
		c.jobsFailed.Add(1)
	}
}

// JobCancelled records a job cancelled before or during execution.
func (c *Counters) JobCancelled() {
	if c != nil {
		c.jobsCancelled.Add(1)
	}
}

// QueryExecuted records one engine query execution (sync or async).
func (c *Counters) QueryExecuted() {
	if c != nil {
		c.queries.Add(1)
	}
}

// DispatchBatch records one batch-oracle dispatch of n label fetches.
func (c *Counters) DispatchBatch(n int) {
	if c != nil {
		c.dispatchBatches.Add(1)
		c.dispatchCalls.Add(int64(n))
	}
}

// OracleRetries records n transient oracle failures that were retried
// by the resilience layer.
func (c *Counters) OracleRetries(n int64) {
	if c != nil {
		c.oracleRetries.Add(n)
	}
}

// OracleTimeouts records n oracle attempts abandoned by the per-call
// timeout.
func (c *Counters) OracleTimeouts(n int64) {
	if c != nil {
		c.oracleTimeouts.Add(n)
	}
}

// CounterSnapshot is a point-in-time copy of the service totals, shaped
// for the /v1/stats endpoint. The label_cache_* and wal_* fields are the
// label store's own totals (labelstore.Stats), the storage_* fields the
// storage tier's (storage.Stats), and breaker_state is read from the
// circuit breakers; Counters records the rest.
type CounterSnapshot struct {
	JobsSubmitted   int64 `json:"jobs_submitted"`
	JobsDone        int64 `json:"jobs_done"`
	JobsFailed      int64 `json:"jobs_failed"`
	JobsCancelled   int64 `json:"jobs_cancelled"`
	Queries         int64 `json:"queries"`
	DispatchBatches int64 `json:"oracle_dispatch_batches"`
	DispatchCalls   int64 `json:"oracle_dispatch_calls"`

	LabelCacheHits          int64 `json:"label_cache_hits"`
	LabelCacheMisses        int64 `json:"label_cache_misses"`
	LabelCacheEvictions     int64 `json:"label_cache_evictions"`
	LabelCacheInvalidations int64 `json:"label_cache_invalidations"`

	OracleRetries  int64 `json:"oracle_retries"`
	OracleTimeouts int64 `json:"oracle_timeouts"`
	// BreakerState is the number of circuit breakers currently not
	// closed (0 = all oracle backends healthy).
	BreakerState int64 `json:"breaker_state"`

	// WALRecords is the number of frames currently in the label store's
	// write-ahead log (it drops after a compaction); WALReplayed the
	// number of labels restored from it on boot.
	WALRecords  int64 `json:"wal_records"`
	WALReplayed int64 `json:"wal_replayed"`

	StorageSegmentsPersisted int64 `json:"storage_segments_persisted"`
	StorageTablesRecovered   int64 `json:"storage_tables_recovered"`
	StorageIndexesRecovered  int64 `json:"storage_indexes_recovered"`
	StorageSegmentsRecovered int64 `json:"storage_segments_recovered"`
	// StorageMappedBytes is a gauge: persisted bytes currently mmap'd.
	StorageMappedBytes int64 `json:"storage_mapped_bytes"`
	// StorageRecoveryMillis is a gauge: duration of the last recovery.
	StorageRecoveryMillis int64 `json:"storage_recovery_ms"`
	// StorageManifestRecords is a gauge: frames in the manifest log.
	StorageManifestRecords     int64 `json:"storage_manifest_records"`
	StorageManifestCompactions int64 `json:"storage_manifest_compactions"`
	// StorageDegraded counts the storage tier's degraded notes: persisted
	// state found corrupt and dropped for a rebuild, at boot or when a
	// query first used it.
	StorageDegraded int64 `json:"storage_degraded"`
}

// Snapshot returns a consistent-enough copy of the totals (each field
// is read atomically or under its owner's lock; cross-field skew is
// acceptable for monitoring).
func (c *Counters) Snapshot() CounterSnapshot {
	if c == nil {
		return CounterSnapshot{}
	}
	snap := CounterSnapshot{
		JobsSubmitted:   c.jobsSubmitted.Load(),
		JobsDone:        c.jobsDone.Load(),
		JobsFailed:      c.jobsFailed.Load(),
		JobsCancelled:   c.jobsCancelled.Load(),
		Queries:         c.queries.Load(),
		DispatchBatches: c.dispatchBatches.Load(),
		DispatchCalls:   c.dispatchCalls.Load(),
		OracleRetries:   c.oracleRetries.Load(),
		OracleTimeouts:  c.oracleTimeouts.Load(),
	}
	if c.read != nil {
		c.read(&snap)
	}
	return snap
}
