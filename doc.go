// Package supg is a Go implementation of SUPG — approximate selection
// queries with statistical guarantees using proxies (Kang, Gan, Bailis,
// Hashimoto, Zaharia; PVLDB 13(11), 2020).
//
// A SUPG query selects the records of a dataset matching an expensive
// oracle predicate (a human labeler or a large model) using only a
// limited budget of oracle calls, guided by cheap proxy scores. Unlike
// the empirical-cutoff heuristics of earlier systems, SUPG queries come
// with a probabilistic guarantee: the returned set meets a minimum
// recall or precision target with probability at least 1-delta.
//
// # Quick start
//
//	scores := ...                  // proxy confidence per record, in [0,1]
//	oracle := supg.OracleFunc(func(i int) (bool, error) {
//	    return expensiveCheck(i), nil // human label or big-model call
//	})
//	res, err := supg.Run(scores, oracle, supg.Query{
//	    Kind:        supg.RecallQuery,
//	    Target:      0.90,
//	    Probability: 0.95,
//	    OracleLimit: 1000,
//	})
//	// res.Indices meets 90% recall with >= 95% probability.
//
// The SQL-style interface of the paper's Figure 3 is available through
// Engine:
//
//	eng, err := supg.OpenEngine(42, supg.EngineOptions{})
//	if err != nil {
//	    log.Fatal(err)
//	}
//	defer eng.Close()
//	eng.RegisterDatasetDefaults("video", ds)
//	res, err := eng.ExecuteContext(ctx, `
//	    SELECT * FROM video
//	    WHERE video_oracle(frame) = true
//	    ORACLE LIMIT 1000
//	    USING video_proxy(frame)
//	    RECALL TARGET 90%
//	    WITH PROBABILITY 95%`, supg.ExecOptions{})
//
// # Algorithms
//
// Run defaults to the paper's SUPG configuration: importance sampling
// with square-root proxy weights, 10% defensive uniform mixing, and
// two-stage sampling for precision targets. The baselines evaluated in
// the paper (uniform sampling with and without confidence intervals)
// are available through WithMethod for comparison, and the
// confidence-interval construction, weight exponent, mixing ratio and
// candidate stride are all tunable through Options.
//
// # Performance architecture
//
// The proxy is cheap but the dataset is large, so everything derived
// from the score column is computed once and reused. The first query
// of a registered (table, proxy) pair evaluates the proxy over all n
// records and builds an immutable ScoreIndex (internal/index): the
// validated score vector, an ascending permutation of record ids by
// score, and a cache of defensive-mixture alias tables keyed by
// (weight exponent, mixing ratio). Each cached mixture also memoizes
// the stage-2 tables of two-stage precision queries (Algorithm 5),
// which restrict it to D' = {x : A(x) >= a_cut}, keyed by a_cut. Every
// later query — including concurrent queries of the same table — runs
// against that shared index: threshold counts are binary searches,
// weighted draws come from the cached alias tables, and the answer is
// carried as tau plus the few sampled positives below it (a
// core.Answer, QueryResult.Answer). Listing it (QueryResult.Indices,
// which the zero ExecOptions fill) gathers the selected suffix
// {x : A(x) >= tau} in ascending id order through a per-segment bitmap
// in which the sampled positives are marked too, so no merge follows.
// The HTTP server lists nothing (ExecOptions.OmitIndices): it counts
// the answer, evaluates it by walking each segment's sorted suffix,
// and streams requested ids from the same bitmap gather. Steady-state
// query cost is therefore O(oracle budget + |result|) with a handful
// of allocations, none of them O(|result|) on the served path, plus
// O(|D'|) the first time a precision query uses a cut, instead of the
// O(n log n) time and O(n) allocations per query of a re-scanning
// implementation; see README.md for measured numbers.
//
// The one-shot supg.Run path computes the same artifacts lazily per
// call and returns bit-identical results for the same seed.
//
// # Segmented index and incremental appends
//
// The ScoreIndex is segmented: the column is split into fixed-size
// segments (default 256Ki records, tunable via engine/server options),
// each holding its own sorted (score, id) permutation, built in
// parallel across a bounded worker pool at registration time. The
// layout is invisible to queries — threshold counts sum per-segment
// binary searches, order statistics come from an exact bit-space
// binary search, suffix extraction concatenates per-segment ascending
// id runs, and the defensive-mixture weights come from the whole
// column before feeding the same global alias table — so results are
// bit-for-bit identical at every segment size, which the test suite
// asserts segment size by segment size. The same bounded fan-out splits
// two per-query phases — id gathers of 16Ki or more ids, segment by
// segment, and mixture builds, in fixed blocks of records — with
// identical results at every worker count.
//
// Segmentation buys two operational properties. Registration of large
// tables parallelizes: segments sort independently, each with a stable
// radix sort on its scores' bit patterns (at most six linear passes,
// so O(n) work however the column is cut). And tables can grow in place:
// engine.AppendTable / PUT /v1/datasets/{name}/append extend a table
// by indexing only the appended records as fresh segments — existing
// permutations are reused verbatim — instead of re-scanning and
// re-sorting everything, making a 256k-record append several times
// cheaper than re-registration while cached queries keep running
// against the old index until the extension is published.
//
// # Testing guarantees
//
// The guarantee machinery is protected by two complementary test
// layers. Equivalence tests pin the implementation: for fixed seeds,
// the segmented path must return byte-identical Indices and Tau to the
// monolithic and raw-slice paths across estimator families
// (SUPG/U-CI/U-NoCI/finite-sample), query kinds (recall, precision,
// joint), segment sizes (1, 7, 1024, n), and growth histories (one
// shot vs chains of appends). Statistical regression tests pin the
// semantics: a deterministic-seed Monte-Carlo harness (the Figure 5/6
// failure-rate machinery at reduced scale) runs repeated trials on the
// segmented path and asserts the empirical failure rate stays within
// delta plus a slack chosen so the check cannot flake. The dataset
// parsers guarding the upload/append endpoints carry native Go fuzz
// targets with committed seed corpora, and a -race stress test
// exercises concurrent append + query + re-registration.
//
// # Async jobs and concurrent oracle dispatch
//
// The oracle dominates query latency (it models a human labeler or a
// ground-truth DNN), so the HTTP service executes queries as
// asynchronous jobs and labels oracle samples concurrently. The
// samplers draw the full index set before labeling, which lets
// internal/oracle's Dispatcher fetch the labels with bounded
// parallelism and merge them back in draw order: results are
// bit-for-bit identical to sequential execution for the same seed at
// any parallelism. Queries take a context (engine.ExecutePlanContext)
// checked on every uncached oracle call, so cancelling a job stops
// budget consumption immediately.
//
// internal/jobs provides the job manager — a bounded worker pool with
// the lifecycle queued → running → done/failed/cancelled, per-job
// progress reporting of oracle calls consumed, and retention-based GC
// of finished jobs. internal/server exposes it as POST/GET/DELETE
// /v1/jobs endpoints next to the synchronous /v1/query convenience
// wrapper; cmd/supg-server drains in-flight jobs on SIGINT/SIGTERM.
// See README.md for the endpoint table and curl examples.
//
// # Cross-query label reuse
//
// Oracle labels are a pure function of the record index, so a label
// bought by one query is valid for every later query of the same
// (table, oracle UDF) pair. The engine keeps bought labels in a
// shared, bounded label store (internal/labelstore): one lock and one
// FIFO queue per cache, evicted oldest first under a configurable byte
// budget (EngineOptions.LabelCacheBytes, -label-cache-bytes), and
// invalidated whenever a table or oracle UDF is re-registered — while
// AppendTable extends a table without touching existing ids, so the
// store survives appends intact.
//
// Reuse comes in two charging modes. The default charged mode serves a
// stored label without calling the oracle UDF but still charges a
// budget unit for it, which makes warm results byte-identical to a
// cold run: the samplers draw the same records, budgets exhaust at the
// same points, and Indices/Tau/OracleCalls match exactly — the
// guarantees of the paper apply verbatim because nothing observable to
// the algorithm changed, only who answered. The opt-in reuse-free mode
// (ORACLE LIMIT ... REUSE FREE in the grammar, ExecOptions.FreeReuse,
// or "free_reuse": true over HTTP) makes stored labels free, so the
// same budget buys a larger effective sample: a fully-warm repeat of a
// query reports zero oracle calls. Hit/miss/eviction/invalidation
// counters are exposed through Engine.LabelStore().Stats() and
// GET /v1/stats.
//
// # Multi-proxy queries (FUSE score sources)
//
// Every layer below the parser speaks one score-source concept
// (query.ScoreSource): one or more proxy UDFs plus a fusion strategy,
// with the classic single-proxy query as the degenerate one-member
// source. The USING clause accepts
//
//	USING FUSE(mean | max | logistic, p1(col), p2(col), ...) [CALIBRATE k]
//
// mean and max are label-free per-record combinations; logistic fits a
// logistic-regression stacker on an oracle-labeled calibration sample
// (k labels; default a fifth of the ORACLE LIMIT, clamped to
// [30, limit/2]) and scores every record with it. Fusion never touches
// the statistical guarantees — they are agnostic to proxy quality — it
// only improves result quality when the proxies carry complementary
// signal.
//
// The engine builds the fused column once per (table, score source),
// indexes it through the same segmented builder as any proxy column,
// and caches it under the full source identity (proxy set, strategy,
// and for logistic the calibration budget and oracle UDF). Calibration
// is charged to index construction rather than the query's ORACLE
// LIMIT and reported separately (QueryResult.CalibrationCalls,
// calibration_calls over HTTP); its labels flow through the
// cross-query label store, so rebuilding a fused index — after a
// member proxy re-registration, say — recalibrates without invoking
// the oracle UDF at all. Label-free fused indexes extend incrementally
// on AppendTable; calibrated ones are rebuilt (warm) because the
// stacker must be refitted against the grown table. Re-registering any
// member proxy invalidates a fused index, and re-registering the
// calibration oracle invalidates every index fitted with its labels
// (Engine.WrapOracle, which only decorates, invalidates nothing).
//
// The library path RunMulti keeps the one-shot semantics: fusion via
// the same multiproxy.Fuser provider, with calibration charged against
// the query's own budget (WithCalibrationBudget overrides the
// default). See README.md ("Multi-proxy queries") and
// examples/multiproxy.
//
// # Fault tolerance and durability
//
// Oracle backends flake, stall, and crash; the resilience layer
// absorbs all three without changing query results. Failures are
// classified (internal/oracle): transient errors retry under capped
// exponential backoff with a per-attempt timeout, permanent errors and
// context cancellation fail immediately, and consecutive final
// failures trip a per-UDF circuit breaker (closed -> open -> half-open
// probe). Backoff jitter is a pure function of (seed, record index,
// attempt), so retries are deterministic at any dispatch parallelism:
// a run with injected transient failures is byte-identical in
// Indices/Tau/OracleCalls to a fault-free run (pinned by the chaos
// battery against oracle.Chaos, a seeded fault-injection wrapper).
// When retries exhaust or the breaker is open, the error unwraps to
// oracle.ErrOracleUnavailable carrying the labels folded before the
// failure; supg-server maps it to 503 with a Retry-After hint and
// flips GET /readyz to 503 while the breaker is open.
//
// The label store optionally journals every bought label to a
// CRC-framed, fsync'd write-ahead log (-label-wal) and replays it on
// boot, truncating any torn tail — a restarted server re-buys zero
// labels. Invalidations append tombstones, and a compaction pass
// (automatic on boot when the log is mostly dead) rewrites live
// labels into a fresh log via atomic rename. The log is an
// internal/framelog log, the same frame layout, replay, compaction and
// fail-stop code as the storage manifest below. See README.md ("Fault
// tolerance & durability") for the frame format and the recovery
// procedure.
//
// # Durable storage: zero-rescan recovery
//
// Labels are the only state worth money, but proxy scores and index
// permutations are the state worth time: at production scale, scoring
// millions of records takes hours, and before this tier a restart
// threw all of it away. internal/storage persists both — dataset
// columns and the per-segment immutable (score, id) permutations of
// every built index — as write-once files committed through a
// CRC-framed manifest log, an internal/framelog log like the label
// WAL, so torn-tail truncation and compaction are one code path for
// both. An engine opened with a
// persist directory (engine.Options.PersistDir, supg-server
// -persist-dir) flushes each index after build or append — an append
// writes only its tail, as one new dataset chunk and one new column
// chunk — and, after a restart, mmaps everything back (a grown table's
// chunks are copied into one heap column): its datasets at boot, and
// each index when the first query that needs it loads it, so an index
// no query reads is never mapped. Recovery re-sorts zero permutations
// and calls zero proxy UDFs — persisted segments are verified in O(n)
// on that first use (strict (score, id) ascent, bounds, bitwise
// agreement with the column), which pins the unique sort order and
// makes every recovered answer byte-identical to the pre-crash one.
// Corrupt or torn files are never served: the affected table or index
// degrades to a clean rebuild (durably dropped, reported in
// storage.Stats), and a torn manifest tail is truncated exactly like
// the WAL's. A clean
// shutdown also checkpoints each index's cached IS sampling mixtures
// (weights plus Vose alias table), which the first query after the
// next boot verifies and adopts instead of rebuilding. See
// README.md ("Durable storage") for the file formats, the
// invalidation rules, and the recovery procedure.
//
// # Static analysis
//
// The invariants above are machine-enforced by supglint
// (cmd/supglint, internal/lint): custom analyzers verify that
// result-path packages stay a pure function of (data, seed)
// [determinism], that errors crossing the oracle boundary carry a
// Transient/Permanent class and wrap with %w [errtaxonomy], that
// storage and WAL writes flow through the fsync'd tmp→rename commit
// helpers [atomiccommit], and that benchmarks in the CI-gated
// batteries report correctly [benchhygiene]. Deliberate exceptions
// are annotated in place with //supg:<check>-ok <reason>; stale or
// malformed annotations fail the build exactly like fresh
// violations. `make lint` runs the suite, and TestRepoIsLintClean
// pins the whole-module sweep clean at every commit. See README.md
// ("Static analysis: supglint") and the internal/lint package
// documentation for the annotation grammar and how to add an
// analyzer.
package supg
