package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"supg/internal/dataset"
	"supg/internal/oracle"
	"supg/internal/randx"
)

// resilienceSQL are the three query families of the paper (recall
// target, precision target, joint) the chaos battery pins.
var resilienceSQL = map[string]string{
	"RT": `
		SELECT * FROM video
		WHERE video_oracle(frame) = true
		ORACLE LIMIT 1000
		USING video_proxy(frame)
		RECALL TARGET 90%
		WITH PROBABILITY 95%`,
	"PT": `
		SELECT * FROM video
		WHERE video_oracle(frame) = true
		ORACLE LIMIT 1000
		USING video_proxy(frame)
		PRECISION TARGET 90%
		WITH PROBABILITY 95%`,
	"JT": `
		SELECT * FROM video
		WHERE video_oracle(frame) = true
		USING video_proxy(frame)
		RECALL TARGET 80%
		PRECISION TARGET 90%
		WITH PROBABILITY 95%`,
}

// registerVideo registers the test table with a plain (fault-free)
// oracle UDF over d's ground truth.
func registerVideo(e *Engine, d *dataset.Dataset) {
	e.RegisterTable("video", d)
	e.RegisterProxy("video_proxy", func(i int) float64 { return d.Score(i) })
	e.RegisterOracle("video_oracle", func(i int) (bool, error) { return d.TrueLabel(i), nil })
}

// TestChaosEquivalence is the tentpole guarantee: with 30% of oracle
// attempts failing transiently, a query retried by the resilience
// layer returns Indices, Tau, and OracleCalls byte-identical to a
// fault-free run — faults change latency, never answers.
func TestChaosEquivalence(t *testing.T) {
	d := dataset.Beta(randx.New(1), 30000, 0.01, 2)
	for name, sql := range resilienceSQL {
		t.Run(name, func(t *testing.T) {
			base := openEngine(t, 42, Options{})
			registerVideo(base, d)
			want, err := execute(base, sql)
			if err != nil {
				t.Fatal(err)
			}

			// 0.3^(1+retries) per-record exhaustion probability: with 24
			// retries it is ~3e-13 — deterministically zero failures for
			// any fixed seed that does not hit the bound, and this one
			// does not (the test would fail loudly if it did).
			chaotic := openEngine(t, 42, Options{
				OracleRetries: 24,
				OracleBackoff: time.Nanosecond,
			})
			chaotic.RegisterTable("video", d)
			chaotic.RegisterProxy("video_proxy", func(i int) float64 { return d.Score(i) })
			chaos := oracle.NewChaos(
				oracle.Func(func(i int) (bool, error) { return d.TrueLabel(i), nil }),
				oracle.ChaosOptions{Seed: 7, FailureRate: 0.3},
			)
			chaotic.RegisterOracle("video_oracle", chaos.Label)

			got, err := execute(chaotic, sql)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIndices(got.Indices, want.Indices) {
				t.Fatalf("Indices diverged under chaos: %d vs %d records", len(got.Indices), len(want.Indices))
			}
			if got.Tau != want.Tau {
				t.Fatalf("Tau diverged: %v vs %v", got.Tau, want.Tau)
			}
			if got.OracleCalls != want.OracleCalls {
				t.Fatalf("OracleCalls diverged: %d vs %d", got.OracleCalls, want.OracleCalls)
			}
			injected, _ := chaos.Injected()
			if injected == 0 {
				t.Fatal("chaos injected nothing; the equivalence is vacuous")
			}
			if got := chaotic.Counters().Snapshot().OracleRetries; got == 0 {
				t.Fatal("no retries recorded despite injected failures")
			}
			t.Logf("%s: %d injected transient failures, identical result", name, injected)
		})
	}
}

// TestChaosEquivalenceParallelDispatch repeats the RT equivalence
// under parallel oracle dispatch: retries happen per failing record
// inside the dispatcher's workers, and the merged result is still
// byte-identical.
func TestChaosEquivalenceParallelDispatch(t *testing.T) {
	d := dataset.Beta(randx.New(1), 30000, 0.01, 2)
	base := openEngine(t, 42, Options{})
	registerVideo(base, d)
	want, err := execute(base, resilienceSQL["RT"])
	if err != nil {
		t.Fatal(err)
	}

	chaotic := openEngine(t, 42, Options{OracleRetries: 24, OracleBackoff: time.Nanosecond})
	chaotic.RegisterTable("video", d)
	chaotic.RegisterProxy("video_proxy", func(i int) float64 { return d.Score(i) })
	chaos := oracle.NewChaos(
		oracle.Func(func(i int) (bool, error) { return d.TrueLabel(i), nil }),
		oracle.ChaosOptions{Seed: 3, FailureRate: 0.3},
	)
	chaotic.RegisterOracle("video_oracle", chaos.Label)
	got, err := chaotic.ExecuteContext(context.Background(), resilienceSQL["RT"], ExecOptions{
		OracleParallelism: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIndices(got.Indices, want.Indices) || got.Tau != want.Tau || got.OracleCalls != want.OracleCalls {
		t.Fatalf("parallel chaos run diverged: %d/%v/%d vs %d/%v/%d",
			len(got.Indices), got.Tau, got.OracleCalls, len(want.Indices), want.Tau, want.OracleCalls)
	}
}

// TestKillRestartZeroRebuy is the durability acceptance test: a query
// against a WAL-backed engine, then a simulated crash (new engine, same
// WAL), then the same query — which must make ZERO inner oracle UDF
// calls and return a byte-identical result.
func TestKillRestartZeroRebuy(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "labels.wal")
	d := dataset.Beta(randx.New(1), 30000, 0.01, 2)
	opts := Options{LabelWALPath: walPath}

	for name, sql := range resilienceSQL {
		t.Run(name, func(t *testing.T) {
			e1, calls1 := countingEngine(t, d, opts)
			want, err := execute(e1, sql)
			if err != nil {
				t.Fatal(err)
			}
			if calls1.Load() == 0 {
				t.Fatal("cold run made no oracle calls")
			}
			if err := e1.Close(); err != nil {
				t.Fatal(err)
			}

			// "Restart": a fresh engine process replays the WAL; the fresh
			// registrations must NOT invalidate the recovered labels.
			e2, calls2 := countingEngine(t, d, opts)
			if got := e2.LabelStore().Stats().WALReplayed; got == 0 {
				t.Fatal("nothing replayed from the WAL")
			}
			got, err := execute(e2, sql)
			if err != nil {
				t.Fatal(err)
			}
			if n := calls2.Load(); n != 0 {
				t.Fatalf("warm run re-bought %d labels, want 0", n)
			}
			if !sameIndices(got.Indices, want.Indices) || got.Tau != want.Tau || got.OracleCalls != want.OracleCalls {
				t.Fatalf("post-restart result diverged")
			}
			if got.LabelCacheHits != got.OracleCalls {
				t.Fatalf("warm run: %d cache hits vs %d oracle calls, want equal", got.LabelCacheHits, got.OracleCalls)
			}
		})
	}
}

// countingEngine opens an engine with opts and registers the test
// table like registerVideo, but with an oracle UDF that counts its
// calls. The engine is closed when the test ends.
func countingEngine(t *testing.T, d *dataset.Dataset, opts Options) (*Engine, *atomic.Int64) {
	t.Helper()
	e, err := Open(42, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	var udfCalls atomic.Int64
	e.RegisterTable("video", d)
	e.RegisterProxy("video_proxy", func(i int) float64 { return d.Score(i) })
	e.RegisterOracle("video_oracle", func(i int) (bool, error) {
		udfCalls.Add(1)
		return d.TrueLabel(i), nil
	})
	return e, &udfCalls
}

// TestKillRestartGroupCommit is the crash half of the durability
// contract. The label WAL fsyncs once per oracle batch, not per label,
// and each query's labels are durable before it returns: copying the
// log while the engine is still open (all a kill -9 leaves, since
// nothing buffered in the process survives) must hold every label the
// answer used, so a fresh engine on the copy answers byte-identically
// with zero oracle UDF calls. Every existing restart test closes the
// store first, which flushes the log and would hide a missing commit.
func TestKillRestartGroupCommit(t *testing.T) {
	d := dataset.Beta(randx.New(1), 30000, 0.01, 2)
	for name, sql := range resilienceSQL {
		t.Run(name, func(t *testing.T) {
			walPath := filepath.Join(t.TempDir(), "labels.wal")
			e1, calls1 := countingEngine(t, d, Options{LabelWALPath: walPath})
			want, err := execute(e1, sql)
			if err != nil {
				t.Fatal(err)
			}
			// RT labels one batch; PT (two-stage) and JT two.
			st := e1.LabelStore().Stats()
			if st.WALSyncs < 1 || st.WALSyncs > 2 {
				t.Errorf("query made %d WAL fsyncs, want 1 or 2 (one per oracle batch)", st.WALSyncs)
			}
			// One frame per fresh label, plus the cache definition the
			// first label writes.
			if st.WALRecords != calls1.Load()+1 {
				t.Errorf("query wrote %d WAL records for %d fresh labels", st.WALRecords, calls1.Load())
			}

			raw, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			killed := filepath.Join(t.TempDir(), "labels.wal")
			if err := os.WriteFile(killed, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			e2, calls2 := countingEngine(t, d, Options{LabelWALPath: killed})
			got, err := execute(e2, sql)
			if err != nil {
				t.Fatal(err)
			}
			if n := calls2.Load(); n != 0 {
				t.Fatalf("run on the kill copy re-bought %d labels, want 0", n)
			}
			if !sameIndices(got.Indices, want.Indices) || got.Tau != want.Tau || got.OracleCalls != want.OracleCalls {
				t.Fatal("run on the kill copy diverged")
			}
		})
	}

	// Relaxed mode keeps its own cadence: 4096 records per fsync, so a
	// query buying fewer labels never syncs.
	e, calls := countingEngine(t, d, Options{
		LabelWALPath:      filepath.Join(t.TempDir(), "labels.wal"),
		LabelWALSyncEvery: 4096,
	})
	if _, err := execute(e, resilienceSQL["PT"]); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 || calls.Load() >= 4096 {
		t.Fatalf("PT query bought %d labels; the relaxed check needs 1..4095", calls.Load())
	}
	if got := e.LabelStore().Stats().WALSyncs; got != 0 {
		t.Errorf("relaxed mode made %d fsyncs, want 0", got)
	}
}

// TestRestartThenReRegistrationInvalidates pins the other half of the
// recovery contract: replayed labels survive the FIRST registration of
// a name after boot, but a SECOND (re-)registration still invalidates
// them — durably, via a journaled tombstone.
func TestRestartThenReRegistrationInvalidates(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "labels.wal")
	opts := Options{LabelWALPath: walPath}
	d := dataset.Beta(randx.New(1), 30000, 0.01, 2)

	e1, err := Open(42, opts)
	if err != nil {
		t.Fatal(err)
	}
	registerVideo(e1, d)
	if _, err := execute(e1, resilienceSQL["RT"]); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	e2, err := Open(42, opts)
	if err != nil {
		t.Fatal(err)
	}
	registerVideo(e2, d)
	if e2.LabelStore().Len() == 0 {
		t.Fatal("labels did not survive first post-boot registration")
	}
	registerVideo(e2, d) // re-registration in-process: supersedes the labels
	if got := e2.LabelStore().Len(); got != 0 {
		t.Fatalf("labels survived re-registration: %d", got)
	}
	e2.Close()

	e3, err := Open(42, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if got := e3.LabelStore().Len(); got != 0 {
		t.Fatalf("tombstoned labels resurrected after restart: %d", got)
	}
}

// failAfterOracle succeeds for the first n calls, then fails
// transiently forever.
func failAfterOracle(d *dataset.Dataset, n int64) (OracleUDF, *atomic.Int64) {
	var calls atomic.Int64
	return func(i int) (bool, error) {
		if calls.Add(1) > n {
			return false, oracle.Transient(errors.New("backend down"))
		}
		return d.TrueLabel(i), nil
	}, &calls
}

// TestBreakerFailFastWithDiagnostic drives the graceful-degradation
// path end to end: an oracle that dies mid-query surfaces a typed
// ErrOracleUnavailable carrying the labels-folded-so-far count, repeated
// failures trip the shared breaker, and further queries fail fast.
func TestBreakerFailFastWithDiagnostic(t *testing.T) {
	d := dataset.Beta(randx.New(1), 30000, 0.01, 2)
	e := openEngine(t, 42, Options{
		OracleRetries:    1,
		OracleBackoff:    time.Nanosecond,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour,
	})
	e.RegisterTable("video", d)
	e.RegisterProxy("video_proxy", func(i int) float64 { return d.Score(i) })
	udf, _ := failAfterOracle(d, 5)
	e.RegisterOracle("video_oracle", udf)

	for q := 0; q < 3; q++ {
		_, err := execute(e, resilienceSQL["RT"])
		if !errors.Is(err, oracle.ErrOracleUnavailable) {
			t.Fatalf("query %d: err = %v, want ErrOracleUnavailable", q, err)
		}
		var ue *oracle.UnavailableError
		if !errors.As(err, &ue) {
			t.Fatalf("query %d: no UnavailableError in chain", q)
		}
		// The first query bought 5 labels before the outage; warm
		// repeats fold the same 5 from the label store.
		if ue.LabelsFolded != 5 {
			t.Fatalf("query %d: LabelsFolded = %d, want 5", q, ue.LabelsFolded)
		}
	}
	if got := e.OpenBreakers(); got != 1 {
		t.Fatalf("OpenBreakers = %d, want 1 after threshold failures", got)
	}
	if got := e.Breaker("video_oracle").State(); got != oracle.BreakerOpen {
		t.Fatalf("breaker state %v, want open", got)
	}

	// Fail-fast: the breaker refuses the call without touching the UDF.
	_, err := execute(e, resilienceSQL["RT"])
	if !errors.Is(err, oracle.ErrOracleUnavailable) || !errors.Is(err, oracle.ErrBreakerOpen) {
		t.Fatalf("breaker-open query: err = %v, want breaker-open unavailable", err)
	}
}

// TestResilienceDisabledIsTransparent pins that the default Options
// add no wrapper: a failing oracle error propagates raw (no
// UnavailableError, no breaker).
func TestResilienceDisabledIsTransparent(t *testing.T) {
	d := dataset.Beta(randx.New(1), 30000, 0.01, 2)
	e := openEngine(t, 42, Options{})
	e.RegisterTable("video", d)
	e.RegisterProxy("video_proxy", func(i int) float64 { return d.Score(i) })
	raw := errors.New("plain failure")
	e.RegisterOracle("video_oracle", func(i int) (bool, error) { return false, raw })
	_, err := execute(e, resilienceSQL["RT"])
	if err == nil || errors.Is(err, oracle.ErrOracleUnavailable) {
		t.Fatalf("err = %v, want the raw error", err)
	}
	if !errors.Is(err, raw) {
		t.Fatalf("err = %v does not wrap the raw failure", err)
	}
	if got := e.OpenBreakers(); got != 0 {
		t.Fatalf("OpenBreakers = %d without resilience", got)
	}
}
