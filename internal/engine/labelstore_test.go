package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"supg/internal/dataset"
	"supg/internal/randx"
)

// countedEngine returns an engine whose oracle UDF counts its real
// invocations, so tests can observe the label store short-circuiting
// the oracle.
func countedEngine(t testing.TB, opts Options) (*Engine, *dataset.Dataset, *atomic.Int64) {
	t.Helper()
	d := dataset.Beta(randx.New(1), 30000, 0.01, 2)
	e := openEngine(t, 42, opts)
	var udfCalls atomic.Int64
	e.RegisterTable("video", d)
	e.RegisterProxy("video_proxy", func(i int) float64 { return d.Score(i) })
	e.RegisterOracle("video_oracle", func(i int) (bool, error) {
		udfCalls.Add(1)
		return d.TrueLabel(i), nil
	})
	return e, d, &udfCalls
}

func sameIndices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWarmChargedRunIsByteIdentical is the tentpole equivalence test:
// a repeated identical query served from the label store (default
// charged mode) returns byte-identical Indices, Tau, and OracleCalls
// to the cold run, and its inner-oracle call count drops to zero.
func TestWarmChargedRunIsByteIdentical(t *testing.T) {
	for _, sql := range []string{engineRT, `
		SELECT * FROM video
		WHERE video_oracle(frame) = true
		ORACLE LIMIT 1000
		USING video_proxy(frame)
		PRECISION TARGET 90%
		WITH PROBABILITY 95%`, `
		SELECT * FROM video
		WHERE video_oracle(frame) = true
		USING video_proxy(frame)
		RECALL TARGET 80%
		PRECISION TARGET 90%
		WITH PROBABILITY 95%`} {
		e, _, udfCalls := countedEngine(t, Options{})
		cold, err := execute(e, sql)
		if err != nil {
			t.Fatal(err)
		}
		coldUDF := udfCalls.Load()
		if coldUDF == 0 {
			t.Fatal("cold run made no oracle UDF calls")
		}
		if cold.LabelCacheHits != 0 {
			t.Errorf("cold run reported %d label cache hits", cold.LabelCacheHits)
		}

		warm, err := execute(e, sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := udfCalls.Load() - coldUDF; got != 0 {
			t.Errorf("warm run made %d oracle UDF calls, want 0", got)
		}
		if !sameIndices(cold.Indices, warm.Indices) {
			t.Errorf("warm Indices diverged: %d vs %d records", len(warm.Indices), len(cold.Indices))
		}
		if cold.Tau != warm.Tau {
			t.Errorf("warm Tau %v, cold Tau %v", warm.Tau, cold.Tau)
		}
		if cold.OracleCalls != warm.OracleCalls {
			t.Errorf("warm OracleCalls %d, cold %d (charged mode must re-charge)", warm.OracleCalls, cold.OracleCalls)
		}
		if warm.LabelCacheHits != warm.OracleCalls {
			t.Errorf("warm LabelCacheHits %d, want all %d charged calls served from store", warm.LabelCacheHits, warm.OracleCalls)
		}
	}
}

// TestWarmRunMatchesStorelessEngine pins charged mode against an
// engine with the store disabled: the store may change only who
// answers, never what is answered.
func TestWarmRunMatchesStorelessEngine(t *testing.T) {
	bare, _, _ := countedEngine(t, Options{LabelCacheBytes: -1})
	if bare.LabelStore() != nil {
		t.Fatal("negative LabelCacheBytes did not disable the store")
	}
	want, err := execute(bare, engineRT)
	if err != nil {
		t.Fatal(err)
	}

	cached, _, _ := countedEngine(t, Options{})
	if _, err := execute(cached, engineRT); err != nil { // cold, fills store
		t.Fatal(err)
	}
	got, err := execute(cached, engineRT) // warm
	if err != nil {
		t.Fatal(err)
	}
	if !sameIndices(want.Indices, got.Indices) || want.Tau != got.Tau || want.OracleCalls != got.OracleCalls {
		t.Errorf("warm run diverged from storeless engine: indices %d/%d tau %v/%v calls %d/%d",
			len(got.Indices), len(want.Indices), got.Tau, want.Tau, got.OracleCalls, want.OracleCalls)
	}
}

const engineRTFree = `
	SELECT * FROM video
	WHERE video_oracle(frame) = true
	ORACLE LIMIT 1000 REUSE FREE
	USING video_proxy(frame)
	RECALL TARGET 90%
	WITH PROBABILITY 95%`

// TestFreeReuseStretchesSampleBudget runs the REUSE FREE grammar form
// twice: the second run draws every label from the store, consuming
// zero budget while returning the identical result.
func TestFreeReuseStretchesSampleBudget(t *testing.T) {
	e, _, udfCalls := countedEngine(t, Options{})
	first, err := execute(e, engineRTFree)
	if err != nil {
		t.Fatal(err)
	}
	if first.OracleCalls == 0 {
		t.Fatal("first free run consumed no budget")
	}
	afterFirst := udfCalls.Load()

	second, err := execute(e, engineRTFree)
	if err != nil {
		t.Fatal(err)
	}
	if got := udfCalls.Load() - afterFirst; got != 0 {
		t.Errorf("second free run made %d UDF calls, want 0", got)
	}
	if second.OracleCalls != 0 {
		t.Errorf("second free run charged %d oracle calls, want 0 (hits are free)", second.OracleCalls)
	}
	if second.LabelCacheHits == 0 {
		t.Error("second free run reported no label cache hits")
	}
	if !sameIndices(first.Indices, second.Indices) || first.Tau != second.Tau {
		t.Error("free reuse changed the result set")
	}
}

// TestFreeReuseViaExecOptions checks the programmatic form of REUSE
// FREE is equivalent to the grammar clause.
func TestFreeReuseViaExecOptions(t *testing.T) {
	e, _, _ := countedEngine(t, Options{})
	if _, err := execute(e, engineRT); err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteContext(context.Background(), engineRT, ExecOptions{FreeReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.OracleCalls != 0 {
		t.Errorf("warm free-reuse run charged %d calls, want 0", res.OracleCalls)
	}
	if res.LabelCacheHits == 0 {
		t.Error("warm free-reuse run reported no cache hits")
	}
}

// TestReRegistrationInvalidatesLabels: once the oracle (or table) is
// re-registered, stored labels from the old registration must never be
// served.
func TestReRegistrationInvalidatesLabels(t *testing.T) {
	d := dataset.Beta(randx.New(1), 30000, 0.01, 2)
	e := openEngine(t, 42, Options{})
	e.RegisterTable("video", d)
	e.RegisterProxy("video_proxy", func(i int) float64 { return d.Score(i) })
	e.RegisterOracle("video_oracle", func(i int) (bool, error) { return true, nil })

	const pt = `
		SELECT * FROM video
		WHERE video_oracle(frame) = true
		ORACLE LIMIT 500
		USING video_proxy(frame)
		PRECISION TARGET 90%
		WITH PROBABILITY 95%`
	res, err := execute(e, pt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indices) == 0 {
		t.Fatal("all-true oracle returned nothing")
	}

	// Replace the oracle with one that rejects everything. Any stored
	// all-true label served now would surface as a positive.
	e.RegisterOracle("video_oracle", func(i int) (bool, error) { return false, nil })
	res, err = execute(e, pt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indices) != 0 {
		t.Fatalf("query after oracle re-registration returned %d records — stale labels served", len(res.Indices))
	}
	if res.LabelCacheHits != 0 {
		t.Errorf("query after invalidation reported %d cache hits", res.LabelCacheHits)
	}

	// Same for table re-registration.
	if _, err := execute(e, pt); err != nil { // refill store under all-false
		t.Fatal(err)
	}
	e.RegisterOracle("video_oracle", func(i int) (bool, error) { return true, nil })
	e.RegisterTable("video", d)
	res, err = execute(e, pt)
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelCacheHits != 0 {
		t.Errorf("query after table re-registration reported %d cache hits", res.LabelCacheHits)
	}
}

// TestProgressMatchesOracleCallsWarm is the accounting audit: the
// cumulative progress total must equal the result's OracleCalls on
// cold runs, warm charged runs (where labels never reach the counting
// wrapper), and under parallel dispatch.
func TestProgressMatchesOracleCallsWarm(t *testing.T) {
	for _, par := range []int{1, 4} {
		e, _, _ := countedEngine(t, Options{})
		for _, phase := range []string{"cold", "warm"} {
			var mu sync.Mutex
			final := 0
			res, err := e.ExecuteContext(context.Background(), engineRT, ExecOptions{
				OracleParallelism: par,
				Progress: func(n int) {
					mu.Lock()
					if n > final {
						final = n
					}
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			got := final
			mu.Unlock()
			if got != res.OracleCalls {
				t.Errorf("parallelism %d, %s run: progress total %d != OracleCalls %d",
					par, phase, got, res.OracleCalls)
			}
		}
	}
}

// TestLabelStoreSharedAcrossQueriesRace is the -race stress test:
// concurrent queries (charged and free) share one label store while
// AppendTable and oracle/table re-registration keep invalidating and
// extending it. After the dust settles, a query against a freshly
// re-registered all-false oracle must see no stale positives.
func TestLabelStoreSharedAcrossQueriesRace(t *testing.T) {
	d := dataset.Beta(randx.New(3), 4000, 0.05, 2)
	extra := dataset.Beta(randx.New(4), 100, 0.05, 2)
	e := openEngine(t, 7, Options{})
	e.RegisterTable("video", d)
	e.RegisterProxy("video_proxy", func(i int) float64 {
		// Appended ids score mid-range; any in-range value works.
		return float64(i%97) / 97
	})
	e.RegisterOracle("video_oracle", func(i int) (bool, error) { return true, nil })

	const rt = `
		SELECT * FROM video
		WHERE video_oracle(frame) = true
		ORACLE LIMIT 200
		USING video_proxy(frame)
		RECALL TARGET 90%
		WITH PROBABILITY 95%`
	const rtFree = `
		SELECT * FROM video
		WHERE video_oracle(frame) = true
		ORACLE LIMIT 200 REUSE FREE
		USING video_proxy(frame)
		RECALL TARGET 90%
		WITH PROBABILITY 95%`

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(sql string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected while re-registration races the
				// query (unknown UDF windows); only data races and stale
				// labels are failures here.
				_, _ = execute(e, sql)
			}
		}(map[bool]string{true: rt, false: rtFree}[w%2 == 0])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_, _ = e.AppendTable("video", extra)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		const pt = `
			SELECT * FROM video
			WHERE video_oracle(frame) = true
			ORACLE LIMIT 200
			USING video_proxy(frame)
			PRECISION TARGET 90%
			WITH PROBABILITY 95%`
		for i := 0; i < 20; i++ {
			// Flip to an all-false oracle; immediately afterwards no
			// stored all-true label may survive.
			e.RegisterOracle("video_oracle", func(int) (bool, error) { return false, nil })
			if res, err := execute(e, pt); err == nil && len(res.Indices) != 0 {
				t.Errorf("round %d: stale labels served after invalidation (%d positives)", i, len(res.Indices))
			}
			e.RegisterOracle("video_oracle", func(int) (bool, error) { return true, nil })
		}
		close(stop)
	}()
	wg.Wait()
}
