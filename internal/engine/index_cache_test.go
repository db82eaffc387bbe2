package engine

import (
	"slices"
	"sync"
	"testing"

	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/query"
	"supg/internal/randx"
)

// TestIndexCachedAcrossQueries verifies the amortization contract: the
// first query of a (table, proxy) pair pays the proxy scan, later
// queries reuse the index and report zero proxy evaluations.
func TestIndexCachedAcrossQueries(t *testing.T) {
	d := dataset.Beta(randx.New(6), 20000, 0.01, 2)
	e := openEngine(t, 1, Options{})
	e.RegisterTable("t", d)
	e.RegisterOracle("o", func(i int) (bool, error) { return d.TrueLabel(i), nil })
	proxyCalls := 0
	var mu sync.Mutex
	e.RegisterProxy("p", func(i int) float64 {
		mu.Lock()
		proxyCalls++
		mu.Unlock()
		return d.Score(i)
	})
	const sql = `SELECT * FROM t WHERE o(x) ORACLE LIMIT 500 USING p(x) RECALL TARGET 90% WITH PROBABILITY 95%`

	first, err := execute(e, sql)
	if err != nil {
		t.Fatal(err)
	}
	if !first.IndexBuilt || first.ProxyCalls != d.Len() {
		t.Fatalf("first query: IndexBuilt=%v ProxyCalls=%d, want build with %d calls", first.IndexBuilt, first.ProxyCalls, d.Len())
	}
	if proxyCalls != d.Len() {
		t.Fatalf("proxy UDF invoked %d times, want %d", proxyCalls, d.Len())
	}

	second, err := execute(e, sql)
	if err != nil {
		t.Fatal(err)
	}
	if second.IndexBuilt || second.ProxyCalls != 0 {
		t.Fatalf("second query: IndexBuilt=%v ProxyCalls=%d, want cache hit", second.IndexBuilt, second.ProxyCalls)
	}
	if proxyCalls != d.Len() {
		t.Fatalf("cache hit re-ran the proxy: %d total calls", proxyCalls)
	}
	if first.Tau != second.Tau || len(first.Indices) != len(second.Indices) {
		t.Fatal("cached index changed the query answer")
	}
}

// TestIndexInvalidatedOnReregistration: re-registering the table or the
// proxy must drop the cached index so stale scores are never served.
func TestIndexInvalidatedOnReregistration(t *testing.T) {
	d := dataset.Beta(randx.New(7), 5000, 1, 1)
	e := openEngine(t, 1, Options{})
	e.RegisterDatasetDefaults("t", d)
	const sql = `SELECT * FROM t WHERE t_oracle(x) ORACLE LIMIT 200 USING t_proxy(x) RECALL TARGET 90% WITH PROBABILITY 95%`
	if _, err := execute(e, sql); err != nil {
		t.Fatal(err)
	}

	// New data under the same names: the next query must rebuild.
	d2 := dataset.Beta(randx.New(8), 5000, 1, 1)
	e.RegisterDatasetDefaults("t", d2)
	res, err := execute(e, sql)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndexBuilt {
		t.Fatal("re-registration must invalidate the cached index")
	}
}

// TestConcurrentQueriesBuildIndexOnce: concurrent first queries of the
// same table must share one proxy scan and agree on the answer.
func TestConcurrentQueriesBuildIndexOnce(t *testing.T) {
	d := dataset.Beta(randx.New(9), 30000, 0.01, 2)
	e := openEngine(t, 3, Options{})
	e.RegisterTable("t", d)
	e.RegisterOracle("o", func(i int) (bool, error) { return d.TrueLabel(i), nil })
	proxyCalls := 0
	var mu sync.Mutex
	e.RegisterProxy("p", func(i int) float64 {
		mu.Lock()
		proxyCalls++
		mu.Unlock()
		return d.Score(i)
	})
	q, err := query.Parse(`SELECT * FROM t WHERE o(x) ORACLE LIMIT 400 USING p(x) RECALL TARGET 90% WITH PROBABILITY 95%`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := query.BuildPlan(q, query.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 12
	results := make([]*QueryResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = executePlan(e, plan)
		}(w)
	}
	wg.Wait()

	builds := 0
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if results[w].IndexBuilt {
			builds++
		}
		if results[w].Tau != results[0].Tau || len(results[w].Indices) != len(results[0].Indices) {
			t.Fatalf("worker %d answer diverged", w)
		}
	}
	if builds != 1 {
		t.Fatalf("%d workers report building the index, want exactly 1", builds)
	}
	if proxyCalls != d.Len() {
		t.Fatalf("proxy UDF invoked %d times across concurrent queries, want %d", proxyCalls, d.Len())
	}
}

// TestRepeatedPrecisionQueryReusesStageTwoTable: a repeated precision
// text finds its stage-2 sampling table in the index's memo instead of
// rebuilding it over D′, and answers identically.
func TestRepeatedPrecisionQueryReusesStageTwoTable(t *testing.T) {
	e, _ := testEngine(t)
	const sql = `SELECT * FROM video WHERE video_oracle(x) ORACLE LIMIT 800 USING video_proxy(x) PRECISION TARGET 90% WITH PROBABILITY 95%`
	builds := index.RestrictionBuildsTotal()
	first := mustExecute(t, e, sql)
	if index.RestrictionBuildsTotal() == builds {
		t.Fatal("the first query built no stage-2 table")
	}
	builds = index.RestrictionBuildsTotal()
	second := mustExecute(t, e, sql)
	if d := index.RestrictionBuildsTotal() - builds; d != 0 {
		t.Fatalf("the repeated query built %d stage-2 tables, want 0", d)
	}
	if first.Tau != second.Tau || first.OracleCalls != second.OracleCalls || !slices.Equal(first.Indices, second.Indices) {
		t.Fatalf("repeat answered tau %v, %d calls, %d records; first %v, %d, %d",
			second.Tau, second.OracleCalls, len(second.Indices), first.Tau, first.OracleCalls, len(first.Indices))
	}
}
