package engine

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/randx"
)

// The IS queries of the mixture-checkpoint tests: a recall and a
// precision target share the paper's (0.5, 0.1) defensive mixture.
const (
	mixRecallSQL    = persistTestSQL
	mixPrecisionSQL = `SELECT * FROM t WHERE o(x) ORACLE LIMIT 500 USING p(x) PRECISION TARGET 90% WITH PROBABILITY 95%`
)

func mixFileCount(t *testing.T, dir string) int {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.mix"))
	if err != nil {
		t.Fatal(err)
	}
	return len(m)
}

// referenceResults answers sqls on an engine that never persisted.
func referenceResults(t *testing.T, d *dataset.Dataset, sqls ...string) []*QueryResult {
	t.Helper()
	e := NewWithOptions(7, Options{SegmentSize: 4096})
	e.RegisterTable("t", d)
	e.RegisterOracle("o", func(i int) (bool, error) { return d.TrueLabel(i), nil })
	e.RegisterProxy("p", func(i int) float64 { return d.Score(i) })
	out := make([]*QueryResult, len(sqls))
	for i, sql := range sqls {
		res, err := e.Execute(sql)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

func mustExecute(t *testing.T, e *Engine, sql string) *QueryResult {
	t.Helper()
	res, err := e.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRestartAdoptsCheckpointedMixture is the round trip: query, Close,
// reopen, query again. The second boot answers byte-identically to an
// engine that never persisted while building zero mixtures, and its own
// Close writes nothing new.
func TestRestartAdoptsCheckpointedMixture(t *testing.T) {
	dir := t.TempDir()
	d := dataset.Beta(randx.New(41), 20000, 0.01, 2)
	want := referenceResults(t, d, mixRecallSQL, mixPrecisionSQL)

	var calls int
	e1 := persistEngine(t, dir, d, &calls)
	builds := index.MixtureBuildsTotal()
	assertSameResult(t, want[0], mustExecute(t, e1, mixRecallSQL))
	if index.MixtureBuildsTotal()-builds != 1 {
		t.Fatalf("first boot built %d mixtures, want 1", index.MixtureBuildsTotal()-builds)
	}
	if mixFileCount(t, dir) != 0 {
		t.Fatal("a mixture was written on the query path")
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if n := mixFileCount(t, dir); n != 1 {
		t.Fatalf("Close checkpointed %d mixtures, want 1", n)
	}

	e2 := persistEngine(t, dir, d.Clone(), &calls)
	info, _ := e2.RecoveryInfo()
	if info.Indexes != 1 || info.Mixtures != 1 || len(info.Degraded) != 0 {
		t.Fatalf("recovery info %+v", info)
	}
	builds = index.MixtureBuildsTotal()
	assertSameResult(t, want[0], mustExecute(t, e2, mixRecallSQL))
	assertSameResult(t, want[1], mustExecute(t, e2, mixPrecisionSQL))
	if d := index.MixtureBuildsTotal() - builds; d != 0 {
		t.Fatalf("second boot built %d mixtures, want 0", d)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	if n := mixFileCount(t, dir); n != 1 {
		t.Fatalf("second Close left %d mixture files, want the same 1", n)
	}
}

// TestRestartWithoutCheckpointRebuildsMixture: a crash skips Close, so
// nothing is checkpointed and the next boot rebuilds as before.
func TestRestartWithoutCheckpointRebuildsMixture(t *testing.T) {
	dir := t.TempDir()
	d := dataset.Beta(randx.New(42), 10000, 0.01, 2)
	want := referenceResults(t, d, mixRecallSQL)

	var calls int
	e1 := persistEngine(t, dir, d, &calls)
	mustExecute(t, e1, mixRecallSQL)
	// Crash: release the handles without the shutdown checkpoint.
	e1.labels.Close()
	e1.store.Close()

	e2 := persistEngine(t, dir, d, &calls)
	if info, _ := e2.RecoveryInfo(); info.Indexes != 1 || info.Mixtures != 0 {
		t.Fatalf("recovery info %+v", info)
	}
	builds := index.MixtureBuildsTotal()
	assertSameResult(t, want[0], mustExecute(t, e2, mixRecallSQL))
	if index.MixtureBuildsTotal()-builds != 1 {
		t.Fatal("no checkpoint, yet the mixture was not rebuilt")
	}
}

// TestRestartAppendDropsStaleMixture: an append after the checkpoint,
// then a restart. The grown table never adopts the stale mixture, the
// first index flush of the grown index deletes its file, and the next
// Close checkpoints the grown index's own mixture.
func TestRestartAppendDropsStaleMixture(t *testing.T) {
	dir := t.TempDir()
	d := dataset.Beta(randx.New(43), 12000, 0.01, 2)
	extra := dataset.Beta(randx.New(44), 3000, 0.01, 2)
	grownData := d.Append(extra)
	want := referenceResults(t, grownData, mixRecallSQL)

	var calls int
	e1 := persistEngine(t, dir, d, &calls)
	mustExecute(t, e1, mixRecallSQL)
	e1.Close()

	// Boot 2 appends and shuts down without querying: the index record
	// (and its mixture) still describe the old column.
	e2 := persistEngine(t, dir, d, &calls)
	if _, err := e2.AppendTable("t", extra); err != nil {
		t.Fatal(err)
	}
	e2.Close()
	if n := mixFileCount(t, dir); n != 1 {
		t.Fatalf("%d mixture files after the append boot, want the old 1", n)
	}

	e3 := persistEngine(t, dir, grownData, &calls)
	builds := index.MixtureBuildsTotal()
	res := mustExecute(t, e3, mixRecallSQL)
	assertSameResult(t, want[0], res)
	if !res.IndexRecovered || index.MixtureBuildsTotal()-builds != 1 {
		t.Fatalf("grown table: recovered=%v, %d mixture builds; want a recovered base and 1 rebuild",
			res.IndexRecovered, index.MixtureBuildsTotal()-builds)
	}
	if n := mixFileCount(t, dir); n != 0 {
		t.Fatalf("stale mixture file survived the grown index's flush (%d files)", n)
	}
	e3.Close()
	if n := mixFileCount(t, dir); n != 1 {
		t.Fatalf("grown index checkpointed %d mixtures, want 1", n)
	}
	e4 := persistEngine(t, dir, grownData, &calls)
	builds = index.MixtureBuildsTotal()
	assertSameResult(t, want[0], mustExecute(t, e4, mixRecallSQL))
	if index.MixtureBuildsTotal() != builds {
		t.Fatal("the grown index's checkpointed mixture was not adopted")
	}
}

// TestInvalidationDropsMixtures: dropping a table or an index — by
// re-registering different content or the proxy — drops its mixture
// records and files with it.
func TestInvalidationDropsMixtures(t *testing.T) {
	cases := map[string]func(e *Engine, d *dataset.Dataset){
		"different table content": func(e *Engine, d *dataset.Dataset) {
			e.RegisterTable("t", dataset.Beta(randx.New(46), d.Len(), 0.01, 2))
		},
		"table re-registration": func(e *Engine, d *dataset.Dataset) { e.RegisterTable("t", d.Clone()) },
		"proxy re-registration": func(e *Engine, d *dataset.Dataset) {
			e.RegisterProxy("p", func(i int) float64 { return d.Score(i) })
		},
	}
	for name, invalidate := range cases {
		dir := t.TempDir()
		d := dataset.Beta(randx.New(45), 8000, 0.01, 2)
		var calls int
		e1 := persistEngine(t, dir, d, &calls)
		mustExecute(t, e1, mixRecallSQL)
		e1.Close()

		e2 := persistEngine(t, dir, d, &calls)
		invalidate(e2, d)
		if n := mixFileCount(t, dir); n != 0 {
			t.Fatalf("%s left %d mixture files", name, n)
		}
		if st := e2.Storage().Stats(); st.MixturesLive != 0 {
			t.Fatalf("%s left %d live mixture records", name, st.MixturesLive)
		}
	}
}

// TestRestartCorruptMixtureFallsBack: a damaged mixture file costs a
// rebuild, never a different answer or a lost index.
func TestRestartCorruptMixtureFallsBack(t *testing.T) {
	dir := t.TempDir()
	d := dataset.Beta(randx.New(47), 10000, 0.01, 2)
	want := referenceResults(t, d, mixRecallSQL)
	var calls int
	e1 := persistEngine(t, dir, d, &calls)
	mustExecute(t, e1, mixRecallSQL)
	e1.Close()
	m, _ := filepath.Glob(filepath.Join(dir, "*.mix"))
	b, err := os.ReadFile(m[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-100] ^= 1
	if err := os.WriteFile(m[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	calls = 0
	e2 := persistEngine(t, dir, d, &calls)
	builds := index.MixtureBuildsTotal()
	res := mustExecute(t, e2, mixRecallSQL)
	assertSameResult(t, want[0], res)
	if !res.IndexRecovered || calls != 0 || index.MixtureBuildsTotal()-builds != 1 {
		t.Fatalf("corrupt mixture: recovered=%v proxy calls %d builds %d", res.IndexRecovered, calls, index.MixtureBuildsTotal()-builds)
	}
	if info, _ := e2.RecoveryInfo(); len(info.Degraded) != 1 {
		t.Fatalf("degraded notes %q, want the mixture's", info.Degraded)
	}
}

// TestRestartConcurrentFirstQueriesAdoptOnce: concurrent first queries
// of a recovered index share one adoption of the stored mixture and
// answer identically. Run under -race.
func TestRestartConcurrentFirstQueriesAdoptOnce(t *testing.T) {
	dir := t.TempDir()
	d := dataset.Beta(randx.New(48), 15000, 0.01, 2)
	want := referenceResults(t, d, mixRecallSQL, mixPrecisionSQL)
	var calls int
	e1 := persistEngine(t, dir, d, &calls)
	mustExecute(t, e1, mixRecallSQL)
	e1.Close()

	e2 := persistEngine(t, dir, d, &calls)
	builds := index.MixtureBuildsTotal()
	const workers = 6
	got := make([]*QueryResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g], errs[g] = e2.Execute([]string{mixRecallSQL, mixPrecisionSQL}[g%2])
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		assertSameResult(t, want[g%2], got[g])
	}
	if d := index.MixtureBuildsTotal() - builds; d != 0 {
		t.Fatalf("%d mixture builds across %d concurrent first queries, want 0", d, workers)
	}
}
