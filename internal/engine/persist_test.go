package engine

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/randx"
)

const persistTestSQL = `SELECT * FROM t WHERE o(x) ORACLE LIMIT 500 USING p(x) RECALL TARGET 90% WITH PROBABILITY 95%`

// persistEngine opens an engine over dir with a counting proxy
// registered for dataset d.
func persistEngine(t *testing.T, dir string, d *dataset.Dataset, proxyCalls *int) *Engine {
	t.Helper()
	e, err := Open(7, Options{PersistDir: dir, SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	e.RegisterTable("t", d)
	e.RegisterOracle("o", func(i int) (bool, error) { return d.TrueLabel(i), nil })
	var mu sync.Mutex
	e.RegisterProxy("p", func(i int) float64 {
		mu.Lock()
		*proxyCalls++
		mu.Unlock()
		return d.Score(i)
	})
	return e
}

func assertSameResult(t *testing.T, want, got *QueryResult) {
	t.Helper()
	if got.Tau != want.Tau {
		t.Fatalf("tau %v, want %v", got.Tau, want.Tau)
	}
	if got.OracleCalls != want.OracleCalls {
		t.Fatalf("oracle calls %d, want %d", got.OracleCalls, want.OracleCalls)
	}
	if len(got.Indices) != len(want.Indices) {
		t.Fatalf("%d records, want %d", len(got.Indices), len(want.Indices))
	}
	for i := range want.Indices {
		if got.Indices[i] != want.Indices[i] {
			t.Fatalf("record %d: %d, want %d", i, got.Indices[i], want.Indices[i])
		}
	}
}

// TestEngineRestartZeroRescanRecovery is the engine-level acceptance
// test for the durable storage tier: after a kill-and-restart, the
// first query adopts the persisted index with ZERO proxy UDF calls and
// ZERO permutation sorts, and answers byte-identically.
func TestEngineRestartZeroRescanRecovery(t *testing.T) {
	dir := t.TempDir()
	d := dataset.Beta(randx.New(31), 20000, 0.01, 2)

	var calls1 int
	e1 := persistEngine(t, dir, d, &calls1)
	cold, err := execute(e1, persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.IndexBuilt || calls1 != d.Len() {
		t.Fatalf("cold query: IndexBuilt=%v proxy calls=%d", cold.IndexBuilt, calls1)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: register identical CONTENT under a different pointer, so
	// adoption goes through the CRC match, as it would across processes.
	var calls2 int
	sortsBefore := index.BuildSortsTotal()
	e2 := persistEngine(t, dir, d.Clone(), &calls2)
	info := e2.Storage().Stats()
	if info.TablesRecovered != 1 || info.IndexesRecovered != 1 {
		t.Fatalf("recovery info = %+v", info)
	}
	if len(info.Degraded) != 0 {
		t.Fatalf("recovery degraded: %v", info.Degraded)
	}
	warm, err := execute(e2, persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if calls2 != 0 {
		t.Fatalf("restarted engine invoked the proxy UDF %d times, want 0", calls2)
	}
	if sorts := index.BuildSortsTotal() - sortsBefore; sorts != 0 {
		t.Fatalf("restarted engine performed %d permutation sorts, want 0", sorts)
	}
	if !warm.IndexRecovered || warm.IndexBuilt || warm.ProxyCalls != 0 {
		t.Fatalf("warm query: IndexRecovered=%v IndexBuilt=%v ProxyCalls=%d",
			warm.IndexRecovered, warm.IndexBuilt, warm.ProxyCalls)
	}
	assertSameResult(t, cold, warm)

	// Steady state: the adopted entry is a plain cache hit now.
	again, err := execute(e2, persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if again.IndexRecovered || again.IndexBuilt || again.ProxyCalls != 0 {
		t.Fatalf("steady state: %+v", again)
	}
}

// TestOpenCreatesMissingPersistDir: a PersistDir that does not exist
// yet, two levels below an existing directory, with the label WAL
// inside it, must boot — the storage tier creates the directory before
// the WAL opens — and a reopen must replay the labels the first boot
// bought, so the repeated query buys none.
func TestOpenCreatesMissingPersistDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state", "supg")
	opts := Options{PersistDir: dir, LabelWALPath: filepath.Join(dir, "labels.wal"), SegmentSize: 4096}
	d := dataset.Beta(randx.New(33), 10000, 0.01, 2)
	open := func() (*Engine, *atomic.Int64) {
		e, err := Open(7, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		var oracleCalls atomic.Int64
		e.RegisterTable("t", d)
		e.RegisterProxy("p", func(i int) float64 { return d.Score(i) })
		e.RegisterOracle("o", func(i int) (bool, error) {
			oracleCalls.Add(1)
			return d.TrueLabel(i), nil
		})
		return e, &oracleCalls
	}

	e1, calls1 := open()
	want, err := execute(e1, persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if calls1.Load() == 0 {
		t.Fatal("cold query bought no labels")
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(opts.LabelWALPath); err != nil {
		t.Fatalf("label WAL not inside the persist dir: %v", err)
	}

	e2, calls2 := open()
	if got := e2.LabelStore().Stats().WALReplayed; got == 0 {
		t.Fatal("reopen replayed no labels from the WAL")
	}
	got, err := execute(e2, persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls2.Load(); n != 0 {
		t.Fatalf("reopened engine re-bought %d labels, want 0", n)
	}
	assertSameResult(t, want, got)
}

// TestRestartReRegistrationInvalidatesDurably: a proxy RE-registration
// after recovery must drop the staged index durably — neither this
// boot nor the next can serve the superseded permutation.
func TestRestartReRegistrationInvalidatesDurably(t *testing.T) {
	dir := t.TempDir()
	d := dataset.Beta(randx.New(32), 10000, 0.01, 2)

	var calls1 int
	e1 := persistEngine(t, dir, d, &calls1)
	if _, err := execute(e1, persistTestSQL); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	var calls2 int
	e2 := persistEngine(t, dir, d, &calls2)
	// Second registration of "p" in this process: an UPDATE, not a load.
	// The proxy is scored from parallel shards, so the count is guarded.
	var mu sync.Mutex
	e2.RegisterProxy("p", func(i int) float64 {
		mu.Lock()
		calls2++
		mu.Unlock()
		return d.Score(i)
	})
	res, err := execute(e2, persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.IndexRecovered || !res.IndexBuilt || calls2 != d.Len() {
		t.Fatalf("re-registered proxy served recovered index: %+v (calls %d)", res, calls2)
	}
	e2.Close()

	// The rebuild was flushed, so the NEXT boot recovers the new index;
	// the old one is gone for good either way.
	var calls3 int
	e3 := persistEngine(t, dir, d, &calls3)
	res3, err := execute(e3, persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res3.IndexRecovered || calls3 != 0 {
		t.Fatalf("third boot: IndexRecovered=%v proxy calls=%d", res3.IndexRecovered, calls3)
	}
}

// TestRestartAppendChainsTail: when the table grew (AppendTable) after
// the last index flush, recovery adopts the persisted prefix and scores
// only the appended tail — and the chained result is byte-identical to
// a from-scratch build over the combined data.
func TestRestartAppendChainsTail(t *testing.T) {
	dir := t.TempDir()
	base := dataset.Beta(randx.New(33), 20000, 0.01, 2)
	extra := dataset.Beta(randx.New(34), 5000, 0.01, 2)

	e1, err := Open(7, Options{PersistDir: dir, SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	e1.RegisterDatasetDefaults("t", base)
	if _, err := execute(e1, appendTestSQL); err != nil {
		t.Fatal(err)
	}
	// Grow the table but crash before any query flushes the extended
	// index: disk now has the combined dataset + the base-only index.
	if _, err := e1.AppendTable("t", extra); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	e2, err := Open(7, Options{PersistDir: dir, SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	recovered := e2.RecoveredDatasets()
	if len(recovered) != 1 || recovered[0].Len() != base.Len()+extra.Len() {
		t.Fatalf("recovered datasets: %d (len %d)", len(recovered), recovered[0].Len())
	}
	e2.RegisterDatasetDefaults("t", recovered[0])
	res, err := execute(e2, appendTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndexRecovered || res.ProxyCalls != extra.Len() {
		t.Fatalf("chained recovery: IndexRecovered=%v ProxyCalls=%d, want tail of %d",
			res.IndexRecovered, res.ProxyCalls, extra.Len())
	}

	fresh := openEngine(t, 7, Options{SegmentSize: 4096})
	fresh.RegisterDatasetDefaults("t", base.Append(extra))
	want, err := execute(fresh, appendTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, want, res)

	// The chained flush made the extension durable: a third boot pays
	// nothing at all.
	e2.Close()
	e3, err := Open(7, Options{PersistDir: dir, SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	e3.RegisterDatasetDefaults("t", e3.RecoveredDatasets()[0])
	res3, err := execute(e3, appendTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res3.IndexRecovered || res3.ProxyCalls != 0 {
		t.Fatalf("third boot: IndexRecovered=%v ProxyCalls=%d, want full adoption", res3.IndexRecovered, res3.ProxyCalls)
	}
}

// TestRestartCorruptSegmentRebuilds: a bit-flipped segment file must
// degrade recovery to a full rebuild with identical results — corrupt
// bytes are never served. The first query that needs the index finds
// the damage, drops the record durably and flushes the rebuild, so the
// next boot adopts that instead.
func TestRestartCorruptSegmentRebuilds(t *testing.T) {
	dir := t.TempDir()
	d := dataset.Beta(randx.New(35), 10000, 0.01, 2)

	var calls1 int
	e1 := persistEngine(t, dir, d, &calls1)
	cold, err := execute(e1, persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files persisted: %v", err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	var calls2 int
	e2 := persistEngine(t, dir, d, &calls2)
	info := e2.Storage().Stats()
	if info.TablesRecovered != 1 {
		t.Fatalf("dataset lost with the corrupt segment: %+v", info)
	}
	warm, err := execute(e2, persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.IndexBuilt || warm.IndexRecovered || calls2 != d.Len() {
		t.Fatalf("degraded boot must rebuild: IndexBuilt=%v IndexRecovered=%v calls=%d",
			warm.IndexBuilt, warm.IndexRecovered, calls2)
	}
	assertSameResult(t, cold, warm)
	if info := e2.Storage().Stats(); len(info.Degraded) == 0 {
		t.Fatalf("corrupt segment not degraded: %+v", info)
	}
	e2.Close()

	// The drop is durable: the corrupt file is gone, and the next boot
	// adopts the flushed rebuild without a note.
	if _, err := os.Stat(segs[0]); !os.IsNotExist(err) {
		t.Fatalf("the corrupt segment file survived its drop: %v", err)
	}
	var calls3 int
	e3 := persistEngine(t, dir, d, &calls3)
	res3, err := execute(e3, persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if info := e3.Storage().Stats(); len(info.Degraded) != 0 || !res3.IndexRecovered || calls3 != 0 {
		t.Fatalf("third boot: IndexRecovered=%v proxy calls=%d, degraded %v", res3.IndexRecovered, calls3, info.Degraded)
	}
	assertSameResult(t, cold, res3)
}

// fileSet lists the files in dir with the extension.
func fileSet(t *testing.T, dir, ext string) map[string]bool {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*"+ext))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool, len(m))
	for _, f := range m {
		out[f] = true
	}
	return out
}

// TestRestartVerifiesIndexesOnFirstUse: a restart reads no index file
// at boot; each persisted index is checked by the first query that
// needs it. With the fused index's segment corrupt, the single-proxy
// query still adopts its own intact index with zero proxy calls and no
// note, the fused query rebuilds and answers as before the restart,
// and the next boot adopts both.
func TestRestartVerifiesIndexesOnFirstUse(t *testing.T) {
	const fusedSQL = `SELECT * FROM t WHERE o(x) ORACLE LIMIT 500 USING FUSE(mean, p(x), q(x)) RECALL TARGET 90% WITH PROBABILITY 95%`
	dir := t.TempDir()
	d := dataset.Beta(randx.New(38), 20000, 0.01, 2)
	var calls atomic.Int64
	open := func() *Engine {
		e, err := Open(7, Options{PersistDir: dir, SegmentSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		e.RegisterTable("t", d.Clone())
		e.RegisterOracle("o", func(i int) (bool, error) { return d.TrueLabel(i), nil })
		e.RegisterProxy("p", func(i int) float64 { calls.Add(1); return d.Score(i) })
		e.RegisterProxy("q", func(i int) float64 { calls.Add(1); return math.Sqrt(d.Score(i)) })
		return e
	}

	e1 := open()
	single := mustExecute(t, e1, persistTestSQL)
	singleSegs := fileSet(t, dir, ".seg")
	fused := mustExecute(t, e1, fusedSQL)
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	var victim string
	for f := range fileSet(t, dir, ".seg") {
		if !singleSegs[f] {
			victim = f
		}
	}
	if victim == "" {
		t.Fatal("the fused index persisted no segment file")
	}
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	calls.Store(0)
	e2 := open()
	sorts := index.BuildSortsTotal()
	got := mustExecute(t, e2, persistTestSQL)
	if n := calls.Load(); n != 0 || !got.IndexRecovered || got.IndexBuilt || got.ProxyCalls != 0 {
		t.Fatalf("single-proxy query: IndexRecovered=%v IndexBuilt=%v, %d proxy calls", got.IndexRecovered, got.IndexBuilt, n)
	}
	if n := index.BuildSortsTotal() - sorts; n != 0 {
		t.Fatalf("the single-proxy query sorted %d permutations, want 0", n)
	}
	if info := e2.Storage().Stats(); len(info.Degraded) != 0 {
		t.Fatalf("the intact index's first use noted %q", info.Degraded)
	}
	assertSameResult(t, single, got)

	gotFused := mustExecute(t, e2, fusedSQL)
	if !gotFused.IndexBuilt || gotFused.IndexRecovered || gotFused.ProxyCalls != 2*d.Len() {
		t.Fatalf("fused query over a corrupt index: IndexBuilt=%v IndexRecovered=%v ProxyCalls=%d, want a rebuild of %d",
			gotFused.IndexBuilt, gotFused.IndexRecovered, gotFused.ProxyCalls, 2*d.Len())
	}
	assertSameResult(t, fused, gotFused)
	if info := e2.Storage().Stats(); len(info.Degraded) != 1 {
		t.Fatalf("degradation notes %q, want the fused index's", info.Degraded)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	calls.Store(0)
	e3 := open()
	for _, c := range []struct {
		sql  string
		want *QueryResult
	}{{persistTestSQL, single}, {fusedSQL, fused}} {
		res := mustExecute(t, e3, c.sql)
		if !res.IndexRecovered || res.ProxyCalls != 0 {
			t.Fatalf("third boot: IndexRecovered=%v ProxyCalls=%d", res.IndexRecovered, res.ProxyCalls)
		}
		assertSameResult(t, c.want, res)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("third boot invoked the proxies %d times, want 0", n)
	}
	if info := e3.Storage().Stats(); len(info.Degraded) != 0 {
		t.Fatalf("third boot noted %q", info.Degraded)
	}
}

// TestRestartConcurrentFirstQueriesLoadIndexOnce: concurrent first
// queries of one staged index load and check its files once — the
// mapped bytes grow by that index's files, not a multiple — and answer
// identically. Run under -race.
func TestRestartConcurrentFirstQueriesLoadIndexOnce(t *testing.T) {
	dir := t.TempDir()
	d := dataset.Beta(randx.New(39), 15000, 0.01, 2)
	want := referenceResults(t, d, mixRecallSQL)[0]
	var calls int
	e1 := persistEngine(t, dir, d, &calls)
	mustExecute(t, e1, mixRecallSQL)
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	// One index persisted: its column chunk, its segments and the mixture
	// the shutdown checkpointed, which the recall query also adopts.
	var indexBytes int64
	for _, ext := range []string{".col", ".seg", ".mix"} {
		for f := range fileSet(t, dir, ext) {
			fi, err := os.Stat(f)
			if err != nil {
				t.Fatal(err)
			}
			indexBytes += fi.Size()
		}
	}

	calls = 0
	e2 := persistEngine(t, dir, d, &calls)
	before := e2.Storage().Stats().MappedBytes
	if before == 0 {
		indexBytes = 0 // no mmap on this platform: every file is read to the heap
	}
	const workers = 8
	got := make([]*QueryResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g], errs[g] = execute(e2, mixRecallSQL)
		}(g)
	}
	close(start)
	wg.Wait()
	recovered := 0
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if got[g].IndexRecovered {
			recovered++
		}
		assertSameResult(t, want, got[g])
	}
	if recovered != 1 || calls != 0 {
		t.Fatalf("%d queries adopted the index, %d proxy calls; want 1 and 0", recovered, calls)
	}
	if grew := e2.Storage().Stats().MappedBytes - before; grew != indexBytes {
		t.Fatalf("mapped bytes grew by %d across %d first queries, want one index's %d", grew, workers, indexBytes)
	}
}

// TestRestartGrownCalibratedIndexIsFlushed: a calibrated fused index
// cannot extend over appended records, so when its table grew between
// boots the first query drops the staged record and rebuilds the index
// over the whole table. That rebuild is flushed like any other build,
// and the next boot adopts it with zero proxy calls.
func TestRestartGrownCalibratedIndexIsFlushed(t *testing.T) {
	const logisticSQL = `SELECT * FROM t WHERE o(x) ORACLE LIMIT 500 USING FUSE(logistic, p(x), q(x)) CALIBRATE 100 RECALL TARGET 90% WITH PROBABILITY 95%`
	dir := t.TempDir()
	full := dataset.Beta(randx.New(40), 24000, 0.01, 2)
	var calls atomic.Int64
	open := func(d *dataset.Dataset) *Engine {
		e, err := Open(7, Options{PersistDir: dir, SegmentSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		e.RegisterTable("t", d)
		e.RegisterOracle("o", func(i int) (bool, error) { return full.TrueLabel(i), nil })
		e.RegisterProxy("p", func(i int) float64 { calls.Add(1); return full.Score(i) })
		e.RegisterProxy("q", func(i int) float64 { calls.Add(1); return math.Sqrt(full.Score(i)) })
		return e
	}

	e1 := open(full.Slice(0, 20000))
	mustExecute(t, e1, logisticSQL)
	e1.Close()
	// A boot that appends and shuts down without querying leaves the
	// calibrated index record shorter than its table.
	e2 := open(full.Slice(0, 20000))
	if _, err := e2.AppendTable("t", full.Slice(20000, full.Len())); err != nil {
		t.Fatal(err)
	}
	e2.Close()

	e3 := open(full.Clone())
	rebuilt := mustExecute(t, e3, logisticSQL)
	if !rebuilt.IndexBuilt || rebuilt.ProxyCalls != 2*full.Len() {
		t.Fatalf("grown calibrated index: IndexBuilt=%v ProxyCalls=%d, want a rebuild of %d", rebuilt.IndexBuilt, rebuilt.ProxyCalls, 2*full.Len())
	}
	e3.Close()

	calls.Store(0)
	e4 := open(full.Clone())
	res := mustExecute(t, e4, logisticSQL)
	if !res.IndexRecovered || calls.Load() != 0 {
		t.Fatalf("next boot: IndexRecovered=%v, %d proxy calls; the rebuild was not flushed", res.IndexRecovered, calls.Load())
	}
	assertSameResult(t, rebuilt, res)
}

// TestRestartDifferentContentRewrites: registering DIFFERENT data under
// a recovered name must not adopt — the stale dataset and its indexes
// are dropped durably and the new content is persisted.
func TestRestartDifferentContentRewrites(t *testing.T) {
	dir := t.TempDir()
	d1 := dataset.Beta(randx.New(36), 8000, 0.01, 2)
	d2 := dataset.Beta(randx.New(37), 8000, 0.01, 2)

	var calls1 int
	e1 := persistEngine(t, dir, d1, &calls1)
	if _, err := execute(e1, persistTestSQL); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	var calls2 int
	e2 := persistEngine(t, dir, d2, &calls2)
	res, err := execute(e2, persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.IndexRecovered || !res.IndexBuilt || calls2 != d2.Len() {
		t.Fatalf("stale index served for replaced content: %+v (calls %d)", res, calls2)
	}
	e2.Close()

	// The store now describes d2: the next boot recovers IT.
	e3, err := Open(7, Options{PersistDir: dir, SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	rec := e3.RecoveredDatasets()
	if len(rec) != 1 || rec[0].Score(0) != d2.Score(0) {
		t.Fatal("replacement content not persisted")
	}
}
