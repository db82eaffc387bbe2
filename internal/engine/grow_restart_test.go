package engine

import (
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/randx"
)

// builtIndexes returns the finished indexes of table, by source.
func builtIndexes(e *Engine, table string) map[string]*index.ScoreIndex {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[string]*index.ScoreIndex)
	for k, ent := range e.indexes {
		if k.table == table && ent.done.Load() && ent.err == nil {
			out[k.source] = ent.res.ix
		}
	}
	return out
}

// TestKillRestartInPlaceAppends is the crash half of in-place column
// growth. Appends alternate with queries on a single and a FUSE(mean)
// source, as an ingest stream's do: each query's index extends a
// two-link append chain, and most links — of the table's dataset and
// of each index — grow into the spare capacity an earlier append left
// instead of copying. A copy of the persist dir taken without Close
// reboots and serves both indexes with zero proxy calls,
// byte-identically to a fresh engine built over the combined data.
func TestKillRestartInPlaceAppends(t *testing.T) {
	const base, appends, batch = 20000, 10, 700
	full := dataset.Beta(randx.New(14), base+appends*batch, 0.05, 1)
	sqls := []string{resilienceSQL["PT"], fusedMeanRT}
	opts := Options{SegmentSize: 4096}

	var proxyCalls atomic.Int64
	register := func(e *Engine, d *dataset.Dataset) {
		e.RegisterTable("video", d)
		e.RegisterProxy("video_proxy", func(i int) float64 {
			proxyCalls.Add(1)
			return full.Score(i)
		})
		e.RegisterProxy("video_proxy_b", func(i int) float64 {
			proxyCalls.Add(1)
			return math.Sqrt(full.Score(i))
		})
		e.RegisterOracle("video_oracle", func(i int) (bool, error) { return full.TrueLabel(i), nil })
	}
	open := func(dir string) *Engine {
		o := opts
		o.PersistDir = dir
		e, err := Open(42, o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}

	dir := t.TempDir()
	e1 := open(dir)
	table := full.Slice(0, base)
	register(e1, table)
	for _, sql := range sqls {
		mustExecute(t, e1, sql)
	}
	prevIx := builtIndexes(e1, "video")
	tablesInPlace, indexesInPlace := 0, 0
	for k := 0; k < appends; k++ {
		lo := base + k*batch
		grown, err := e1.AppendTable("video", full.Slice(lo, lo+batch))
		if err != nil {
			t.Fatal(err)
		}
		if &grown.Scores()[0] == &table.Scores()[0] {
			tablesInPlace++
		}
		table = grown
		mustExecute(t, e1, sqls[k%2])
		for src, ix := range builtIndexes(e1, "video") {
			if old := prevIx[src]; old != nil && old != ix && &old.Scores()[0] == &ix.Scores()[0] {
				indexesInPlace++
			}
			prevIx[src] = ix
		}
	}
	for _, sql := range sqls {
		mustExecute(t, e1, sql)
	}
	if tablesInPlace < appends/2 || indexesInPlace < 2 {
		t.Fatalf("%d of %d table appends and %d index extensions grew in place, want most",
			tablesInPlace, appends, indexesInPlace)
	}

	killed := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, en := range entries {
		b, err := os.ReadFile(filepath.Join(dir, en.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(killed, en.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ref := openEngine(t, 42, opts)
	register(ref, full)
	want := make([]*QueryResult, len(sqls))
	for i, sql := range sqls {
		want[i] = mustExecute(t, ref, sql)
	}

	e2 := open(killed)
	if info := e2.Storage().Stats(); info.TablesRecovered != 1 || info.IndexesRecovered != 2 || len(info.Degraded) != 0 {
		t.Fatalf("recovery info %+v", info)
	}
	proxyCalls.Store(0)
	register(e2, full.Clone())
	for i, sql := range sqls {
		got := mustExecute(t, e2, sql)
		if !got.IndexRecovered || got.ProxyCalls != 0 {
			t.Fatalf("query %d: IndexRecovered=%v ProxyCalls=%d, want a recovered index", i, got.IndexRecovered, got.ProxyCalls)
		}
		sameResult(t, sqls[i], want[i], got)
	}
	if n := proxyCalls.Load(); n != 0 {
		t.Fatalf("restarted engine invoked proxy UDFs %d times, want 0", n)
	}
}
