package engine

import (
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"supg/internal/dataset"
	"supg/internal/randx"
	"supg/internal/storage"
)

// TestKillRestartChunkedAppends is the crash half of append-only
// storage. Appends interleave with queries on a single and a FUSE(mean)
// source; each append persists one dataset chunk and each flush one
// column chunk per source. A copy of the persist dir taken without
// Close (all a kill -9 leaves: every chunk and record is synced before
// AppendTable or the flush returns) boots with the grown table's
// identity equal to the combined data's, adopts a re-registration of
// identical content, and serves both flushed indexes with zero proxy
// calls, byte-identically to a fresh engine built over the combined
// data.
func TestKillRestartChunkedAppends(t *testing.T) {
	const appends, batch = 4, 1500
	full := dataset.Beta(randx.New(12), 20000+appends*batch, 0.05, 1)
	sqls := []string{resilienceSQL["RT"], fusedMeanRT}
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
	register(e1, full.Slice(0, 20000))
	for k := 0; ; k++ {
		for _, sql := range sqls {
			mustExecute(t, e1, sql)
		}
		if k == appends {
			break
		}
		lo := 20000 + k*batch
		if _, err := e1.AppendTable("video", full.Slice(lo, lo+batch)); err != nil {
			t.Fatal(err)
		}
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
	// One dataset chunk per registration or append; one column chunk
	// per build or grown flush of each source.
	for ext, want := range map[string]int{".ds": appends + 1, ".col": 2 * (appends + 1)} {
		if m, _ := filepath.Glob(filepath.Join(killed, "*"+ext)); len(m) != want {
			t.Fatalf("%d %s chunk files, want %d", len(m), ext, want)
		}
	}

	ref := openEngine(t, 42, opts)
	register(ref, full)
	want := make([]*QueryResult, len(sqls))
	for i, sql := range sqls {
		want[i] = mustExecute(t, ref, sql)
	}

	e2 := open(killed)
	info := e2.Storage().Stats()
	if info.TablesRecovered != 1 || info.IndexesRecovered != 2 || len(info.Degraded) != 0 {
		t.Fatalf("recovery info %+v", info)
	}
	rec := e2.RecoveredDatasets()
	if len(rec) != 1 || rec[0].Len() != full.Len() {
		t.Fatalf("recovered %d datasets", len(rec))
	}
	crc := storage.DatasetCRC(full)
	if got := storage.DatasetCRC(rec[0]); got != crc {
		t.Fatalf("recovered dataset CRC %08x, combined table's %08x", got, crc)
	}
	if got := e2.Storage().RecoveredTables()[0].CRC; got != crc {
		t.Fatalf("recovered identity %08x, combined table's %08x", got, crc)
	}
	proxyCalls.Store(0)
	register(e2, full.Clone()) // identical content, another pointer: adopted by CRC
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
