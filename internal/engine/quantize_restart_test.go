package engine

import (
	"path/filepath"
	"sync"
	"testing"

	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/randx"
)

// Kill-and-restart coverage for the quantized index: the .qcv code
// vectors must survive a restart (zero proxy calls, zero sorts, scans
// stay 2-byte) and the quantize configuration may change across the
// restart without ever changing an answer.

func quantPersistEngine(t *testing.T, dir string, d *dataset.Dataset, quantize bool, proxyCalls *int) *Engine {
	t.Helper()
	e, err := Open(7, Options{PersistDir: dir, SegmentSize: 4096, Quantize: quantize})
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

// TestRestartQuantizedZeroRescanRecovery is the quantized variant of
// the engine restart acceptance test: a killed engine with a persisted
// quantized index restarts with zero proxy UDF calls, zero permutation
// sorts, and byte-identical answers, with its code vectors adopted
// straight from the mapped .qcv files.
func TestRestartQuantizedZeroRescanRecovery(t *testing.T) {
	dir := t.TempDir()
	d := dataset.Beta(randx.New(31), 20000, 0.01, 2)

	var calls1 int
	e1 := quantPersistEngine(t, dir, d, true, &calls1)
	cold, err := e1.Execute(persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.IndexBuilt || calls1 != d.Len() {
		t.Fatalf("cold query: IndexBuilt=%v proxy calls=%d", cold.IndexBuilt, calls1)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if qcvs, _ := filepath.Glob(filepath.Join(dir, "*.qcv")); len(qcvs) == 0 {
		t.Fatal("quantized engine persisted no .qcv code files")
	}

	var calls2 int
	sortsBefore := index.BuildSortsTotal()
	e2 := quantPersistEngine(t, dir, d.Clone(), true, &calls2)
	info, ok := e2.RecoveryInfo()
	if !ok || info.Indexes != 1 || len(info.Degraded) != 0 {
		t.Fatalf("recovery info = %+v, %v", info, ok)
	}
	warm, err := e2.Execute(persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if calls2 != 0 {
		t.Fatalf("restarted engine invoked the proxy UDF %d times, want 0", calls2)
	}
	if sorts := index.BuildSortsTotal() - sortsBefore; sorts != 0 {
		t.Fatalf("restarted engine performed %d permutation sorts, want 0", sorts)
	}
	if !warm.IndexRecovered || warm.IndexBuilt {
		t.Fatalf("warm query: IndexRecovered=%v IndexBuilt=%v", warm.IndexRecovered, warm.IndexBuilt)
	}
	assertSameResult(t, cold, warm)
}

// TestRestartQuantizeConfigChangeIsInvisible flips the Quantize option
// across restarts in both directions. Answers must never change:
// recovery adopts persisted codes even when quantization is off (they
// are already verified, so keeping them costs nothing), and a
// quantize-on restart over a float persist computes codes from the
// recovered column without re-calling the proxy.
func TestRestartQuantizeConfigChangeIsInvisible(t *testing.T) {
	for _, tc := range []struct {
		name            string
		persistQ, bootQ bool
	}{
		{"on-then-off", true, false},
		{"off-then-on", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := dataset.Beta(randx.New(57), 12000, 0.5, 2)

			var calls1 int
			e1 := quantPersistEngine(t, dir, d, tc.persistQ, &calls1)
			cold, err := e1.Execute(persistTestSQL)
			if err != nil {
				t.Fatal(err)
			}
			if err := e1.Close(); err != nil {
				t.Fatal(err)
			}

			var calls2 int
			e2 := quantPersistEngine(t, dir, d.Clone(), tc.bootQ, &calls2)
			warm, err := e2.Execute(persistTestSQL)
			if err != nil {
				t.Fatal(err)
			}
			if calls2 != 0 {
				t.Fatalf("config flip re-invoked the proxy %d times", calls2)
			}
			if !warm.IndexRecovered {
				t.Fatal("config flip discarded the persisted index")
			}
			assertSameResult(t, cold, warm)
		})
	}
}
