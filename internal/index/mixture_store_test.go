package index

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"supg/internal/randx"
	"supg/internal/sampling"
)

// storedImage returns ix's external image carrying its cached mixtures
// as StoredMixture loaders that serve copies of the tables, plus a
// counter of Load calls.
func storedImage(t *testing.T, ix *ScoreIndex) (External, *atomic.Int64) {
	t.Helper()
	ext := externalImage(ix)
	loads := new(atomic.Int64)
	for _, mt := range ix.CachedMixtureTables() {
		w := append([]float64(nil), mt.Weights...)
		prob := append([]float64(nil), mt.Prob...)
		alias := append([]int32(nil), mt.Alias...)
		ext.Mixtures = append(ext.Mixtures, StoredMixture{
			Key: mt.Key,
			Load: func() ([]float64, *sampling.Alias, error) {
				loads.Add(1)
				a, err := sampling.AliasFromTables(prob, alias)
				return w, a, err
			},
		})
	}
	return ext, loads
}

// assertSameDraws checks that two indexes' mixtures for key produce
// bit-identical weights and the same 5000-draw sequence.
func assertSameDraws(t *testing.T, want, got *ScoreIndex, key MixtureKey) {
	t.Helper()
	ww, wa := want.Mixture(key.Exponent, key.Mix)
	gw, ga := got.Mixture(key.Exponent, key.Mix)
	for i := range ww {
		if math.Float64bits(ww[i]) != math.Float64bits(gw[i]) {
			t.Fatalf("weight %d: %v, want %v", i, gw[i], ww[i])
		}
	}
	r1, r2 := randx.New(8), randx.New(8)
	for k := 0; k < 5000; k++ {
		if x, y := wa.Draw(r1), ga.Draw(r2); x != y {
			t.Fatalf("draw %d: %d, want %d", k, y, x)
		}
	}
}

func mixtureTestIndex(t *testing.T) *ScoreIndex {
	t.Helper()
	ix, err := NewWithOptions(testScores(6000), Options{SegmentSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ix.Mixture(0.5, 0.1)
	ix.Mixture(1, 0.2)
	return ix
}

func TestStoredMixtureAdoptedLazily(t *testing.T) {
	want := mixtureTestIndex(t)
	ext, loads := storedImage(t, want)
	got, err := FromExternal(ext, Options{SegmentSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if loads.Load() != 0 || len(got.CachedMixtureTables()) != 0 {
		t.Fatalf("recovery read %d stored mixtures before any query", loads.Load())
	}
	builds := MixtureBuildsTotal()
	assertSameDraws(t, want, got, MixtureKey{0.5, 0.1})
	if loads.Load() != 1 || MixtureBuildsTotal() != builds {
		t.Fatalf("first use: %d loads, %d builds; want 1 load and no build", loads.Load(), MixtureBuildsTotal()-builds)
	}
	got.Mixture(0.5, 0.1)
	if loads.Load() != 1 {
		t.Fatalf("second use reloaded: %d loads", loads.Load())
	}
	// A key with no stored tables builds as usual.
	got.Mixture(0, 0.5)
	if MixtureBuildsTotal()-builds != 1 || loads.Load() != 1 {
		t.Fatalf("unstored key: %d builds, %d loads", MixtureBuildsTotal()-builds, loads.Load())
	}
	// An appended index covers a different column: it never inherits
	// the stored tables.
	grown, err := got.Append([]float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	before := MixtureBuildsTotal()
	grown.Mixture(1, 0.2)
	if MixtureBuildsTotal()-before != 1 || loads.Load() != 1 {
		t.Fatal("appended index adopted the pre-append mixture")
	}
}

func TestStoredMixtureFailureRebuilds(t *testing.T) {
	want := mixtureTestIndex(t)
	w, a := want.Mixture(0.5, 0.1)
	cases := map[string]func() ([]float64, *sampling.Alias, error){
		"load error": func() ([]float64, *sampling.Alias, error) {
			return nil, nil, errors.New("crc mismatch")
		},
		"short weights": func() ([]float64, *sampling.Alias, error) { return w[:len(w)-1], a, nil },
		"short alias":   func() ([]float64, *sampling.Alias, error) { return w, sampling.NewAlias(w[:10]), nil },
		"nil alias":     func() ([]float64, *sampling.Alias, error) { return w, nil, nil },
	}
	for name, load := range cases {
		ext := externalImage(want)
		calls := 0
		ext.Mixtures = []StoredMixture{{Key: MixtureKey{0.5, 0.1}, Load: func() ([]float64, *sampling.Alias, error) {
			calls++
			return load()
		}}}
		got, err := FromExternal(ext, Options{SegmentSize: 1000})
		if err != nil {
			t.Fatal(err)
		}
		builds := MixtureBuildsTotal()
		assertSameDraws(t, want, got, MixtureKey{0.5, 0.1})
		if calls != 1 || MixtureBuildsTotal()-builds != 1 {
			t.Fatalf("%s: %d loads, %d builds; want one failed load and one rebuild", name, calls, MixtureBuildsTotal()-builds)
		}
		got.Mixture(0.5, 0.1)
		if calls != 1 || MixtureBuildsTotal()-builds != 1 {
			t.Fatalf("%s: the rebuilt mixture was not cached", name)
		}
	}
}

// TestStoredMixtureConcurrentAdoptOnce: concurrent first queries of a
// recovered index load the stored tables exactly once and all observe
// the same mixture. Run under -race.
func TestStoredMixtureConcurrentAdoptOnce(t *testing.T) {
	want := mixtureTestIndex(t)
	ext, loads := storedImage(t, want)
	got, err := FromExternal(ext, Options{SegmentSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	builds := MixtureBuildsTotal()
	const workers = 8
	seen := make([][]float64, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			seen[g], _ = got.Mixture(0.5, 0.1)
		}(g)
	}
	close(start)
	wg.Wait()
	if loads.Load() != 1 || MixtureBuildsTotal() != builds {
		t.Fatalf("%d loads and %d builds for %d concurrent first queries; want 1 and 0",
			loads.Load(), MixtureBuildsTotal()-builds, workers)
	}
	for g := 1; g < workers; g++ {
		if &seen[g][0] != &seen[0][0] {
			t.Fatalf("goroutine %d observed a different weight vector", g)
		}
	}
}

func TestCachedMixtureTablesExport(t *testing.T) {
	ix := mixtureTestIndex(t)
	ix.Mixture(0.5, 0.05)
	tables := ix.CachedMixtureTables()
	wantKeys := []MixtureKey{{0.5, 0.05}, {0.5, 0.1}, {1, 0.2}}
	if len(tables) != len(wantKeys) {
		t.Fatalf("%d tables exported, want %d", len(tables), len(wantKeys))
	}
	for i, mt := range tables {
		if mt.Key != wantKeys[i] {
			t.Fatalf("table %d has key %+v, want %+v (sorted)", i, mt.Key, wantKeys[i])
		}
		w, a := ix.Mixture(mt.Key.Exponent, mt.Key.Mix)
		prob, alias := a.Tables()
		if &mt.Weights[0] != &w[0] || &mt.Prob[0] != &prob[0] || &mt.Alias[0] != &alias[0] {
			t.Fatalf("table %d does not share the cached slices", i)
		}
		if len(mt.Weights) != ix.Len() || len(mt.Prob) != ix.Len() || len(mt.Alias) != ix.Len() {
			t.Fatalf("table %d is not %d long", i, ix.Len())
		}
	}
}
