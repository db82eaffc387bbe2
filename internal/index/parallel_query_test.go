package index

import (
	"math"
	"sync"
	"testing"

	"supg/internal/randx"
)

// parallelTestIndex builds an index large and finely-segmented enough
// to cross the parallel-gather threshold (>= appendParallelMinIDs
// matching ids at low taus) across many segments.
func parallelTestIndex(t *testing.T, par int) *ScoreIndex {
	t.Helper()
	n := 2 * appendParallelMinIDs // 32768 records
	segSize := 256                // 128 segments
	scores := quantizedScores(99, n)
	ix, err := NewWithOptions(scores, Options{
		SegmentSize: segSize,
		Parallelism: par,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

var parallelTestTaus = []float64{-1, 0, 0.025, 0.3, 0.5, 0.975, 1, 1.5, math.Inf(1), math.Inf(-1)}

// TestParallelCountMatchesSequential pins CountAtLeast and KthHighest
// at parallelism 2 and 8 against the parallelism-1 reference: the
// fan-out bound must never change a count or an order statistic.
func TestParallelCountMatchesSequential(t *testing.T) {
	ref := parallelTestIndex(t, 1)
	for _, par := range []int{2, 8} {
		ix := parallelTestIndex(t, par)
		for _, tau := range parallelTestTaus {
			if want, got := ref.CountAtLeast(tau), ix.CountAtLeast(tau); want != got {
				t.Fatalf("par=%d tau=%v: count %d, sequential %d", par, tau, got, want)
			}
		}
		for _, k := range []int{1, 100, ix.Len() / 2, ix.Len()} {
			want, got := ref.KthHighest(k), ix.KthHighest(k)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("par=%d k=%d: KthHighest %v, sequential %v", par, k, got, want)
			}
		}
	}
}

// TestParallelAppendMatchesSequential pins the parallel AppendAtLeast
// gather — presized per-segment slots in fixed segment order — against
// the sequential reference, both from a nil dst and appending onto a
// prefilled one (base offsets plus capacity growth).
func TestParallelAppendMatchesSequential(t *testing.T) {
	ref := parallelTestIndex(t, 1)
	for _, par := range []int{2, 8} {
		ix := parallelTestIndex(t, par)
		for _, tau := range parallelTestTaus {
			want := ref.AppendAtLeast(nil, tau)
			got := ix.AppendAtLeast(nil, tau)
			assertSameIDs(t, "fresh dst", par, tau, want, got)

			prefix := []int{-7, -8, -9}
			want = ref.AppendAtLeast(append([]int(nil), prefix...), tau)
			got = ix.AppendAtLeast(append([]int(nil), prefix...), tau)
			assertSameIDs(t, "prefilled dst", par, tau, want, got)

			// Reused capacity: a second gather into the same backing array.
			reuse := make([]int, 0, ix.Len()+8)
			got = ix.AppendAtLeast(ix.AppendAtLeast(reuse, tau)[:0], tau)
			want = ref.AppendAtLeast(nil, tau)
			assertSameIDs(t, "reused dst", par, tau, want, got)
		}
	}
}

func assertSameIDs(t *testing.T, mode string, par int, tau float64, want, got []int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s par=%d tau=%v: %d ids, sequential %d", mode, par, tau, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s par=%d tau=%v: id[%d] = %d, sequential %d",
				mode, par, tau, i, got[i], want[i])
		}
	}
}

// TestParallelMixtureMatchesSequential pins the parallel mixture build
// bit-for-bit against the sequential one: the transform and normalize
// passes fan out, but the normalizing sum stays one left-to-right pass.
func TestParallelMixtureMatchesSequential(t *testing.T) {
	ref := parallelTestIndex(t, 1)
	for _, par := range []int{2, 8} {
		ix := parallelTestIndex(t, par)
		for _, cfg := range []struct{ exp, mix float64 }{{0.5, 0.1}, {1, 0.5}, {0, 0}, {2, 0.25}} {
			wantW, refA := ref.Mixture(cfg.exp, cfg.mix)
			gotW, gotA := ix.Mixture(cfg.exp, cfg.mix)
			for i := range wantW {
				if math.Float64bits(wantW[i]) != math.Float64bits(gotW[i]) {
					t.Fatalf("par=%d cfg=%v: weight[%d] = %v, sequential %v", par, cfg, i, gotW[i], wantW[i])
				}
			}
			// Draws consume the stream identically, so a fixed seed must
			// yield the same indices either way.
			r1, r2 := randx.New(7), randx.New(7)
			for d := 0; d < 200; d++ {
				if a, b := refA.Draw(r1), gotA.Draw(r2); a != b {
					t.Fatalf("par=%d cfg=%v: draw %d = %d, sequential %d", par, cfg, d, b, a)
				}
			}
		}
	}
}

// TestParallelReductionsRaceStress hammers one shared index from many
// goroutines running counts, gathers, merges, and mixture draws
// concurrently, each checking byte-identity against precomputed
// sequential references. Run under -race this pins that the parallel
// read path shares no unsynchronized state across queries.
func TestParallelReductionsRaceStress(t *testing.T) {
	ref := parallelTestIndex(t, 1)
	ix := parallelTestIndex(t, 4)

	taus := []float64{0, 0.025, 0.5, 0.975}
	wantCounts := make([]int, len(taus))
	wantIDs := make([][]int, len(taus))
	for i, tau := range taus {
		wantCounts[i] = ref.CountAtLeast(tau)
		wantIDs[i] = ref.AppendAtLeast(nil, tau)
	}
	wantW, _ := ref.Mixture(0.5, 0.1)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				i := (g + iter) % len(taus)
				if got := ix.CountAtLeast(taus[i]); got != wantCounts[i] {
					t.Errorf("goroutine %d: count(%v) = %d, want %d", g, taus[i], got, wantCounts[i])
					return
				}
				ids := ix.AppendAtLeast(nil, taus[i])
				if len(ids) != len(wantIDs[i]) {
					t.Errorf("goroutine %d: %d ids for tau %v, want %d", g, len(ids), taus[i], len(wantIDs[i]))
					return
				}
				for j := range ids {
					if ids[j] != wantIDs[i][j] {
						t.Errorf("goroutine %d: id[%d] = %d, want %d", g, j, ids[j], wantIDs[i][j])
						return
					}
				}
				gotW, _ := ix.Mixture(0.5, 0.1)
				for j := range wantW {
					if math.Float64bits(gotW[j]) != math.Float64bits(wantW[j]) {
						t.Errorf("goroutine %d: weight[%d] diverges", g, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
