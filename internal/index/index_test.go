package index

import (
	"math"
	"slices"
	"sync"
	"testing"

	"supg/internal/randx"
	"supg/internal/sampling"
)

func TestNewValidates(t *testing.T) {
	if _, err := NewWithOptions(nil, Options{}); err == nil {
		t.Error("empty column must be rejected")
	}
	if _, err := NewWithOptions([]float64{0.5, math.NaN()}, Options{}); err == nil {
		t.Error("NaN score must be rejected")
	}
	if _, err := NewWithOptions([]float64{0.5, -0.1}, Options{}); err == nil {
		t.Error("negative score must be rejected")
	}
	if _, err := NewWithOptions([]float64{0.5, 1.5}, Options{}); err == nil {
		t.Error("score above 1 must be rejected")
	}
	if _, err := NewWithOptions([]float64{0, 1, 0.5}, Options{}); err != nil {
		t.Errorf("valid boundary scores rejected: %v", err)
	}
}

func TestNewCopiesInput(t *testing.T) {
	scores := []float64{0.3, 0.7}
	ix, err := NewWithOptions(scores, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scores[0] = 0.99
	if ix.Score(0) != 0.3 {
		t.Error("index must not alias the caller's buffer")
	}
}

func TestSortedPermutationWithTies(t *testing.T) {
	scores := []float64{0.5, 0.1, 0.9, 0.5, 0.5, 0.0}
	ix, err := NewWithOptions(scores, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Ascending by (score, id): 5(0.0) 1(0.1) 0(0.5) 3(0.5) 4(0.5) 2(0.9).
	want := []int{5, 1, 0, 3, 4, 2}
	if len(ix.segs) != 1 {
		t.Fatalf("%d records built %d segments, want 1", len(scores), len(ix.segs))
	}
	for i, p := range ix.segs[0].perm {
		if p != want[i] {
			t.Fatalf("perm = %v, want %v", ix.segs[0].perm, want)
		}
	}
	if got := ix.CountAtLeast(0.5); got != 4 {
		t.Errorf("CountAtLeast(0.5) = %d, want 4", got)
	}
	if got := ix.CountAtLeast(0.91); got != 0 {
		t.Errorf("CountAtLeast(0.91) = %d, want 0", got)
	}
	if got := ix.CountAtLeast(0); got != 6 {
		t.Errorf("CountAtLeast(0) = %d, want 6", got)
	}
	if got := ix.CountAtLeast(math.Inf(1)); got != 0 {
		t.Errorf("CountAtLeast(+Inf) = %d, want 0", got)
	}
	if ix.KthHighest(0) != 0.9 || ix.KthHighest(1) != 0.5 || ix.KthHighest(100) != 0 {
		t.Error("KthHighest order statistics wrong")
	}
	if ix.KthHighest(len(scores)-1) != 0 {
		t.Error("lowest score wrong")
	}
}

// appendAtLeastRef is the O(n) reference: ids with score >= tau,
// ascending.
func appendAtLeastRef(scores []float64, tau float64) []int {
	var out []int
	for i, s := range scores {
		if s >= tau {
			out = append(out, i)
		}
	}
	return out
}

// TestAppendAtLeastMatchesReference pins the bitmap gather against the
// O(n) reference on every layout an index can have: segment sizes
// around the 64-bit bitmap word (1, 63, 64, 65), a mid size and the
// default; an Append-grown index, whose segment bases are not
// multiples of 64; and a FromExternal one.
// Thresholds are every distinct score of each column, one float either
// side of each, and the out-of-range values. Both sides of the cut must
// run: segments with fewer than, exactly, and more than half their
// records matching.
func TestAppendAtLeastMatchesReference(t *testing.T) {
	r := randx.New(41)
	tieHeavy := make([]float64, 5000)
	for i := range tieHeavy {
		// Coarse quantization forces heavy score ties.
		tieHeavy[i] = math.Round(r.Float64()*50) / 50
	}
	// Every even-sized segment of this column matches exactly half its
	// records at tau in (0.25, 0.75].
	alternating := make([]float64, 130)
	for i := range alternating {
		alternating[i] = 0.25 + 0.5*float64(i%2)
	}
	var fewer, half, more int // segments seen on each side of the cut
	for _, scores := range [][]float64{tieHeavy, alternating} {
		taus := []float64{0, 1, 1.1, -0.5, math.NaN(), math.Inf(1)}
		distinct := slices.Clone(scores)
		slices.Sort(distinct)
		for _, v := range slices.Compact(distinct) {
			taus = append(taus, v, math.Nextafter(v, 2), math.Nextafter(v, -1))
		}
		wants := make([][]int, len(taus))
		for i, tau := range taus {
			wants[i] = appendAtLeastRef(scores, tau)
		}
		// Odd, so the first appended segment's base is not a multiple of 64.
		head := len(scores)*3/5 | 1
		for _, segSize := range []int{1, 63, 64, 65, 1000, DefaultSegmentSize} {
			opts := Options{SegmentSize: segSize}
			built, err := NewWithOptions(scores, opts)
			if err != nil {
				t.Fatal(err)
			}
			grown, err := NewWithOptions(scores[:head], opts)
			if err != nil {
				t.Fatal(err)
			}
			if grown, err = grown.Append(scores[head:]); err != nil {
				t.Fatal(err)
			}
			external, err := FromExternal(externalImage(built), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, layout := range []struct {
				name string
				ix   *ScoreIndex
			}{{"built", built}, {"appended", grown}, {"external", external}} {
				ix := layout.ix
				for i, tau := range taus {
					want := wants[i]
					// A non-empty dst: the gather must append after it.
					got := ix.AppendAtLeast([]int{-1}, tau)
					if got[0] != -1 || !slices.Equal(got[1:], want) {
						t.Fatalf("n=%d seg=%d %s tau=%v: got %d ids, want %d (first diff at %d)",
							len(scores), segSize, layout.name, tau, len(got)-1, len(want), firstDiff(got[1:], want))
					}
					if len(want) != ix.CountAtLeast(tau) {
						t.Fatalf("tau=%v: CountAtLeast disagrees with extraction", tau)
					}
					for _, s := range ix.segs {
						switch k := s.countAtLeast(tau); {
						case k == 0:
						case 2*k < len(s.sorted):
							fewer++
						case 2*k == len(s.sorted):
							half++
						default:
							more++
						}
					}
				}
			}
		}
	}
	if fewer == 0 || half == 0 || more == 0 {
		t.Fatalf("cut sides not all exercised: %d segments below half, %d at half, %d above", fewer, half, more)
	}
}

// FuzzGatherMatchesScan feeds arbitrary boundary-heavy columns and
// thresholds to the bitmap gather at segment sizes either side of the
// 64-bit bitmap word: AppendAtLeast must equal the O(n) reference
// scan, and CountAtLeast and KthHighest must equal the monolithic
// index's. Each 2-byte chunk of data becomes one record on the grid of
// multiples of 1/65536: chunks with an even first byte sit exactly on
// a grid point, odd ones are perturbed between two, so columns are
// dense with ties and near-ties by construction.
func FuzzGatherMatchesScan(f *testing.F) {
	const grid = 1 << 16
	f.Add([]byte{0x00, 0x00, 0xff, 0xff, 0x64, 0x00, 0x64, 0x01}, 0.5)
	f.Add([]byte{0x01, 0x00, 0x01, 0x00, 0x01, 0x00, 0x02, 0x00}, 1.0/grid)
	f.Add([]byte{0xff, 0xff}, 1.0)
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90, 0xa0}, math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, tau float64) {
		if len(data) < 2 || len(data) > 4096 {
			t.Skip()
		}
		scores := make([]float64, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			c := uint16(data[i]) | uint16(data[i+1])<<8
			s := float64(c) / grid
			if data[i]&1 != 0 {
				s += float64(data[i+1]) / (256 * grid) // between grid points
			}
			if s > 1 {
				s = 1
			}
			scores = append(scores, s)
		}
		n := len(scores)
		wantIDs := appendAtLeastRef(scores, tau)
		mono, err := NewWithOptions(scores, Options{SegmentSize: n})
		if err != nil {
			t.Fatal(err)
		}
		for _, segSize := range []int{1, 3, 63, 64, 65, n} {
			ix, err := NewWithOptions(scores, Options{SegmentSize: segSize})
			if err != nil {
				t.Fatal(err)
			}
			if w, g := mono.CountAtLeast(tau), ix.CountAtLeast(tau); w != g {
				t.Fatalf("seg=%d: CountAtLeast(%v) %d vs monolithic %d", segSize, tau, g, w)
			}
			if got := ix.AppendAtLeast(nil, tau); !slices.Equal(got, wantIDs) {
				t.Fatalf("seg=%d: AppendAtLeast(%v) %d ids, want %d (first diff at %d)",
					segSize, tau, len(got), len(wantIDs), firstDiff(got, wantIDs))
			}
			for k := 1; k <= n; k += 1 + n/7 {
				if wb, gb := math.Float64bits(mono.KthHighest(k)), math.Float64bits(ix.KthHighest(k)); wb != gb {
					t.Fatalf("seg=%d: KthHighest(%d) %x vs monolithic %x", segSize, k, gb, wb)
				}
			}
		}
	})
}

// firstDiff returns the first position where a and b differ.
func firstDiff(a, b []int) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestAppendAtLeastConcurrentSharedBitmaps gathers from two indexes
// with different segment sizes on many goroutines at once, through both
// the sequential loop and the parallel fan-out. Every gather borrows
// its bitmaps from the one process-wide pool, so a bitmap that went
// back dirty, or to two gathers at once, shows up as a wrong id list
// here and as a data race under -race.
func TestAppendAtLeastConcurrentSharedBitmaps(t *testing.T) {
	scores := testScores(40000)
	var ixs []*ScoreIndex
	for _, segSize := range []int{1000, 4099} {
		ix, err := NewWithOptions(scores, Options{SegmentSize: segSize, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		ixs = append(ixs, ix)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rg := randx.New(uint64(300 + g))
			for i := 0; i < 40; i++ {
				ix, tau := ixs[(g+i)%2], rg.Float64()
				if got, want := ix.AppendAtLeast(nil, tau), appendAtLeastRef(scores, tau); !slices.Equal(got, want) {
					t.Errorf("goroutine %d, seg=%d, tau=%v: got %d ids, want %d (first diff at %d)",
						g, ix.segSize, tau, len(got), len(want), firstDiff(got, want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestAppendAtLeastReusesCapacity(t *testing.T) {
	ix, err := NewWithOptions([]float64{0.1, 0.9, 0.5, 0.8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, 4)
	out := ix.AppendAtLeast(buf, 0.5)
	if &out[0] != &buf[:1][0] {
		t.Error("sufficient capacity must be reused without reallocation")
	}
}

func TestMixtureCacheKeying(t *testing.T) {
	ix, err := NewWithOptions([]float64{0.2, 0.4, 0.9, 0.1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w1, a1 := ix.Mixture(0.5, 0.1)
	w2, a2 := ix.Mixture(0.5, 0.1)
	if &w1[0] != &w2[0] || a1 != a2 {
		t.Error("same key must return the cached mixture")
	}
	w3, _ := ix.Mixture(1.0, 0.1)
	if &w3[0] == &w1[0] {
		t.Error("different exponent must build a distinct mixture")
	}
	ix.Mixture(0.5, 0.2)
	if got := len(ix.CachedMixtureTables()); got != 3 {
		t.Errorf("cache holds %d entries, want 3", got)
	}
	// Cached weights must equal a fresh defensive-mixture build.
	fresh := sampling.DefensiveWeights(ix.Scores(), 0.5, 0.1, 1)
	for i := range fresh {
		if w1[i] != fresh[i] {
			t.Fatalf("cached weight %d = %v, want %v", i, w1[i], fresh[i])
		}
	}
}

func TestMixtureDrawsMatchUncached(t *testing.T) {
	r := randx.New(11)
	scores := make([]float64, 400)
	for i := range scores {
		scores[i] = r.Float64()
	}
	ix, err := NewWithOptions(scores, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, alias := ix.Mixture(0.5, 0.1)
	fresh := sampling.NewAlias(sampling.DefensiveWeights(scores, 0.5, 0.1, 1))
	a := alias.DrawN(randx.New(7), 200)
	b := fresh.DrawN(randx.New(7), 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: cached alias %d, fresh alias %d", i, a[i], b[i])
		}
	}
}

func TestConcurrentReads(t *testing.T) {
	r := randx.New(5)
	scores := make([]float64, 20000)
	for i := range scores {
		scores[i] = r.Float64()
	}
	ix, err := NewWithOptions(scores, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rg := randx.New(uint64(g))
			for i := 0; i < 200; i++ {
				tau := rg.Float64()
				k := ix.CountAtLeast(tau)
				out := ix.AppendAtLeast(make([]int, 0, k), tau)
				if len(out) != k {
					t.Errorf("goroutine %d: extraction size %d != count %d", g, len(out), k)
					return
				}
				// Exercise the mixture cache under contention with a
				// small set of keys so builds and hits interleave.
				w, a := ix.Mixture(0.5, float64(i%3)/10)
				if len(w) != ix.Len() || a == nil {
					t.Errorf("goroutine %d: bad mixture", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
