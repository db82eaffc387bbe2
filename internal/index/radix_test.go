package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"supg/internal/dataset"
	"supg/internal/dist"
	"supg/internal/randx"
)

// checkSegmentSort builds col as one segment and requires the radix
// sort's perm and sorted arrays to equal the comparator reference's
// bit for bit, the column to come out normalized (-0 rewritten as +0,
// nothing else touched), and the segment to pass the verification a
// recovered segment file must pass.
func checkSegmentSort(t *testing.T, label string, col []float64) {
	t.Helper()
	want := slices.Clone(col)
	for i, v := range want {
		if v == 0 {
			want[i] = 0
		}
	}
	wantPerm, wantSorted := sortSegmentReference(want)

	column := slices.Clone(col)
	sorts := BuildSortsTotal()
	seg, _, err := buildSegment(column, 0, len(column))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got := BuildSortsTotal() - sorts; got != 1 {
		t.Fatalf("%s: one segment build counted %d sorts", label, got)
	}
	for i := range want {
		if math.Float64bits(seg.scores[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: column record %d is %x after the build, want %x",
				label, i, math.Float64bits(seg.scores[i]), math.Float64bits(want[i]))
		}
	}
	if !slices.Equal(seg.perm, wantPerm) {
		i := firstDiff(seg.perm, wantPerm)
		t.Fatalf("%s: perm[%d] = %d, reference %d", label, i, seg.perm[i], wantPerm[i])
	}
	for i := range wantSorted {
		if math.Float64bits(seg.sorted[i]) != math.Float64bits(wantSorted[i]) {
			t.Fatalf("%s: sorted[%d] = %x, reference %x",
				label, i, math.Float64bits(seg.sorted[i]), math.Float64bits(wantSorted[i]))
		}
	}
	if err := verifySegmentData(seg.scores, SegmentData{Perm: seg.perm, Sorted: seg.sorted}); err != nil {
		t.Fatalf("%s: built segment fails verification: %v", label, err)
	}
}

// sortTestColumns returns the named score columns the radix sort must
// order exactly like the comparator sort: continuous values whose
// digits all vary, proxy-shaped and heavily skewed columns whose
// exponents spread over hundreds of binades, and degenerate columns
// whose constant digits the sort skips.
func sortTestColumns(n int) []struct {
	name string
	col  []float64
} {
	r := randx.New(uint64(5150 + n))
	fill := func(f func(i int) float64) []float64 {
		col := make([]float64, n)
		for i := range col {
			col[i] = f(i)
		}
		return col
	}
	return []struct {
		name string
		col  []float64
	}{
		{"uniform", fill(func(int) float64 { return r.Float64() })},
		{"night-street", dataset.NightStreetSimN(r, n).Scores()},
		{"beta(0.01,2)", fill(func(int) float64 { return dist.SampleBeta(r, 0.01, 2) })},
		{"all-equal", fill(func(int) float64 { return 0.375 })},
		{"all-zero", fill(func(int) float64 { return 0 })},
		{"zero-one", fill(func(int) float64 { return float64(r.IntN(2)) })},
		{"grid-1/65536", fill(func(int) float64 { return float64(r.IntN(1<<16+1)) / (1 << 16) })},
		{"subnormal", fill(func(int) float64 { return math.Float64frombits(r.Uint64() & (1<<52 - 1)) })},
		{"one", fill(func(int) float64 { return 1 })},
		{"negative-zero", fill(func(i int) float64 {
			switch i % 3 {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return 0
			}
			return r.Float64()
		})},
	}
}

// TestSegmentSortMatchesReference pins the radix-sorted segment against
// the comparator sort at sizes either side of a 64-bit word and of the
// 2048-entry digit, an appended tail's 8192 records and a default
// 256Ki-record segment.
func TestSegmentSortMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 2047, 2048, 2049, 8192, DefaultSegmentSize} {
		for _, c := range sortTestColumns(n) {
			checkSegmentSort(t, fmt.Sprintf("n=%d %s", n, c.name), c.col)
		}
	}
}

// foldScores reads data as little-endian float64 bit patterns and
// folds each into [0, 1]: the low 63 bits taken modulo the bit pattern
// of 1.0, plus one, land on every representable score, subnormals
// included, and a set sign bit on a zero result gives -0.
func foldScores(data []byte) []float64 {
	const oneBits = 0x3FF0000000000000
	var out []float64
	for ; len(data) >= 8; data = data[8:] {
		u := binary.LittleEndian.Uint64(data)
		v := math.Float64frombits((u &^ (1 << 63)) % (oneBits + 1))
		if v == 0 && u>>63 != 0 {
			v = math.Copysign(0, -1)
		}
		out = append(out, v)
	}
	return out
}

// FuzzSegmentSortMatchesReference sorts columns of raw float bit
// patterns folded into [0, 1], tiled to n records so equal scores
// recur at distinct ids, and requires the comparator reference's
// permutation (committed seed corpus in testdata/fuzz).
func FuzzSegmentSortMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, n uint16) {
		vals := foldScores(raw)
		if len(vals) == 0 || len(vals) > 4096 {
			t.Skip()
		}
		col := make([]float64, max(len(vals), int(n%4200)))
		for i := range col {
			col[i] = vals[i%len(vals)]
		}
		checkSegmentSort(t, fmt.Sprintf("%d records from %d values", len(col), len(vals)), col)
	})
}

// TestSegmentBuildsShareScratchConcurrently builds indexes of different
// segment sizes on many goroutines at once, each build fanning out
// across workers, so the pooled radix scratch is handed between
// builds of different sizes and grown while others are in use. A
// scratch shared by two builds at once, or stale histograms, show up
// as a permutation that differs from the reference, and as a data race
// under -race.
func TestSegmentBuildsShareScratchConcurrently(t *testing.T) {
	scores := testScores(30000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				segSize := []int{700, 2049, 9000, 30000}[(g+i)%4]
				ix, err := NewWithOptions(scores, Options{SegmentSize: segSize, Parallelism: 1 + g%3})
				if err != nil {
					t.Error(err)
					return
				}
				for _, s := range ix.segs {
					wantPerm, _ := sortSegmentReference(s.scores)
					if !slices.Equal(s.perm, wantPerm) {
						t.Errorf("goroutine %d, seg=%d, base %d: perm differs from the reference at %d",
							g, segSize, s.base, firstDiff(s.perm, wantPerm))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRadixScratchBoundedBySegment pins the scratch bound: scratch grown
// for a full-size segment serves any segment at most radixScratchSlack
// times smaller, and a smaller one replaces it with scratch of its own
// size, so a stream of appended tails does not keep it live.
func TestRadixScratchBoundedBySegment(t *testing.T) {
	r := new(radixScratch)
	sortCol := func(n int) {
		col := testScores(n)
		r.counts = [radixPasses][radixSize]int{}
		for _, s := range col {
			r.count(math.Float64bits(s))
		}
		perm, sorted := make([]int, n), make([]float64, n)
		r.sort(col, perm, sorted)
		if want, _ := sortSegmentReference(col); !slices.Equal(perm, want) {
			t.Fatalf("n=%d: perm differs from the reference at %d", n, firstDiff(perm, want))
		}
	}
	const full = 1 << 16
	for _, c := range []struct{ n, wantCap int }{
		{full, full},
		{full / radixScratchSlack, full},
		{full/radixScratchSlack - 1, full/radixScratchSlack - 1},
		{full, full},
	} {
		sortCol(c.n)
		if cap(r.keys) != c.wantCap || cap(r.ids) != c.wantCap {
			t.Fatalf("after a %d-record sort: scratch of %d keys and %d ids, want %d",
				c.n, cap(r.keys), cap(r.ids), c.wantCap)
		}
	}
}
