package index

import (
	"math"
	"slices"
	"sync"
	"testing"

	"supg/internal/randx"
)

// sameArray reports whether two indexes' columns live in one array.
func sameArray(a, b *ScoreIndex) bool { return &a.scores[0] == &b.scores[0] }

// grownIndex returns an index over col whose column array Append
// allocated, with spare capacity past its length.
func grownIndex(t *testing.T, col []float64, opts Options) *ScoreIndex {
	t.Helper()
	ix, err := NewWithOptions(col[:len(col)/2], opts)
	if err != nil {
		t.Fatal(err)
	}
	if ix, err = ix.Append(col[len(col)/2:]); err != nil {
		t.Fatal(err)
	}
	if cap(ix.scores) == ix.Len() {
		t.Fatalf("grown index of %d records has no spare capacity", ix.Len())
	}
	return ix
}

// assertSamePrimitives fails unless got answers every primitive
// exactly as want: counts, gathers, order statistics, and the bits of
// the mixture's weights and alias tables.
func assertSamePrimitives(t *testing.T, label string, want, got *ScoreIndex) {
	t.Helper()
	n := want.Len()
	assertIndexesEqual(t, want, got, n, got.segSize)
	for _, key := range []MixtureKey{{Exponent: 0.5, Mix: 0.1}, {Exponent: 2.3, Mix: 0.25}} {
		ww, wa := want.Mixture(key.Exponent, key.Mix)
		gw, ga := got.Mixture(key.Exponent, key.Mix)
		wp, wal := wa.Tables()
		gp, gal := ga.Tables()
		for i := range ww {
			if math.Float64bits(ww[i]) != math.Float64bits(gw[i]) ||
				math.Float64bits(wp[i]) != math.Float64bits(gp[i]) || wal[i] != gal[i] {
				t.Fatalf("%s key=%+v: mixture entry %d is (%v, %v, %d), fresh build's (%v, %v, %d)",
					label, key, i, gw[i], gp[i], gal[i], ww[i], wp[i], wal[i])
			}
		}
	}
}

// TestAppendChainMatchesFreshBuildAcrossGrowth grows an index by a
// chain of uneven appends that crosses several growth boundaries: most
// appends write into the spare capacity of the array the previous link
// left, some copy. After every link the index must answer every
// primitive bit for bit like a fresh build over the combined column.
func TestAppendChainMatchesFreshBuildAcrossGrowth(t *testing.T) {
	const total = 9000
	col := quantizedScores(61, total)
	col[4321] = math.Copysign(0, -1) // normalized inside an appended tail
	opts := Options{SegmentSize: 512}
	ix, err := NewWithOptions(col[:1000], opts)
	if err != nil {
		t.Fatal(err)
	}
	r := randx.New(5)
	inPlace, copies := 0, 0
	for n := 1000; n < total; {
		k := min(1+r.IntN(400), total-n)
		grown, err := ix.Append(col[n : n+k])
		if err != nil {
			t.Fatal(err)
		}
		if sameArray(grown, ix) {
			inPlace++
		} else {
			copies++
		}
		n += k
		ix = grown
		fresh, err := NewWithOptions(col[:n], opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePrimitives(t, "chain", fresh, ix)
	}
	if copies < 3 || inPlace < 3*copies {
		t.Fatalf("%d in-place appends and %d copies, want a chain across several growth boundaries",
			inPlace, copies)
	}
}

// TestAppendForkGrowsOnlyFirstChild: of two children of one parent, the
// first grows in place (sharing the parent's segment structs) and the
// second copies; both are correct and the parent is unchanged.
func TestAppendForkGrowsOnlyFirstChild(t *testing.T) {
	col := quantizedScores(62, 3000)
	opts := Options{SegmentSize: 256}
	parent := grownIndex(t, col, opts)
	before := slices.Clone(parent.Scores())
	a, b := quantizedScores(63, 200), quantizedScores(64, 300)

	first, err := parent.Append(a)
	if err != nil {
		t.Fatal(err)
	}
	second, err := parent.Append(b)
	if err != nil {
		t.Fatal(err)
	}
	if !sameArray(first, parent) || sameArray(second, parent) {
		t.Fatalf("first child in place: %v, second child in place: %v; want only the first",
			sameArray(first, parent), sameArray(second, parent))
	}
	for i, s := range parent.segs {
		if first.segs[i] != s {
			t.Fatalf("in-place child allocated a new struct for segment %d", i)
		}
	}
	for _, c := range []struct {
		name  string
		ix    *ScoreIndex
		whole []float64
	}{
		{"parent", parent, before},
		{"first", first, append(slices.Clone(before), a...)},
		{"second", second, append(slices.Clone(before), b...)},
	} {
		fresh, err := NewWithOptions(c.whole, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePrimitives(t, c.name, fresh, c.ix)
	}
}

// TestAppendConcurrentForks forks one parent from 8 goroutines at once:
// exactly one child grows in place, every child is correct, and the
// parent is unchanged. Run under -race it also checks that the
// in-place writer and the copying readers never touch the same memory.
func TestAppendConcurrentForks(t *testing.T) {
	col := quantizedScores(65, 4000)
	opts := Options{SegmentSize: 512}
	parent := grownIndex(t, col, opts)
	before := slices.Clone(parent.Scores())
	const forks = 8
	tails := make([][]float64, forks)
	children := make([]*ScoreIndex, forks)
	errs := make([]error, forks)
	for i := range tails {
		tails[i] = quantizedScores(uint64(70+i), 50+10*i)
	}
	var wg sync.WaitGroup
	for i := range tails {
		wg.Add(1)
		go func() {
			defer wg.Done()
			children[i], errs[i] = parent.Append(tails[i])
		}()
	}
	wg.Wait()
	inPlace := 0
	for i, c := range children {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if sameArray(c, parent) {
			inPlace++
		}
		fresh, err := NewWithOptions(append(slices.Clone(before), tails[i]...), opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePrimitives(t, "fork", fresh, c)
	}
	if inPlace != 1 {
		t.Fatalf("%d of %d concurrent children grew in place, want exactly 1", inPlace, forks)
	}
	fresh, err := NewWithOptions(before, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePrimitives(t, "parent", fresh, parent)
}

// TestRejectedAppendKeepsHeadroom: an append that fails validation
// gives back its claim, so the parent's next append still grows in
// place.
func TestRejectedAppendKeepsHeadroom(t *testing.T) {
	parent := grownIndex(t, quantizedScores(66, 2000), Options{SegmentSize: 300})
	before := slices.Clone(parent.Scores())
	if _, err := parent.Append([]float64{0.3, math.NaN()}); err == nil {
		t.Fatal("NaN append must be rejected")
	}
	grown, err := parent.Append([]float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if !sameArray(grown, parent) {
		t.Fatal("the append after a rejected one copied: the rejected claim was kept")
	}
	if !slices.Equal(parent.Scores(), before) {
		t.Fatal("the rejected append changed the parent's column")
	}
	if got := grown.Scores()[len(before):]; !slices.Equal(got, []float64{0.25, 0.75}) {
		t.Fatalf("grown tail %v, want [0.25 0.75]", got)
	}
}

// TestGrownColumnsClippedToLength: the column and every segment
// sub-column an index holds end their capacity at their length, so a
// caller's append reallocates instead of writing into the spare
// capacity an in-place child owns.
func TestGrownColumnsClippedToLength(t *testing.T) {
	parent := grownIndex(t, quantizedScores(67, 2000), Options{SegmentSize: 300})
	n := parent.Len()
	early := append(parent.Scores(), 0.5)
	child, err := parent.Append([]float64{0.125, 0.875})
	if err != nil {
		t.Fatal(err)
	}
	if !sameArray(child, parent) {
		t.Fatal("child copied instead of growing in place")
	}
	late := append(parent.Scores(), 0.5)
	for _, x := range [][]float64{early, late} {
		if &x[0] == &parent.scores[0] {
			t.Fatal("append to Scores() wrote into the column's array")
		}
	}
	if child.Score(n) != 0.125 || child.Score(n+1) != 0.875 {
		t.Fatalf("child's records are %v, %v; want 0.125, 0.875", child.Score(n), child.Score(n+1))
	}
	for _, ix := range []*ScoreIndex{parent, child} {
		if c := cap(ix.Scores()); c != ix.Len() {
			t.Fatalf("Scores() of %d records has capacity %d", ix.Len(), c)
		}
		for j, s := range ix.segs {
			if cap(s.scores) != len(s.scores) {
				t.Fatalf("segment %d sub-column of %d records has capacity %d", j, len(s.scores), cap(s.scores))
			}
		}
	}
}

// TestFromExternalAppendNeverWritesImage: an index adopted from
// external memory copies on its first append even when the image's
// slice has capacity to spare, and never writes past the image's
// length; the copy's own headroom then takes the next append in place.
func TestFromExternalAppendNeverWritesImage(t *testing.T) {
	scores := testScores(2000)
	opts := Options{SegmentSize: 600}
	want, err := NewWithOptions(scores, opts)
	if err != nil {
		t.Fatal(err)
	}
	ext := externalImage(want)
	const sentinel = 0.3125
	buf := make([]float64, len(ext.Column), 2*len(ext.Column))
	copy(buf, ext.Column)
	for i := len(buf); i < cap(buf); i++ {
		buf[:cap(buf)][i] = sentinel
	}
	ext.Column = buf
	got, err := FromExternal(ext, opts)
	if err != nil {
		t.Fatal(err)
	}
	extra := testScores(700)
	grown, err := got.Append(extra)
	if err != nil {
		t.Fatal(err)
	}
	if sameArray(grown, got) {
		t.Fatal("append to an external image grew in place")
	}
	for i, v := range buf[len(buf):cap(buf)] {
		if v != sentinel {
			t.Fatalf("append wrote %v past the image's length at %d", v, len(buf)+i)
		}
	}
	again, err := grown.Append(extra[:100])
	if err != nil {
		t.Fatal(err)
	}
	if !sameArray(again, grown) {
		t.Fatal("append to the copied column did not grow in place")
	}
	wantGrown, err := want.Append(extra)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePrimitives(t, "external", wantGrown, grown)
}
