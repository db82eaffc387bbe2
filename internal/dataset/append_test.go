package dataset

import (
	"math"
	"slices"
	"sync"
	"testing"

	"supg/internal/randx"
)

// sameArrays reports whether two datasets' columns live in one pair of
// arrays.
func sameArrays(a, b *Dataset) bool {
	return &a.scores[0] == &b.scores[0] && &a.labels[0] == &b.labels[0]
}

// assertSameRecords fails unless got holds exactly want's records.
func assertSameRecords(t *testing.T, label string, want, got *Dataset) {
	t.Helper()
	if got.Len() != want.Len() || got.PositiveCount() != want.PositiveCount() {
		t.Fatalf("%s: %d records, %d positives; want %d, %d",
			label, got.Len(), got.PositiveCount(), want.Len(), want.PositiveCount())
	}
	for i := 0; i < want.Len(); i++ {
		if math.Float64bits(got.Score(i)) != math.Float64bits(want.Score(i)) || got.TrueLabel(i) != want.TrueLabel(i) {
			t.Fatalf("%s: record %d is (%v, %v), want (%v, %v)",
				label, i, got.Score(i), got.TrueLabel(i), want.Score(i), want.TrueLabel(i))
		}
	}
}

// grownDataset returns a dataset over full's records whose arrays
// Append allocated, with spare capacity past its length.
func grownDataset(t *testing.T, full *Dataset) *Dataset {
	t.Helper()
	h := full.Len() / 2
	d := full.Slice(0, h).Append(full.Slice(h, full.Len()))
	if cap(d.scores) == d.Len() || cap(d.labels) == d.Len() {
		t.Fatal("grown dataset has no spare capacity")
	}
	return d
}

// TestAppendChainAcrossGrowth: a chain of uneven appends crossing
// several growth boundaries holds, after every link, exactly the
// records of the combined columns; most links grow in place.
func TestAppendChainAcrossGrowth(t *testing.T) {
	full := Beta(randx.New(3), 9000, 0.5, 2)
	r := randx.New(4)
	d := full.Slice(0, 1000)
	inPlace, copies := 0, 0
	for n := 1000; n < full.Len(); {
		k := min(1+r.IntN(400), full.Len()-n)
		grown := d.Append(full.Slice(n, n+k))
		if sameArrays(grown, d) {
			inPlace++
		} else {
			copies++
		}
		n += k
		d = grown
		assertSameRecords(t, "chain", full.Slice(0, n), d)
	}
	if copies < 3 || inPlace < 3*copies {
		t.Fatalf("%d in-place appends and %d copies, want a chain across several growth boundaries", inPlace, copies)
	}
}

// TestAppendForkGrowsOnlyFirstChild: of two children of one parent —
// here one through a renamed copy, which shares the parent's arrays —
// the first grows in place and the second copies; both are correct and
// the parent is unchanged.
func TestAppendForkGrowsOnlyFirstChild(t *testing.T) {
	full := Beta(randx.New(5), 3000, 0.5, 2)
	parent := grownDataset(t, full)
	a, b := Beta(randx.New(6), 200, 0.5, 2), Beta(randx.New(7), 300, 0.5, 2)
	first := parent.WithName("alias").Append(a)
	second := parent.Append(b)
	if !sameArrays(first, parent) || sameArrays(second, parent) {
		t.Fatalf("first child in place: %v, second child in place: %v; want only the first",
			sameArrays(first, parent), sameArrays(second, parent))
	}
	assertSameRecords(t, "parent", full, parent)
	assertSameRecords(t, "first", full.Clone().Append(a), first)
	assertSameRecords(t, "second", full.Clone().Append(b), second)
}

// TestAppendConcurrentForks forks one parent from 8 goroutines at once:
// exactly one child grows in place and every child is correct.
func TestAppendConcurrentForks(t *testing.T) {
	full := Beta(randx.New(8), 4000, 0.5, 2)
	parent := grownDataset(t, full)
	const forks = 8
	tails := make([]*Dataset, forks)
	children := make([]*Dataset, forks)
	for i := range tails {
		tails[i] = Beta(randx.New(uint64(20+i)), 50+10*i, 0.5, 2)
	}
	var wg sync.WaitGroup
	for i := range tails {
		wg.Add(1)
		go func() {
			defer wg.Done()
			children[i] = parent.Append(tails[i])
		}()
	}
	wg.Wait()
	inPlace := 0
	for i, c := range children {
		if sameArrays(c, parent) {
			inPlace++
		}
		assertSameRecords(t, "fork", full.Clone().Append(tails[i]), c)
	}
	if inPlace != 1 {
		t.Fatalf("%d of %d concurrent children grew in place, want exactly 1", inPlace, forks)
	}
	assertSameRecords(t, "parent", full, parent)
}

// TestScoresClippedToLength: Scores() of a grown dataset ends its
// capacity at its length, so a caller's append reallocates instead of
// writing into the spare capacity an in-place child owns.
func TestScoresClippedToLength(t *testing.T) {
	parent := grownDataset(t, Beta(randx.New(9), 2000, 0.5, 2))
	n := parent.Len()
	early := append(parent.Scores(), 0.5)
	child := parent.Append(MustNew("tail", []float64{0.125, 0.875}, []bool{true, false}))
	if !sameArrays(child, parent) {
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
	if c := cap(child.Scores()); c != child.Len() {
		t.Fatalf("Scores() of %d records has capacity %d", child.Len(), c)
	}
}

// TestAppendNeverWritesRetainedSlices: New and FromColumns retain the
// caller's slices, whose capacity Append must never write into; the
// copy Append makes instead takes the next append in place.
func TestAppendNeverWritesRetainedSlices(t *testing.T) {
	for _, ctor := range []struct {
		name string
		fn   func(string, []float64, []bool) (*Dataset, error)
	}{{"New", New}, {"FromColumns", FromColumns}} {
		scores := make([]float64, 100, 400)
		labels := make([]bool, 100, 400)
		for i := range scores {
			scores[i] = float64(i) / 100
			labels[i] = i%3 == 0
		}
		sentinelScores := slices.Clone(scores[:cap(scores)])
		sentinelLabels := slices.Clone(labels[:cap(labels)])
		d, err := ctor.fn("t", scores, labels)
		if err != nil {
			t.Fatal(err)
		}
		tail := MustNew("tail", []float64{0.5, 0.25}, []bool{true, true})
		grown := d.Append(tail)
		if sameArrays(grown, d) {
			t.Fatalf("%s: append grew into the caller's slices", ctor.name)
		}
		if !slices.Equal(scores[:cap(scores)], sentinelScores) || !slices.Equal(labels[:cap(labels)], sentinelLabels) {
			t.Fatalf("%s: append wrote into the caller's slices", ctor.name)
		}
		if again := grown.Append(tail); !sameArrays(again, grown) {
			t.Fatalf("%s: append to the copied columns did not grow in place", ctor.name)
		}
	}
}
