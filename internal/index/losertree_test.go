package index

import (
	"math"
	"testing"
)

// mergedPair is one (id, score) emission captured from a merge, with
// the score held as raw bits so comparisons are exact.
type mergedPair struct {
	id   int
	bits uint64
}

func collectAscend(ix *ScoreIndex, limit int) []mergedPair {
	var out []mergedPair
	ix.Ascend(func(id int, score float64) bool {
		out = append(out, mergedPair{id, math.Float64bits(score)})
		return limit <= 0 || len(out) < limit
	})
	return out
}

func collectAscendHeap(ix *ScoreIndex, limit int) []mergedPair {
	var out []mergedPair
	ix.ascendHeap(func(id int, score float64) bool {
		out = append(out, mergedPair{id, math.Float64bits(score)})
		return limit <= 0 || len(out) < limit
	})
	return out
}

// TestAscendMatchesHeapMerge is the loser-tree equivalence sweep: the
// production Ascend must emit exactly the sequence of the retained
// container/heap oracle at every segmentation, over a column dense with
// cross-segment score ties.
func TestAscendMatchesHeapMerge(t *testing.T) {
	for _, n := range []int{1, 2, 9, 1000, 5000} {
		scores := quantizedScores(uint64(500+n), n)
		for _, segSize := range segmentSizesFor(n) {
			ix, err := NewWithOptions(scores, Options{SegmentSize: segSize})
			if err != nil {
				t.Fatal(err)
			}
			want := collectAscendHeap(ix, 0)
			got := collectAscend(ix, 0)
			if len(got) != n || len(want) != n {
				t.Fatalf("n=%d segSize=%d: emitted %d/%d pairs, want %d",
					n, segSize, len(got), len(want), n)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d segSize=%d: pair %d = %v, heap oracle %v",
						n, segSize, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAscendTieColumn drives the merge through a column where every
// record ties on score, so ordering is decided purely by global id
// across every segment boundary.
func TestAscendTieColumn(t *testing.T) {
	const n = 257
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = 0.5
	}
	for _, segSize := range []int{1, 7, 64, n} {
		ix, err := NewWithOptions(scores, Options{SegmentSize: segSize})
		if err != nil {
			t.Fatal(err)
		}
		got := collectAscend(ix, 0)
		if len(got) != n {
			t.Fatalf("segSize=%d: %d pairs, want %d", segSize, len(got), n)
		}
		for i, p := range got {
			if p.id != i || p.bits != math.Float64bits(0.5) {
				t.Fatalf("segSize=%d: pair %d = %v, want id %d score 0.5",
					segSize, i, p, i)
			}
		}
	}
}

// TestAscendEarlyStop checks that a yield returning false stops the
// merge after exactly the emitted prefix, and that the prefix matches
// the heap oracle's.
func TestAscendEarlyStop(t *testing.T) {
	const n = 1000
	scores := quantizedScores(42, n)
	ix, err := NewWithOptions(scores, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{1, 2, 63, 64, 65, n - 1, n} {
		got := collectAscend(ix, limit)
		want := collectAscendHeap(ix, limit)
		if len(got) != limit || len(want) != limit {
			t.Fatalf("limit=%d: emitted %d/%d pairs", limit, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("limit=%d: pair %d = %v, heap oracle %v",
					limit, i, got[i], want[i])
			}
		}
	}
}

// TestLoserTreeEmptySegments drives newLoserTree directly over segment
// slices that include exhausted (empty) runs — a state built indexes
// never produce but the tree must tolerate, since it skips empties at
// init.
func TestLoserTreeEmptySegments(t *testing.T) {
	mk := func(base int, scores ...float64) *segment {
		perm := make([]int, len(scores))
		for i := range perm {
			perm[i] = i
		}
		return &segment{base: base, scores: scores, perm: perm, sorted: scores}
	}
	empty := &segment{}

	for _, tc := range []struct {
		name string
		segs []*segment
		want []mergedPair
	}{
		{"all empty", []*segment{empty, empty}, nil},
		{"no segments", nil, nil},
		{"empty between runs", []*segment{mk(0, 0.3, 0.9), empty, mk(2, 0.1)},
			[]mergedPair{{2, math.Float64bits(0.1)}, {0, math.Float64bits(0.3)}, {1, math.Float64bits(0.9)}}},
		{"single run after empties", []*segment{empty, mk(5, 0.2, 0.4), empty},
			[]mergedPair{{5, math.Float64bits(0.2)}, {6, math.Float64bits(0.4)}}},
	} {
		lt := newLoserTree(tc.segs)
		var got []mergedPair
		lt.ascend(func(id int, score float64) bool {
			got = append(got, mergedPair{id, math.Float64bits(score)})
			return true
		})
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d pairs, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: pair %d = %v, want %v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}
