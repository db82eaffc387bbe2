package index

import (
	"math"
	"slices"
	"testing"

	"supg/internal/randx"
)

// answerRef is the O(n) reference for an answer's ids: every id with
// score >= tau, plus extra, ascending.
func answerRef(scores []float64, tau float64, extra []int) []int {
	out := slices.Clone(extra)
	for i, s := range scores {
		if s >= tau {
			out = append(out, i)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// belowTau draws an ascending random subset of the ids scoring below
// tau: each with probability 1/every.
func belowTau(r *randx.Rand, scores []float64, tau float64, every int) []int {
	var out []int
	for i, s := range scores {
		if s < tau && r.IntN(every) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// TestWalkAtLeastWithMatchesAppend pins that a listed and a streamed
// answer are the same ids: AppendAtLeastWith (sequential and fanned
// out) and the concatenated chunks of WalkAtLeastWith both equal the
// O(n) reference, on segment sizes around the bitmap word, thresholds
// on both sides of each segment's cut, no threshold part (+Inf), and
// extras of every density; the 40,000-record column lists 16Ki or more
// ids across goroutines. Chunks never outgrow their buffer, and a walk
// stopped after its first chunk returns the pooled bitmaps clean, so the
// next gather is still exact.
func TestWalkAtLeastWithMatchesAppend(t *testing.T) {
	r := randx.New(43)
	column := func(n int) []float64 {
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = math.Round(r.Float64()*40) / 40
		}
		return scores
	}
	type layout struct {
		scores       []float64
		segSize, par int
	}
	small, large := column(6000), column(40000)
	layouts := []layout{{large, 4096, 4}, {large, 4096, 1}}
	for _, segSize := range []int{1, 63, 64, 65, 1000, DefaultSegmentSize} {
		layouts = append(layouts, layout{small, segSize, 1}, layout{small, segSize, 4})
	}
	for _, l := range layouts {
		scores, segSize, par := l.scores, l.segSize, l.par
		ix, err := NewWithOptions(scores, Options{SegmentSize: segSize, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		for _, tau := range []float64{0, 0.1, 0.5, 0.9, 1, math.Inf(1)} {
			for _, every := range []int{1, 7, 500, len(scores) + 1} {
				extra := belowTau(r, scores, tau, every)
				want := answerRef(scores, tau, extra)
				if got := ix.AppendAtLeastWith(nil, tau, extra); !slices.Equal(got, want) {
					t.Fatalf("seg %d par %d tau %v extras %d: listed %d ids, want %d", segSize, par, tau, len(extra), len(got), len(want))
				}
				prefix := []int{-2, -1}
				if got := ix.AppendAtLeastWith(slices.Clone(prefix), tau, extra); !slices.Equal(got, append(prefix, want...)) {
					t.Fatalf("seg %d par %d tau %v: listing after a prefix diverged", segSize, par, tau)
				}
				for _, size := range []int{0, 1, 64, 100, 4096} {
					var streamed []int
					ix.WalkAtLeastWith(tau, extra, make([]int, 0, size), func(chunk []int) bool {
						if len(chunk) == 0 || len(chunk) > max(size, 64) {
							t.Fatalf("seg %d tau %v buffer %d: chunk of %d ids", segSize, tau, size, len(chunk))
						}
						streamed = append(streamed, chunk...)
						return true
					})
					if !slices.Equal(streamed, want) {
						t.Fatalf("seg %d par %d tau %v extras %d buffer %d: streamed %d ids, want %d", segSize, par, tau, len(extra), size, len(streamed), len(want))
					}
					var first []int
					ix.WalkAtLeastWith(tau, extra, make([]int, 0, size), func(chunk []int) bool {
						first = slices.Clone(chunk)
						return false
					})
					if !slices.Equal(first, want[:len(first)]) {
						t.Fatalf("seg %d tau %v buffer %d: a stopped walk's chunk is not a prefix", segSize, tau, size)
					}
				}
			}
		}
	}
}

// TestEachAtLeastCoversSuffix pins that EachAtLeast visits each record
// scoring >= tau exactly once, in ascending score order per segment.
func TestEachAtLeastCoversSuffix(t *testing.T) {
	r := randx.New(47)
	scores := make([]float64, 3000)
	for i := range scores {
		scores[i] = math.Round(r.Float64()*30) / 30
	}
	for _, segSize := range []int{64, 1000, DefaultSegmentSize} {
		ix, err := NewWithOptions(scores, Options{SegmentSize: segSize})
		if err != nil {
			t.Fatal(err)
		}
		for _, tau := range []float64{0, 0.5, 1, math.Inf(1)} {
			var got []int
			ix.EachAtLeast(tau, func(base int, local []int) {
				if len(local) == 0 {
					t.Fatalf("seg %d tau %v: an empty run", segSize, tau)
				}
				for i, p := range local {
					if i > 0 && scores[base+p] < scores[base+local[i-1]] {
						t.Fatalf("seg %d tau %v: run out of score order", segSize, tau)
					}
					got = append(got, base+p)
				}
			})
			slices.Sort(got)
			if want := appendAtLeastRef(scores, tau); !slices.Equal(got, want) {
				t.Fatalf("seg %d tau %v: visited %d records, want %d", segSize, tau, len(got), len(want))
			}
		}
	}
}
