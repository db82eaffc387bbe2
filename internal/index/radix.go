package index

import (
	"math"
	"sync"
)

// The segment sort is a stable least-significant-digit radix sort of
// local ids keyed by the bit pattern of their score. Scores are
// validated into [0, 1] with -0 rewritten as +0, where the bit pattern
// of a float orders exactly like its value (the property KthHighest and
// verifySegmentData rely on), so sorting ids that start in ascending
// order stably by bits yields the unique ascending (score, id)
// permutation — the same one any correct comparator sort produces.
//
// A score's 62 significant bits (1.0 is 0x3FF0000000000000) split into
// six 11-bit digits. Their six histograms are counted in buildSegment's
// validation pass, a digit that is constant across the segment is
// skipped (its pass would be the identity), and the remaining passes
// scatter (score, id) pairs between the output arrays and one pooled
// scratch pair, arranged so the last pass writes perm and sorted.

const (
	radixBits   = 11
	radixSize   = 1 << radixBits
	radixMask   = radixSize - 1
	radixPasses = (62 + radixBits - 1) / radixBits
)

// radixScratch is one segment build's working memory: the digit
// histograms and the ping-pong partner of the output arrays.
type radixScratch struct {
	counts [radixPasses][radixSize]int
	keys   []float64
	ids    []int
}

// radixScratches recycles build scratch across segment builds, so a
// build allocates only the perm and sorted arrays it returns.
var radixScratches = sync.Pool{New: func() any { return new(radixScratch) }}

// radixScratchSlack is how many times larger than a segment its scratch
// may be before the build replaces it with one of the segment's size.
// A stream of appended tails reuses scratch constantly, so without the
// bound the scratch of one full-size build would stay pinned, and
// 16 bytes per record of it held live, for as long as appends arrive;
// the slack lets the short last segment of a table share the scratch
// of the full ones.
const radixScratchSlack = 4

// count adds score bit pattern b to the six digit histograms.
func (r *radixScratch) count(b uint64) {
	r.counts[0][b&radixMask]++
	r.counts[1][b>>radixBits&radixMask]++
	r.counts[2][b>>(2*radixBits)&radixMask]++
	r.counts[3][b>>(3*radixBits)&radixMask]++
	r.counts[4][b>>(4*radixBits)&radixMask]++
	r.counts[5][b>>(5*radixBits)&radixMask]++
}

// sort writes sub's local ids ascending by (score, id) into perm and
// sub[perm[i]] into sorted. sub must be non-empty and validated, and
// r.counts must hold the histograms of every score in sub.
func (r *radixScratch) sort(sub []float64, perm []int, sorted []float64) {
	n := len(sub)
	first := math.Float64bits(sub[0])
	var live [radixPasses]int
	passes := 0
	for d := range radixPasses {
		if r.counts[d][first>>(d*radixBits)&radixMask] != n {
			live[passes] = d
			passes++
		}
	}
	if passes == 0 {
		// Every score has the same bits: id order is the sorted order.
		for i := range perm {
			perm[i] = i
		}
		copy(sorted, sub)
		return
	}
	if passes > 1 && (cap(r.keys) < n || cap(r.keys) > radixScratchSlack*n) {
		r.keys, r.ids = make([]float64, n), make([]int, n)
	}
	var srcIDs []int // nil: the first pass reads ids in record order
	srcKeys := sub
	for j, d := range live[:passes] {
		// Counting back from the last pass, which writes the outputs,
		// the passes alternate between the outputs and the scratch.
		dstKeys, dstIDs := sorted, perm
		if (passes-1-j)%2 == 1 {
			dstKeys, dstIDs = r.keys[:n], r.ids[:n]
		}
		offs := &r.counts[d]
		sum := 0
		for i, c := range offs {
			offs[i] = sum
			sum += c
		}
		shift := uint(d * radixBits)
		if srcIDs == nil {
			for i, k := range srcKeys {
				x := math.Float64bits(k) >> shift & radixMask
				o := offs[x]
				offs[x] = o + 1
				dstKeys[o], dstIDs[o] = k, i
			}
		} else {
			for i, k := range srcKeys {
				x := math.Float64bits(k) >> shift & radixMask
				o := offs[x]
				offs[x] = o + 1
				dstKeys[o], dstIDs[o] = k, srcIDs[i]
			}
		}
		srcKeys, srcIDs = dstKeys, dstIDs
	}
}
