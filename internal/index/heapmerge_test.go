package index

import "container/heap"

// The historical container/heap k-way merge that the loser tree
// replaced. It lives in a test file as the independent oracle for
// Ascend: the equivalence sweep in losertree_test.go pins the loser
// tree's output against it, and BenchmarkAscendMerge/heap prices it.

// segCursor is one segment's position in the heap merge.
type segCursor struct {
	seg *segment
	pos int // index into seg.perm/seg.sorted
}

func (c segCursor) score() float64 { return c.seg.sorted[c.pos] }
func (c segCursor) id() int        { return c.seg.base + c.seg.perm[c.pos] }

// mergeHeap orders segment cursors by (score, global id) ascending.
type mergeHeap []segCursor

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(a, b int) bool {
	ca, cb := h[a], h[b]
	// On a quantized index, a strict 2-byte code inequality decides the
	// exact score comparison (monotone map); only code-equal cursors —
	// one bucket in 65536 — touch the 8-byte sorted runs. The resulting
	// order is identical either way.
	if qa, qb := ca.seg.qsorted, cb.seg.qsorted; qa != nil && qb != nil {
		if x, y := qa[ca.pos], qb[cb.pos]; x != y {
			return x < y
		}
	}
	if ca.score() != cb.score() {
		return ca.score() < cb.score()
	}
	return ca.id() < cb.id()
}
func (h mergeHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(segCursor)) }
func (h *mergeHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// ascendHeap streams (id, score) pairs in ascending (score, id) order,
// like Ascend, through a container/heap of segment cursors.
func (ix *ScoreIndex) ascendHeap(yield func(id int, score float64) bool) {
	h := make(mergeHeap, 0, len(ix.segs))
	for _, s := range ix.segs {
		if len(s.sorted) > 0 {
			h = append(h, segCursor{seg: s})
		}
	}
	heap.Init(&h)
	for len(h) > 0 {
		c := h[0]
		if !yield(c.id(), c.score()) {
			return
		}
		if c.pos+1 < len(c.seg.sorted) {
			h[0].pos++
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
}
