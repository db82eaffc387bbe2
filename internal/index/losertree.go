package index

// This file implements the flat tournament (loser) tree behind Ascend's
// k-way merge of the per-segment sorted runs, replacing the historical
// container/heap merge (kept as ascendHeap in heapmerge_test.go, the
// test oracle).
//
// A loser tree beats a binary heap for repeated-pop merges on two
// counts. First, replacing the just-popped minimum costs exactly one
// root-to-leaf path of ceil(log2 k) comparisons — a heap's sift-down
// performs up to two comparisons per level to pick the smaller child.
// Second, the structure is monomorphic: cursors cache their current
// (code, score, id) key inline in a flat slice, so a comparison touches
// two 32-byte cursor records with no interface dispatch and no
// heap.Interface indirection. On a quantized index the cached 2-byte
// code decides all but the one-in-65536 boundary-bucket comparisons
// exactly as the heap's Less did, so the emitted order — (score, id)
// ascending — is byte-identical either way (pinned by the
// loser-tree-vs-heap equivalence sweep in losertree_test.go).

// ltCursor is one segment's position in the merge with its current sort
// key cached inline. done marks an exhausted (or initially empty)
// segment; done cursors lose every match.
type ltCursor struct {
	seg   *segment
	pos   int
	id    int     // seg.base + seg.perm[pos]
	score float64 // seg.sorted[pos]
	code  uint16  // seg.qsorted[pos] (quantized trees only)
	done  bool
}

// load refreshes the cached key from the cursor's position.
func (c *ltCursor) load(quant bool) {
	s := c.seg
	c.id = s.base + s.perm[c.pos]
	c.score = s.sorted[c.pos]
	if quant {
		c.code = s.qsorted[c.pos]
	}
}

// loserTree is the flat tournament over k segment cursors. node[1..k-1]
// hold the losers of the internal matches (node t plays the winners of
// its subtrees 2t and 2t+1; leaf i sits at implicit position k+i);
// node[0] holds the overall winner — the cursor with the least (score,
// id) key.
type loserTree struct {
	cursors []ltCursor
	node    []int
	quant   bool
}

// newLoserTree builds the initial tournament over every non-empty
// segment. quant must only be set when every segment carries sorted
// code vectors.
func newLoserTree(segs []*segment, quant bool) *loserTree {
	lt := &loserTree{quant: quant}
	for _, s := range segs {
		if len(s.sorted) == 0 {
			continue
		}
		c := ltCursor{seg: s}
		c.load(quant)
		lt.cursors = append(lt.cursors, c)
	}
	k := len(lt.cursors)
	if k == 0 {
		return lt
	}
	// Bottom-up initial tournament: winner[t] is the winner of the
	// subtree rooted at t, and the loser of each match is frozen into
	// node[t]. winner is init-only scratch; pops replay only one leaf's
	// path via fix.
	lt.node = make([]int, k)
	winner := make([]int, 2*k)
	for i := 0; i < k; i++ {
		winner[k+i] = i
	}
	for t := k - 1; t >= 1; t-- {
		a, b := winner[2*t], winner[2*t+1]
		if lt.less(a, b) {
			winner[t], lt.node[t] = a, b
		} else {
			winner[t], lt.node[t] = b, a
		}
	}
	lt.node[0] = winner[1]
	return lt
}

// less reports whether cursor a's current key sorts strictly before
// cursor b's in the global (score, id) ascent. On a quantized tree the
// cached 2-byte codes decide every comparison except within the one
// bucket where they tie (the code map is monotone, so a strict code
// inequality is exactly a strict score inequality); there the float
// comparison resolves it, as in the unquantized tree. Exhausted cursors
// sort after everything.
func (lt *loserTree) less(a, b int) bool {
	ca, cb := &lt.cursors[a], &lt.cursors[b]
	if ca.done || cb.done {
		return !ca.done && cb.done
	}
	if lt.quant && ca.code != cb.code {
		return ca.code < cb.code
	}
	if ca.score != cb.score {
		return ca.score < cb.score
	}
	return ca.id < cb.id
}

// fix replays leaf s's matches after its cursor advanced: the new key
// plays the stored loser at each ancestor, swapping whenever the stored
// cursor wins, and the surviving winner lands in node[0]. One
// comparison per level — the loser tree's whole advantage.
func (lt *loserTree) fix(s int) {
	for t := (s + len(lt.cursors)) / 2; t >= 1; t /= 2 {
		if lt.less(lt.node[t], s) {
			s, lt.node[t] = lt.node[t], s
		}
	}
	lt.node[0] = s
}

// ascend streams the merged (id, score) sequence into yield until the
// tree is exhausted or yield returns false.
func (lt *loserTree) ascend(yield func(id int, score float64) bool) {
	if len(lt.cursors) == 0 {
		return
	}
	w := lt.node[0]
	for {
		c := &lt.cursors[w]
		if c.done {
			return
		}
		if !yield(c.id, c.score) {
			return
		}
		if c.pos++; c.pos < len(c.seg.sorted) {
			c.load(lt.quant)
		} else {
			c.done = true
		}
		lt.fix(w)
		w = lt.node[0]
	}
}
