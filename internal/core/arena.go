package core

import "sync"

// This file implements the per-query scratch arena behind the select
// hot path's allocation budget (gated in BENCH_hotpath.json).
//
// A query's estimator churns through a dozen short-lived buffers —
// draw indices, reweighting factors, the sorted sample assembly,
// suffix sums, CI scratch — all dead the moment the Result is
// assembled. The arena bump-allocates them from pooled slabs so the
// steady state allocates nothing, while the true result allocations
// (Result.Indices, anything escaping to the caller) stay on the heap.
//
// Ownership rules:
//
//   - Arena memory lives until the owning Select call releases the
//     arena. Nothing arena-backed may be stored in a Result, a
//     TauResult returned by a public function, or any other structure
//     that outlives the query (copy it out instead — see assembleFrom's
//     no-threshold path).
//   - A nil *arena is valid everywhere and falls back to plain make,
//     which is how the public EstimateTau entry point runs: its
//     TauResult (Labeled map included) escapes to the caller, so it
//     must own its memory.
//   - Arenas are single-goroutine, like the random stream. The
//     intra-query parallelism in internal/index never sees them.
type arena struct {
	intBuf   []int
	intOff   int
	floatBuf []float64
	floatOff int
	free     []map[int]bool // recycled label maps
	lent     []map[int]bool // maps handed out since the last reset
}

var arenaPool = sync.Pool{New: func() any { return &arena{} }}

func acquireArena() *arena { return arenaPool.Get().(*arena) }

// release returns the arena's slabs to the pool for the next query.
// All memory it handed out becomes invalid.
func (a *arena) release() {
	if a == nil {
		return
	}
	a.intOff, a.floatOff = 0, 0
	a.free = append(a.free, a.lent...)
	a.lent = a.lent[:0]
	arenaPool.Put(a)
}

// ints returns a zeroed length-n scratch slice. The three-index slice
// keeps an append on one handout from bleeding into the next.
func (a *arena) ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	if len(a.intBuf)-a.intOff < n {
		a.intBuf = make([]int, growSlab(n, len(a.intBuf)))
		a.intOff = 0
	}
	s := a.intBuf[a.intOff : a.intOff+n : a.intOff+n]
	a.intOff += n
	clear(s)
	return s
}

// intCap returns a zero-length scratch slice with capacity n, for
// append-style assembly.
func (a *arena) intCap(n int) []int { return a.ints(n)[:0] }

// floats returns a zeroed length-n scratch slice.
func (a *arena) floats(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if len(a.floatBuf)-a.floatOff < n {
		a.floatBuf = make([]float64, growSlab(n, len(a.floatBuf)))
		a.floatOff = 0
	}
	s := a.floatBuf[a.floatOff : a.floatOff+n : a.floatOff+n]
	a.floatOff += n
	clear(s)
	return s
}

// labelMap returns an empty map[int]bool, recycled from a previous
// query when possible. Like slice scratch it dies at release; the
// public estimator paths (nil arena) get a fresh map the caller owns.
func (a *arena) labelMap(hint int) map[int]bool {
	if a == nil {
		return make(map[int]bool, hint)
	}
	var m map[int]bool
	if n := len(a.free); n > 0 {
		m = a.free[n-1]
		a.free = a.free[:n-1]
		clear(m)
	} else {
		m = make(map[int]bool, hint)
	}
	a.lent = append(a.lent, m)
	return m
}

// growSlab sizes a replacement slab: at least the request, at least
// double the old slab (so repeated growth converges), with a floor
// that covers a typical oracle budget's worth of draws outright.
func growSlab(n, old int) int {
	size := 4096
	if 2*old > size {
		size = 2 * old
	}
	if n > size {
		size = n
	}
	return size
}
