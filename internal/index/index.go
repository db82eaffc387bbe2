// Package index provides ScoreIndex, the immutable per-table proxy
// index at the heart of the selection hot path.
//
// The paper's operational model (Section 4.1) evaluates the cheap proxy
// once over the whole dataset; everything a query then needs from the
// score column — threshold counts |{x : A(x) >= tau}|, order
// statistics, the defensive-mixture sampling distribution and its Vose
// alias table, and the stage-2 table a two-stage precision query
// restricts that distribution to — is a pure function of that column.
// A ScoreIndex sorts the column at table/proxy registration and caches
// the sampling structures on first use, so each query costs
// O(oracle budget + |result|), plus O(|D′|) the first time a precision
// query restricts a mixture to a cut D′, instead of re-scanning,
// re-sorting, and rebuilding sampling structures over all n records.
//
// # Segmented layout
//
// The score column is split into fixed-size segments (Options.
// SegmentSize, default 256Ki records). Each segment owns its validated
// score sub-column and an ascending (score, id) permutation, and the
// segments are built independently across a bounded worker pool. Each
// permutation comes from a stable radix sort on the scores' bit
// patterns (radix.go), at most six linear passes over the segment, so
// registration of an n-record table costs O(n/P) wall time for P
// workers instead of a single-core O(n log n) comparator sort. The
// paper's statistical guarantees are distributional — they constrain
// which records are sampled, not how the sampling structures are laid
// out in memory — so the segmented index is required (and tested, see
// core.TestSelectSegmentedMatchesMonolithic) to answer every
// ScoreSource operation bit-for-bit identically to a monolithic
// single-segment index:
//
//   - CountAtLeast sums exact per-segment binary-search counts.
//   - KthHighest selects the exact global order statistic by binary
//     search over the IEEE-754 bit space (scores are validated
//     non-negative, where the bit pattern orders like the value).
//   - AppendAtLeast emits each segment's matching ids in ascending id
//     order without sorting them or comparing a score: it marks the
//     smaller side of the segment's permutation cut in a pooled bitmap
//     and walks the bitmap's words low to high. Segments partition the
//     id space in order, so the concatenation is globally ascending —
//     the degenerate k-way merge. AppendAtLeastWith marks a few extra
//     ids below the threshold in the same bitmaps (an answer's sampled
//     positives), so they come out merged, and WalkAtLeastWith streams
//     the same ids in fixed-size chunks. EachAtLeast hands out the
//     sorted suffixes themselves, for callers that only count.
//   - Mixture computes the defensive weights with
//     sampling.DefensiveWeights over the whole column, whose weights do
//     not depend on its worker count, and feeds them to the same global
//     alias-table machinery, so weighted draws consume the random
//     stream identically to the monolithic path.
//   - Restriction restricts a mixture's weights to the ascending ids
//     AppendAtLeast emits and memoizes the result beside the mixture
//     (sampling.Restrict), so the stage-2 table, too, is the monolithic
//     one.
//
// # Incremental append
//
// Append extends an index with newly appended records without
// re-sorting the existing ones: old segments are reused as-is (their
// permutations are local, so nothing is rebased), the new records form
// fresh segments, and only those are validated and sorted. The mixture
// cache, and with it every stage-2 memo, starts empty on the appended
// index because the defensive weights are a function of the whole
// column.
//
// The column itself grows in place when it can, so an append costs
// O(appended records) outside the mixture rebuild. Append writes the
// new records into the spare capacity of the array the parent's column
// lives in when an earlier Append allocated that array and no other
// child has claimed the space past the parent's length. The claim is
// atomic (see extent): of several children of one parent, the first
// grows in place — sharing the parent's segment structs, which already
// alias the array — and every other child copies. A failed append
// gives its claim back. A copy takes append's growth headroom, which
// the appends after it fill in place. Columns adopted from external
// memory (FromExternal, typically a mapped file) are never written past
// their length. Scores and every segment sub-column are clipped to
// their length, so no caller's append can reach the shared capacity
// either.
//
// A ScoreIndex is immutable after NewWithOptions/Append and safe for
// concurrent use by any number of queries; the mixture cache and its
// stage-2 memos are internally synchronized.
//
// # Intra-query parallelism
//
// Two read-path phases fan out on the same parallel.Run the segment
// build uses, bounded by Options.Parallelism: AppendAtLeast gathers of
// 16Ki or more ids, across segments into presized per-segment slots,
// and mixture builds, whose weight transform and normalize passes
// sampling.DefensiveWeights splits into fixed blocks of records. Only
// phases whose outputs are independent of worker assignment
// parallelize: gathers write disjoint presized slots concatenated in
// fixed segment order, and the weights' global normalizing sum stays
// one sequential left-to-right pass because float addition is not
// associative.
// CountAtLeast stays sequential: its per-segment binary searches cost
// less than dispatching them. The random stream is never consumed off
// the calling goroutine, so results are byte-identical at every
// parallelism level (pinned by the equivalence sweeps in
// parallel_query_test.go).
package index

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"supg/internal/parallel"
)

// DefaultSegmentSize is the records-per-segment default: large enough
// that per-segment binary searches stay cheap relative to a query's
// oracle budget, small enough that a million-record table builds across
// several workers and an appended batch re-sorts only its own tail.
const DefaultSegmentSize = 256 << 10

// Options tune index construction. The zero value selects the
// defaults noted on each field.
type Options struct {
	// SegmentSize is the number of records per segment (the last
	// segment of a table may be smaller). <= 0 selects
	// DefaultSegmentSize.
	SegmentSize int
	// Parallelism bounds the goroutines one call runs on: the segments
	// built concurrently, and the two read-path fan-outs (large
	// AppendAtLeast gathers and mixture builds). <= 0 selects
	// GOMAXPROCS; 1 runs everything on the calling goroutine. Results
	// are byte-identical at every setting.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = DefaultSegmentSize
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// segment is one fixed-size shard of the score column: a validated
// sub-column plus its local ascending (score, id) permutation. Record
// ids inside a segment are local; the global id of local record i is
// base+i, which keeps permutations reusable across appends.
type segment struct {
	base   int       // global id of the segment's first record
	scores []float64 // sub-column, record order (aliases the global column)
	perm   []int     // local ids ascending by (score, local id)
	sorted []float64 // scores[perm[i]] — ascending
}

// cutAtLeast returns the first position of the segment's ascending run
// with score >= tau.
func (s *segment) cutAtLeast(tau float64) int {
	return sort.SearchFloat64s(s.sorted, tau)
}

// countAtLeast returns the segment's |{x : A(x) >= tau}| in O(log S).
func (s *segment) countAtLeast(tau float64) int {
	return len(s.sorted) - s.cutAtLeast(tau)
}

// gatherBitmaps recycles the segment-sized bitmaps gather marks
// ids in. A bitmap always goes back all zero — emission clears every
// word it reads — so a gather never has to clear one first, and
// indexes of any segment size can share the pool.
var gatherBitmaps = sync.Pool{New: func() any { return new([]uint64) }}

// gather appends to dst, in ascending id order, the segment's global
// record ids with score >= tau together with extra, ascending global
// ids of the segment's records that score below tau. The matches are
// exactly the local ids perm[cut:], in score order; the gather sets one
// bit per local id of the smaller side of the cut — perm[cut:], or
// perm[:cut] when more than half the segment matches — in a
// segment-sized bitmap, puts each extra's bit in the emitted state, then
// walks the words once, low to high, emitting the set bits (or the
// clear bits). A set of distinct ids has one ascending order, so the
// output is the id-sorted union without a sort, without a merge and
// without a branch on any score: O(min(k, S-k) + |extra|) bit writes,
// S/64 word reads and k+|extra| emits. An extra that scores >= tau after
// all is emitted once.
//
// With a non-nil flush, gather hands dst to it whenever it holds limit
// or more ids and goes on with dst[:0]: a word emits at most 64 ids, so
// dst never outgrows limit+63. It stops as soon as flush returns false,
// and reports whether it ran to the end.
func (s *segment) gather(dst []int, tau float64, extra []int, limit int, flush func([]int) bool) ([]int, bool) {
	n := len(s.sorted)
	cut := s.cutAtLeast(tau)
	k := n - cut
	if k == 0 && len(extra) == 0 {
		return dst, true
	}
	words := (n + 63) >> 6
	bp := gatherBitmaps.Get().(*[]uint64)
	if cap(*bp) < words {
		*bp = make([]uint64, words)
	}
	bm := (*bp)[:words]
	mark, flip := s.perm[cut:], uint64(0)
	if 2*k > n {
		mark, flip = s.perm[:cut], ^uint64(0)
		// Emitting clear bits: the tail word's bits past the segment end
		// are marked too, so they never emit.
		if r := n & 63; r != 0 {
			bm[words-1] = ^uint64(0) << r
		}
	}
	for _, p := range mark {
		bm[p>>6] |= 1 << (p & 63)
	}
	for _, id := range extra {
		p := id - s.base
		if flip == 0 {
			bm[p>>6] |= 1 << (p & 63)
		} else {
			bm[p>>6] &^= 1 << (p & 63)
		}
	}
	done := true
	for w, x := range bm {
		bm[w] = 0
		id := s.base + w<<6
		for x ^= flip; x != 0; x &= x - 1 {
			dst = append(dst, id+bits.TrailingZeros64(x))
		}
		if flush != nil && len(dst) >= limit {
			if !flush(dst) {
				// The pool takes bitmaps back all zero.
				clear(bm[w+1:])
				done = false
				break
			}
			dst = dst[:0]
		}
	}
	gatherBitmaps.Put(bp)
	return dst, done
}

// segmentExtra returns the prefix of extra, ascending global ids, that
// falls in segment s.
func segmentExtra(s *segment, extra []int) []int {
	end := s.base + len(s.sorted)
	i := 0
	for i < len(extra) && extra[i] < end {
		i++
	}
	return extra[:i]
}

// ScoreIndex is the precomputed, immutable segmented index over one
// proxy-score column. Construct with NewWithOptions or Append; the
// zero value is not usable.
type ScoreIndex struct {
	scores  []float64 // full validated column, record order
	segs    []*segment
	segSize int
	par     int // Options.Parallelism: build and read-path fan-out bound
	// backing pins externally-owned memory (a mapped file) the column
	// and segment slices alias; nil for heap-built indexes. See
	// FromExternal.
	backing any
	// grow guards the column array's spare capacity, which Append may
	// fill in place; nil unless Append allocated the array.
	grow *extent

	// stored holds persisted mixtures a recovered index adopts on first
	// use instead of building them (FromExternal); immutable after
	// construction, nil for heap-built and appended indexes.
	stored map[MixtureKey]*storedMixture

	mu       sync.RWMutex
	mixtures map[MixtureKey]*mixture
}

// NewWithOptions validates the score column and builds the index; the
// zero Options select the defaults. Every score must be a non-NaN
// value in [0, 1]; the first offending record is reported. The slice
// is copied, so callers may reuse their buffer. The resulting index
// answers every query identically to any other segmentation of the
// same column (including the monolithic SegmentSize >= len(scores)
// layout); options trade build latency and append granularity only.
func NewWithOptions(scores []float64, opts Options) (*ScoreIndex, error) {
	n := len(scores)
	if n == 0 {
		return nil, fmt.Errorf("index: empty score column")
	}
	opts = opts.withDefaults()
	own := make([]float64, n)
	copy(own, scores)
	segs, err := buildSegments(own, 0, opts)
	if err != nil {
		return nil, err
	}
	return &ScoreIndex{
		scores:   own,
		segs:     segs,
		segSize:  opts.SegmentSize,
		par:      opts.Parallelism,
		mixtures: make(map[MixtureKey]*mixture),
	}, nil
}

// Append returns a new index over the old column extended with extra,
// reusing every existing segment's permutation and sorting only the
// appended records. The appended records always start a fresh segment
// at the old column's end regardless of how full the last segment is —
// query results are segmentation-independent, so nothing observable
// depends on the boundary. The receiving index, and every record of
// its column, is unchanged. The column grows in place into spare
// capacity when this is the parent's first child to claim it, and is
// copied otherwise (see "Incremental append" in the package doc); a
// failed append leaves the spare capacity unclaimed.
func (ix *ScoreIndex) Append(extra []float64) (*ScoreIndex, error) {
	if len(extra) == 0 {
		return nil, fmt.Errorf("index: empty append")
	}
	n, m := len(ix.scores), len(ix.scores)+len(extra)
	g := ix.grow
	inPlace := m <= cap(ix.scores) && g.claim(n, m)
	var own []float64
	if inPlace {
		own = ix.scores[:m]
		copy(own[n:], extra)
	} else {
		own = append(ix.scores[:n:n], extra...)
		g = new(extent)
		g.end.Store(int64(m))
	}
	fresh, err := buildSegments(own, n, Options{SegmentSize: ix.segSize, Parallelism: ix.par})
	if err != nil {
		if inPlace {
			g.release(n, m)
		}
		return nil, err
	}
	var segs []*segment
	if inPlace {
		// The old segments' sub-columns already alias own.
		segs = append(ix.segs[:len(ix.segs):len(ix.segs)], fresh...)
	} else {
		segs = make([]*segment, 0, len(ix.segs)+len(fresh))
		for _, s := range ix.segs {
			// Re-point the sub-column into the new backing array (values
			// are bit-identical); perm and sorted are local and shared
			// as-is, so nothing rebases.
			end := s.base + len(s.scores)
			segs = append(segs, &segment{
				base:   s.base,
				scores: own[s.base:end:end],
				perm:   s.perm,
				sorted: s.sorted,
			})
		}
		segs = append(segs, fresh...)
	}
	return &ScoreIndex{
		scores:  own,
		segs:    segs,
		segSize: ix.segSize,
		par:     ix.par,
		// Old segments share their perm/sorted slices, which may alias
		// externally-owned memory — keep it pinned.
		backing:  ix.backing,
		grow:     g,
		mixtures: make(map[MixtureKey]*mixture),
	}, nil
}

// extent records how far the indexes sharing one Append-allocated
// column array have claimed it: every record below end belongs to
// some index of the lineage, so only an index exactly end records
// long may write past its length.
type extent struct{ end atomic.Int64 }

// claim reports whether an index of n records over the array may write
// records [n, m) in place, and if so takes them. At most one caller
// wins per n; a nil extent (an array Append did not allocate) never
// grants a claim.
func (e *extent) claim(n, m int) bool {
	return e != nil && e.end.CompareAndSwap(int64(n), int64(m))
}

// release gives back a claim of [n, m) whose append failed. No index
// of m records over the array was published, so nothing can have
// claimed past m in between.
func (e *extent) release(n, m int) { e.end.CompareAndSwap(int64(m), int64(n)) }

// buildSegments validates and sorts column[start:] as SegmentSize-record
// segments across a bounded worker pool. Segment bases are global ids
// into column. On validation failure the error for the smallest
// offending record id is returned, matching the deterministic
// first-offender report of a sequential scan.
func buildSegments(column []float64, start int, opts Options) ([]*segment, error) {
	n := len(column) - start
	count := (n + opts.SegmentSize - 1) / opts.SegmentSize
	segs := make([]*segment, count)
	errs := make([]error, count)
	errAt := make([]int, count)

	parallel.Run(opts.Parallelism, count, func(j int) {
		base := start + j*opts.SegmentSize
		end := base + opts.SegmentSize
		if end > len(column) {
			end = len(column)
		}
		segs[j], errAt[j], errs[j] = buildSegment(column, base, end)
	})

	firstErr, firstAt := error(nil), -1
	for j := range errs {
		if errs[j] != nil && (firstAt < 0 || errAt[j] < firstAt) {
			firstErr, firstAt = errs[j], errAt[j]
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return segs, nil
}

// buildSegment validates column[base:end] and builds its sorted
// permutation. The returned int is the global id of the offending
// record when validation fails.
//
// Ties break by record id, so the permutation is a deterministic
// function of the column: the unique ascending (score, id) total order.
// Local id order equals global id order within a segment. The sort is
// the stable radix sort of radix.go, whose digit histograms the
// validation pass counts: at most six linear passes, O(S) per segment
// instead of a comparator sort's O(S log S). On a 2-core Xeon VM a
// 256Ki-record segment builds in ~20 ms (the comparator sort alone took
// ~72 ms) and an 8192-record appended tail in ~0.4 ms (~1.5 ms).
func buildSegment(column []float64, base, end int) (*segment, int, error) {
	sub := column[base:end:end]
	r := radixScratches.Get().(*radixScratch)
	defer radixScratches.Put(r)
	r.counts = [radixPasses][radixSize]int{}
	for i, s := range sub {
		if s < 0 || s > 1 || s != s {
			return nil, base + i, fmt.Errorf("index: score %g for record %d outside [0,1]", s, base+i)
		}
		if s == 0 {
			// Normalize -0.0 (which passes the s < 0 check) to +0.0:
			// the two compare equal everywhere scores are used, but
			// KthHighest's bit-space search, the radix sort's keys and
			// JSON serialization distinguish the sign bit, and results
			// must be identical at every segment size.
			sub[i], s = 0, 0
		}
		r.count(math.Float64bits(s))
	}
	n := len(sub)
	perm := make([]int, n)
	sorted := make([]float64, n)
	buildSorts.Add(1)
	r.sort(sub, perm, sorted)
	return &segment{base: base, scores: sub, perm: perm, sorted: sorted}, 0, nil
}

// Len returns the number of records.
func (ix *ScoreIndex) Len() int { return len(ix.scores) }

// Segments returns the number of segments.
func (ix *ScoreIndex) Segments() int { return len(ix.segs) }

// Score returns record i's proxy score.
func (ix *ScoreIndex) Score(i int) float64 { return ix.scores[i] }

// Scores returns the validated score column in record order. The slice
// is shared with the index and must be treated as read-only. Its
// capacity ends at its length, so appending to it copies instead of
// writing into space a grown index may own.
func (ix *ScoreIndex) Scores() []float64 { return ix.scores[:len(ix.scores):len(ix.scores)] }

// CountAtLeast returns |{x : A(x) >= tau}| as the sum of exact
// per-segment binary-search counts — O(S/segSize · log segSize). The
// walk is sequential at every parallelism: one O(log S) search per
// segment is far cheaper than handing segments to helper goroutines.
func (ix *ScoreIndex) CountAtLeast(tau float64) int {
	n := 0
	for _, s := range ix.segs {
		n += s.countAtLeast(tau)
	}
	return n
}

// KthHighest returns the k-th highest score (0-based); k beyond the
// data clamps to the minimum score. With one segment this is a direct
// array lookup; across segments the exact global order statistic is
// found by binary search over the IEEE-754 bit space: scores are
// validated into [0, 1], where float bits order identically to values,
// and CountAtLeast(v) >= k+1 holds exactly for v at or below the
// answer, so the search converges to the stored element itself.
func (ix *ScoreIndex) KthHighest(k int) float64 {
	n := len(ix.scores)
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	if len(ix.segs) == 1 {
		return ix.segs[0].sorted[n-1-k]
	}
	lo, hi := uint64(0), math.Float64bits(1.0)
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if ix.CountAtLeast(math.Float64frombits(mid)) >= k+1 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return math.Float64frombits(lo)
}

// appendParallelMinIDs gates the parallel AppendAtLeastWith gather:
// below this many emitted ids the sequential per-segment loop beats the
// cost of the counting pre-pass plus helper spawns.
const appendParallelMinIDs = 1 << 14

// AppendAtLeast appends the record ids with score >= tau to dst in
// ascending id order and returns the extended slice: AppendAtLeastWith
// without extra ids.
func (ix *ScoreIndex) AppendAtLeast(dst []int, tau float64) []int {
	return ix.AppendAtLeastWith(dst, tau, nil)
}

// AppendAtLeastWith appends to dst, in ascending id order, the record
// ids with score >= tau together with extra, ascending ids of records
// that score below tau, and returns the extended slice. Each segment
// marks its share of extra in the bitmap its matches are gathered in,
// so the two come out merged (see segment.gather). With capacity
// already in dst (size it with CountAtLeast plus len(extra)) the call
// does not allocate. Segments partition the id space in ascending
// order, so emitting each segment's ascending ids in segment order
// yields the globally ascending list. WalkAtLeastWith emits the same
// ids in chunks.
//
// Large gathers fan out across Options.Parallelism goroutines: an
// exact per-segment count pre-pass (binary searches) sizes disjoint
// destination slots at fixed offsets, each segment emits into its own
// slot concurrently, and the slots concatenate in segment order —
// every byte of output, and its position, is the one the sequential
// loop writes.
func (ix *ScoreIndex) AppendAtLeastWith(dst []int, tau float64, extra []int) []int {
	if len(ix.segs) > 1 && ix.par > 1 {
		base, m := len(dst), len(ix.segs)+1
		// offs[j] is where segment j's ids start past base, and exts[j]
		// where its share of extra starts. Common segment counts keep the
		// tables on the stack, so the pre-pass allocates nothing; a
		// fanned-out gather hands its goroutines a heap copy.
		var buf [66]int
		tab := buf[:]
		if 2*m > len(buf) {
			tab = make([]int, 2*m)
		}
		offs, exts := tab[:m], tab[m:2*m]
		for j, s := range ix.segs {
			e := len(segmentExtra(s, extra[exts[j]:]))
			exts[j+1] = exts[j] + e
			offs[j+1] = offs[j] + s.countAtLeast(tau) + e
		}
		if total := offs[m-1]; total >= appendParallelMinIDs {
			if cap(dst) < base+total {
				grown := make([]int, base, base+total)
				copy(grown, dst)
				dst = grown
			}
			// The closure captures out, ext and the copy, never dst,
			// extra or tab: a captured parameter or stack table moves to
			// the heap on every call, sequential ones included.
			out, ext, at := dst[:base+total], extra, slices.Clone(tab[:2*m])
			parallel.Run(ix.par, len(ix.segs), func(j int) {
				lo, hi := base+at[j], base+at[j+1]
				// Full slice expression: a slot's cap ends where the next
				// slot begins, so gather can never write outside its own
				// segment's range.
				ix.segs[j].gather(out[lo:lo:hi], tau, ext[at[m+j]:at[m+j+1]], 0, nil)
			})
			return out
		}
	}
	for _, s := range ix.segs {
		e := segmentExtra(s, extra)
		dst, _ = s.gather(dst, tau, e, 0, nil)
		extra = extra[len(e):]
	}
	return dst
}

// WalkAtLeastWith emits the ids AppendAtLeastWith(nil, tau, extra)
// returns, in the same ascending order and from the same per-segment
// gather, as a stream of chunks: it appends them to buf[:0] and hands
// buf to emit whenever fewer than 64 slots of its capacity are left
// (at the end, whatever it holds), so a caller can write an answer of
// any size through one buffer of fixed size. emit must not retain the
// chunk; returning false stops the walk. It runs on the calling
// goroutine.
func (ix *ScoreIndex) WalkAtLeastWith(tau float64, extra []int, buf []int, emit func(chunk []int) bool) {
	limit := cap(buf) - 63
	if limit < 1 {
		limit = 1
	}
	buf = buf[:0]
	for _, s := range ix.segs {
		e := segmentExtra(s, extra)
		extra = extra[len(e):]
		var done bool
		if buf, done = s.gather(buf, tau, e, limit, emit); !done {
			return
		}
	}
	if len(buf) > 0 {
		emit(buf)
	}
}

// EachAtLeast calls fn once per segment holding records with score >=
// tau, with the segment's first global id and those records' local ids
// in ascending score order: record base+local[i]. It is a walk over the
// sorted suffixes, with no gather and no id order, for callers that
// only count or test the records (an answer's true positives, say).
// local is the index's own memory and must not be modified or retained.
func (ix *ScoreIndex) EachAtLeast(tau float64, fn func(base int, local []int)) {
	for _, s := range ix.segs {
		if cut := s.cutAtLeast(tau); cut < len(s.perm) {
			fn(s.base, s.perm[cut:])
		}
	}
}

// ResidentBytes estimates the index's resident data memory: the score
// column's array, spare capacity included, plus each segment's
// permutation and sorted run. Cached mixtures and the stage-2 tables
// memoized beside them are excluded — they are per-configuration
// caches, bounded on their own (maxCachedMixtures), not part of the
// index layout. Indexes that grew in place share one column array (and
// their common segments), and each member of such a lineage counts the
// whole array, so summing over a lineage counts it more than once.
func (ix *ScoreIndex) ResidentBytes() int64 {
	total := int64(8 * cap(ix.scores))
	for _, s := range ix.segs {
		total += int64(8*len(s.perm) + 8*len(s.sorted))
	}
	return total
}
