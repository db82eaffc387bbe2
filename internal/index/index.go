// Package index provides ScoreIndex, the immutable per-table proxy
// index at the heart of the selection hot path.
//
// The paper's operational model (Section 4.1) evaluates the cheap proxy
// once over the whole dataset; everything a query then needs from the
// score column — threshold counts |{x : A(x) >= tau}|, order
// statistics, the defensive-mixture sampling distribution and its Vose
// alias table — is a pure function of that column. A ScoreIndex
// precomputes all of it at table/proxy registration so each query costs
// O(oracle budget + |result|) instead of re-scanning, re-sorting, and
// rebuilding sampling structures over all n records.
//
// # Segmented layout
//
// The score column is split into fixed-size segments (Options.
// SegmentSize, default 256Ki records). Each segment owns its validated
// score sub-column and an ascending (score, id) permutation, and the
// segments are built independently across a bounded worker pool, so
// registration of an n-record table costs O(n/P · log S) wall time for
// P workers and segment size S instead of a single-core O(n log n)
// sort. The paper's statistical guarantees are distributional — they
// constrain which records are sampled, not how the sampling structures
// are laid out in memory — so the segmented index is required (and
// tested, see core.TestSelectSegmentedMatchesMonolithic) to answer
// every ScoreSource operation bit-for-bit identically to a monolithic
// single-segment index:
//
//   - CountAtLeast sums exact per-segment binary-search counts.
//   - KthHighest selects the exact global order statistic by binary
//     search over the IEEE-754 bit space (scores are validated
//     non-negative, where the bit pattern orders like the value).
//   - AppendAtLeast emits each segment's matching ids in ascending id
//     order; segments partition the id space in order, so the
//     concatenation is globally ascending — the degenerate k-way merge.
//   - Ascend streams (id, score) pairs in global (score, id) order via
//     a loser-tree k-way merge of the per-segment sorted runs (see
//     losertree.go) — the explicit form of the global sorted view a
//     monolithic index stores. The selection hot path itself needs only
//     the primitives above; Ascend is the exported iteration surface
//     for consumers that want the merged order, and the equivalence
//     tests pin it against both the retained heap merge (ascendHeap)
//     and a monolithic sort.
//   - Mixture computes the defensive weights with the exact per-element
//     operations and left-to-right summation order of
//     sampling.DefensiveWeights (segments only parallelize the
//     embarrassingly-parallel transform step) and feeds them to the
//     same global alias-table machinery, so weighted draws consume the
//     random stream identically to the monolithic path. Per-segment
//     cumulative weight masses are exposed for observability.
//
// # Quantized codes
//
// With Options.Quantize, each segment additionally carries a 16-bit
// bucket code per record (floor(score·65536), clamped). The code map
// is monotone, so a strict code inequality decides the exact score
// inequality and only the threshold's own bucket — resolved with the
// same float comparisons, in the same order, as the unquantized path —
// ever consults the 8-byte column. Scans and merge comparisons walk 2
// bytes per record instead of 8 while every operation stays
// bit-identical to the float index; see quantize.go for the invariant
// and the skew guard on dense scans.
//
// # Incremental append
//
// Append extends an index with newly appended records without
// re-sorting the existing ones: old segments are reused as-is (their
// permutations are local, so nothing is rebased), the new records form
// fresh segments, and only those are validated and sorted. The mixture
// cache starts empty on the appended index because the defensive
// weights are a function of the whole column.
//
// A ScoreIndex is immutable after New/Append and safe for concurrent
// use by any number of queries; the mixture cache is internally
// synchronized.
//
// # Intra-query parallelism
//
// Per-segment reductions — AppendAtLeast gathers into presized
// per-segment slots and the mixture transform/normalize passes — fan
// out across the shared query pool (Options.QueryPool). Only phases
// whose outputs are independent of worker assignment parallelize:
// gathers write disjoint presized slots concatenated in fixed segment
// order, and the mixture's global normalizing sum stays one sequential
// left-to-right pass because float addition is not associative.
// CountAtLeast stays sequential: its per-segment binary searches cost
// less than dispatching them. The random stream is never consumed off
// the submitting goroutine, so results are byte-identical at every
// parallelism level (pinned by the equivalence sweeps in
// parallel_query_test.go).
package index

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

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
	// Parallelism bounds the number of segments built concurrently.
	// <= 0 selects GOMAXPROCS.
	Parallelism int
	// Quantize additionally stores a 16-bit bucket code per record and
	// runs scans and binary searches over the 2-byte codes, consulting
	// the exact floats only inside the boundary bucket (see quantize.go).
	// Results are byte-identical to an unquantized index; the option
	// trades ~4 extra bits per record of resident memory for ~4x less
	// scan traffic.
	Quantize bool
	// QueryPool bounds the intra-query parallel segment reductions —
	// AppendAtLeast gathers and the mixture transform/normalize passes.
	// The pool is typically shared across every index of an engine
	// (engine.Options.QueryParallelism); nil selects a private pool of
	// Parallelism workers. Results are byte-identical at every setting:
	// only phases whose outputs are order-independent (disjoint writes)
	// fan out, and the random stream is never touched off the
	// submitting goroutine.
	QueryPool *parallel.Pool
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = DefaultSegmentSize
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.QueryPool == nil {
		o.QueryPool = parallel.NewPool(o.Parallelism)
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
	// codes / qsorted are the 16-bit quantized views of scores / sorted
	// (nil on unquantized segments). See quantize.go.
	codes   []uint16
	qsorted []uint16
}

// countAtLeast returns the segment's |{x : A(x) >= tau}| in O(log S).
func (s *segment) countAtLeast(tau float64) int {
	return len(s.sorted) - s.cutAtLeast(tau)
}

// appendAtLeast appends the segment's global record ids with score >=
// tau to dst in ascending id order. Selective thresholds copy the
// k-record suffix of the sorted permutation and re-sort it by id in
// O(k log k); dense thresholds scan the sub-column once in O(S), which
// is cheaper than the sort and emits ids already ordered.
func (s *segment) appendAtLeast(dst []int, tau float64) []int {
	n := len(s.sorted)
	cut := s.cutAtLeast(tau)
	k := n - cut
	if k == 0 {
		return dst
	}
	if k <= n/8 {
		start := len(dst)
		for _, p := range s.perm[cut:] {
			dst = append(dst, s.base+p)
		}
		slices.Sort(dst[start:])
		return dst
	}
	if s.codes != nil && tau > 0 && tau <= 1 {
		ct := quantizeScore(tau)
		if lo, hi := s.codeBucket(ct); hi-lo <= n/8 {
			// Quantized dense scan: 2 bytes per record, floats touched
			// only in the boundary bucket. Strict code inequalities
			// decide exact score inequalities (monotone map), so the
			// emitted id set — and its record order — equals the float
			// scan's. Guarded on the bucket population: a skewed column
			// can concentrate in one bucket (e.g. Beta(0.01, 2) puts
			// ~90% of records in bucket 0), and a dominant boundary
			// bucket would make this path read both vectors — the float
			// scan below is cheaper there.
			for i, c := range s.codes {
				if c > ct || (c == ct && s.scores[i] >= tau) {
					dst = append(dst, s.base+i)
				}
			}
			return dst
		}
	}
	for i, sc := range s.scores {
		if sc >= tau {
			dst = append(dst, s.base+i)
		}
	}
	return dst
}

// ScoreIndex is the precomputed, immutable segmented index over one
// proxy-score column. Construct with New, NewWithOptions, or Append;
// the zero value is not usable.
type ScoreIndex struct {
	scores  []float64 // full validated column, record order
	segs    []*segment
	segSize int
	par     int
	pool    *parallel.Pool // intra-query reduction pool (Options.QueryPool)
	quant   bool           // segments carry 16-bit score codes (Options.Quantize)
	// backing pins externally-owned memory (a mapped file) the column
	// and segment slices alias; nil for heap-built indexes. See
	// FromExternal.
	backing any

	// stored holds persisted mixtures a recovered index adopts on first
	// use instead of building them (FromExternal); immutable after
	// construction, nil for heap-built and appended indexes.
	stored map[MixtureKey]*storedMixture

	mu       sync.RWMutex
	mixtures map[MixtureKey]*mixture
}

// New validates the score column and builds the index with default
// options. Every score must be a non-NaN value in [0, 1]; the first
// offending record is reported. The slice is copied, so callers may
// reuse their buffer.
func New(scores []float64) (*ScoreIndex, error) {
	return NewWithOptions(scores, Options{})
}

// NewWithOptions is New with explicit segment size and build
// parallelism. The resulting index answers every query identically to
// any other segmentation of the same column (including the monolithic
// SegmentSize >= len(scores) layout); options trade build latency and
// append granularity only.
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
		pool:     opts.QueryPool,
		quant:    opts.Quantize,
		mixtures: make(map[MixtureKey]*mixture),
	}, nil
}

// Append returns a new index over the old column extended with extra,
// reusing every existing segment's permutation and sorting only the
// appended records. The appended records always start a fresh segment
// at the old column's end regardless of how full the last segment is —
// query results are segmentation-independent, so nothing observable
// depends on the boundary. The receiving index is unchanged.
func (ix *ScoreIndex) Append(extra []float64) (*ScoreIndex, error) {
	if len(extra) == 0 {
		return nil, fmt.Errorf("index: empty append")
	}
	old := len(ix.scores)
	own := make([]float64, old+len(extra))
	copy(own, ix.scores)
	copy(own[old:], extra)
	opts := Options{SegmentSize: ix.segSize, Parallelism: ix.par, Quantize: ix.quant, QueryPool: ix.pool}
	fresh, err := buildSegments(own, old, opts)
	if err != nil {
		return nil, err
	}
	segs := make([]*segment, 0, len(ix.segs)+len(fresh))
	for _, s := range ix.segs {
		// Re-point the sub-column into the new backing array (values are
		// bit-identical); perm, sorted, and the code vectors are local and
		// shared as-is — codes are per-segment, so nothing rebases.
		segs = append(segs, &segment{
			base:    s.base,
			scores:  own[s.base : s.base+len(s.scores)],
			perm:    s.perm,
			sorted:  s.sorted,
			codes:   s.codes,
			qsorted: s.qsorted,
		})
	}
	segs = append(segs, fresh...)
	return &ScoreIndex{
		scores:  own,
		segs:    segs,
		segSize: ix.segSize,
		par:     ix.par,
		pool:    ix.pool,
		quant:   ix.quant,
		// Old segments share their perm/sorted slices, which may alias
		// externally-owned memory — keep it pinned.
		backing:  ix.backing,
		mixtures: make(map[MixtureKey]*mixture),
	}, nil
}

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
		segs[j], errAt[j], errs[j] = buildSegment(column, base, end, opts.Quantize)
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
// permutation (plus, when quantize is set, the 16-bit code vectors).
// The returned int is the global id of the offending record when
// validation fails.
func buildSegment(column []float64, base, end int, quantize bool) (*segment, int, error) {
	sub := column[base:end]
	for i, s := range sub {
		if s < 0 || s > 1 || s != s {
			return nil, base + i, fmt.Errorf("index: score %g for record %d outside [0,1]", s, base+i)
		}
		if s == 0 {
			// Normalize -0.0 (which passes the s < 0 check) to +0.0:
			// the two compare equal everywhere scores are used, but
			// KthHighest's bit-space search and JSON serialization
			// distinguish the sign bit, and results must be identical
			// at every segment size.
			sub[i] = 0
		}
	}
	n := len(sub)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	buildSorts.Add(1)
	// Ties break by record id so the permutation is a deterministic
	// function of the column — the unique ascending (score, id) total
	// order, independent of the sort algorithm. Local id order equals
	// global id order within a segment. slices.SortFunc (pdqsort over a
	// monomorphized comparator) sorts measurably faster than the
	// interface-based sort.Slice on large segments.
	slices.SortFunc(perm, func(a, b int) int {
		if sub[a] != sub[b] {
			if sub[a] < sub[b] {
				return -1
			}
			return 1
		}
		return a - b
	})
	sorted := make([]float64, n)
	for i, p := range perm {
		sorted[i] = sub[p]
	}
	seg := &segment{base: base, scores: sub, perm: perm, sorted: sorted}
	if quantize {
		// Quantize AFTER the validation loop above so the codes are built
		// from the normalized sub-column (-0.0 already rewritten to +0.0),
		// never from the caller's raw values.
		seg.codes = quantizeSub(sub)
		seg.qsorted = permuteCodes(seg.codes, perm)
	}
	return seg, 0, nil
}

// Len returns the number of records.
func (ix *ScoreIndex) Len() int { return len(ix.scores) }

// Segments returns the number of segments.
func (ix *ScoreIndex) Segments() int { return len(ix.segs) }

// SegmentSize returns the configured records-per-segment.
func (ix *ScoreIndex) SegmentSize() int { return ix.segSize }

// Score returns record i's proxy score.
func (ix *ScoreIndex) Score(i int) float64 { return ix.scores[i] }

// Scores returns the validated score column in record order. The slice
// is shared with the index and must be treated as read-only.
func (ix *ScoreIndex) Scores() []float64 { return ix.scores }

// CountAtLeast returns |{x : A(x) >= tau}| as the sum of exact
// per-segment binary-search counts — O(S/segSize · log segSize). The
// walk is sequential at every query parallelism: one O(log S) search
// per segment is far cheaper than handing segments to pool workers
// (BenchmarkParallelCount keeps the measurement).
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

// appendParallelMinIDs gates the parallel AppendAtLeast gather: below
// this many emitted ids the sequential per-segment loop beats the cost
// of the counting pre-pass plus helper spawns.
const appendParallelMinIDs = 1 << 14

// AppendAtLeast appends the record ids with score >= tau to dst in
// ascending id order and returns the extended slice. With capacity
// already in dst (size it with CountAtLeast) the call does not
// allocate. Segments partition the id space in ascending order, so
// emitting each segment's ascending matches in segment order yields
// the globally ascending id list.
//
// Large gathers with a query pool fan out: an exact per-segment count
// pre-pass (binary searches) sizes disjoint destination slots at fixed
// offsets, each segment emits into its own slot concurrently, and the
// slots concatenate in segment order — every byte of output, and its
// position, is the one the sequential loop writes.
func (ix *ScoreIndex) AppendAtLeast(dst []int, tau float64) []int {
	if len(ix.segs) > 1 && ix.pool.Limit() > 1 {
		base := len(dst)
		// Common segment counts keep the offset table on the stack so the
		// pre-pass stays allocation-free on the hot path.
		var offBuf [33]int
		offs := offBuf[:]
		if len(ix.segs)+1 > len(offBuf) {
			offs = make([]int, len(ix.segs)+1)
		}
		for j, s := range ix.segs {
			offs[j+1] = offs[j] + s.countAtLeast(tau)
		}
		if total := offs[len(ix.segs)]; total >= appendParallelMinIDs {
			if cap(dst) < base+total {
				grown := make([]int, base, base+total)
				copy(grown, dst)
				dst = grown
			}
			dst = dst[:base+total]
			ix.pool.ForEach(len(ix.segs), func(j int) {
				lo, hi := base+offs[j], base+offs[j+1]
				// Full slice expression: a slot's cap ends where the next
				// slot begins, so appendAtLeast can never write outside
				// its own segment's range.
				ix.segs[j].appendAtLeast(dst[lo:lo:hi], tau)
			})
			return dst
		}
	}
	for _, s := range ix.segs {
		dst = s.appendAtLeast(dst, tau)
	}
	return dst
}

// segCursor is one segment's position in the Ascend k-way merge.
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

// Ascend streams every (record id, score) pair in ascending (score,
// id) order — the global sorted view a monolithic index stores
// explicitly — via a loser-tree k-way merge of the per-segment sorted
// runs (see losertree.go), O(n log S) for S segments with one
// comparison per level per pop and the quantized code carried inline.
// Iteration stops when yield returns false.
func (ix *ScoreIndex) Ascend(yield func(id int, score float64) bool) {
	newLoserTree(ix.segs, ix.quant).ascend(yield)
}

// ascendHeap is the historical container/heap merge, retained as the
// independent test oracle for the loser tree (the equivalence sweep in
// losertree_test.go pins Ascend's output against it).
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

// MinScore returns the smallest score in the column.
func (ix *ScoreIndex) MinScore() float64 {
	min := ix.segs[0].sorted[0]
	for _, s := range ix.segs[1:] {
		if v := s.sorted[0]; v < min {
			min = v
		}
	}
	return min
}

// MaxScore returns the largest score in the column.
func (ix *ScoreIndex) MaxScore() float64 {
	max := ix.segs[0].sorted[len(ix.segs[0].sorted)-1]
	for _, s := range ix.segs[1:] {
		if v := s.sorted[len(s.sorted)-1]; v > max {
			max = v
		}
	}
	return max
}
