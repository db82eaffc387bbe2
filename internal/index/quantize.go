package index

import "sort"

// Quantized score codes (Options.Quantize).
//
// The selection hot path is a pure function of the score column, and
// the column's only job inside a binary search or a merge comparison is
// to answer order comparisons. A 16-bit bucket code preserves enough of
// that order to answer almost every comparison: because the code map
// is monotone, a strict code inequality decides the exact score
// inequality, and only records whose code EQUALS the threshold's code —
// one bucket out of 65536 — need the 8-byte float consulted. At query
// time codes serve exactly two consumers: cutAtLeast's binary searches
// and the Ascend merge's comparisons. The id gather (appendAtLeast)
// reads neither codes nor scores once the cut is known, so it is the
// same on both layouts. Every operation returns byte-identical results:
// the boundary bucket is resolved with the same float comparisons, in
// the same order, as the unquantized path, so the unique (score, id)
// total order — and with it counts, order statistics, extraction
// order, alias tables, and RNG stream consumption — is untouched. This
// is the paper's proxy idea applied one level down: a cheap
// approximation does the bulk work, the exact signal is consulted only
// at decision boundaries.

// codeBuckets is the number of quantization buckets — one per uint16
// code value.
const codeBuckets = 1 << 16

// quantizeScore maps a validated score in [0, 1] onto its bucket code:
// floor(s * 65536), clamped so s = 1.0 shares the top bucket. The map
// is monotone — s <= t implies quantizeScore(s) <= quantizeScore(t) —
// which is the entire contract quantized comparisons rely on.
//
// The input must be a column buildSegment has already validated and
// normalized: NaN and out-of-range values rejected, -0.0 rewritten to
// +0.0. The quantizer therefore always consumes the same normalized
// values every float comparison consumes; a caller's raw -0.0 can
// never produce a bucket-0 code whose float fallback then disagrees
// with the bit-space machinery (KthHighest) over the sign bit.
func quantizeScore(s float64) uint16 {
	q := uint32(s * codeBuckets)
	if q >= codeBuckets {
		q = codeBuckets - 1
	}
	return uint16(q)
}

// quantizeSub builds the record-order code vector of a normalized
// sub-column.
func quantizeSub(sub []float64) []uint16 {
	codes := make([]uint16, len(sub))
	for i, s := range sub {
		codes[i] = quantizeScore(s)
	}
	return codes
}

// permuteCodes builds the sorted-order code vector: codes[perm[i]].
func permuteCodes(codes []uint16, perm []int) []uint16 {
	qsorted := make([]uint16, len(perm))
	for i, p := range perm {
		qsorted[i] = codes[p]
	}
	return qsorted
}

// cutAtLeast returns the first position of the segment's ascending run
// with score >= tau — the exact value sort.SearchFloat64s(s.sorted,
// tau) returns, computed over the 2-byte codes when the segment is
// quantized: two code binary searches bracket the boundary bucket, and
// a float search inside that bucket alone resolves it. Thresholds
// outside (0, 1] — including NaN, whose comparisons are all false —
// take the plain float search, which is exact for them and never hot
// (scores are validated into [0, 1], so such taus answer trivially).
func (s *segment) cutAtLeast(tau float64) int {
	qs := s.qsorted
	if qs == nil || !(tau > 0 && tau <= 1) {
		return sort.SearchFloat64s(s.sorted, tau)
	}
	lo, hi := s.codeBucket(quantizeScore(tau))
	return lo + sort.SearchFloat64s(s.sorted[lo:hi], tau)
}

// codeBucket brackets the threshold's bucket in the ascending code
// run: lo is the first position with code >= ct (below it scores are
// exactly < tau by monotonicity), hi the first with code > ct (at and
// beyond, scores are exactly > tau). hi-lo is the boundary-bucket
// population — the only records whose floats a quantized operation
// must consult.
func (s *segment) codeBucket(ct uint16) (lo, hi int) {
	qs := s.qsorted
	lo = sort.Search(len(qs), func(i int) bool { return qs[i] >= ct })
	hi = lo + sort.Search(len(qs)-lo, func(i int) bool { return qs[lo+i] > ct })
	return lo, hi
}

// Quantized reports whether the index carries 16-bit score codes and
// runs its binary searches and merge comparisons over them.
func (ix *ScoreIndex) Quantized() bool { return ix.quant }

// ResidentBytes estimates the index's resident data memory: the score
// column's array, spare capacity included, plus each segment's
// permutation, sorted run, and (when quantized) code vectors. Cached
// mixtures are excluded — they are a per-configuration cost, not part
// of the index layout. Indexes that grew in place share one column
// array (and their common segments), and each member of such a
// lineage counts the whole array, so summing over a lineage counts it
// more than once.
func (ix *ScoreIndex) ResidentBytes() int64 {
	total := int64(8 * cap(ix.scores))
	for _, s := range ix.segs {
		total += int64(8*len(s.perm) + 8*len(s.sorted) + 2*len(s.codes) + 2*len(s.qsorted))
	}
	return total
}
