package index

import (
	"fmt"
	"math"
	"sync/atomic"

	"supg/internal/parallel"
)

// buildSorts counts segment permutation sorts performed process-wide by
// buildSegment. It exists so recovery tests (and operators) can assert
// the zero-rescan contract: booting from a persisted index performs
// zero sorts, because FromExternal verifies the stored permutation
// instead of recomputing it.
var buildSorts atomic.Int64

// BuildSortsTotal reports how many segment permutation sorts this
// process has performed across all indexes.
func BuildSortsTotal() int64 { return buildSorts.Load() }

// SegmentData is the persistable artifact set of one segment: the
// global id of its first record plus the local ascending (score, id)
// permutation and the permuted score run. The slices are shared with
// the index that produced them (SegmentView) or adopted by the index
// that consumes them (FromExternal) and must be treated as read-only.
type SegmentData struct {
	// Base is the global id of the segment's first record.
	Base int
	// Perm holds local ids ascending by (score, local id).
	Perm []int
	// Sorted holds Column[Base+Perm[i]] — the segment's ascending run.
	Sorted []float64
	// Codes / SortedCodes are the segment's 16-bit score codes in record
	// order and sorted order (see quantize.go). Both nil on an
	// unquantized segment; when present, both must be len(Perm) long and
	// satisfy Codes[i] == quantizeScore(sub[i]) and SortedCodes[i] ==
	// Codes[Perm[i]].
	Codes       []uint16
	SortedCodes []uint16
}

// SegmentView exposes the i-th segment's artifacts for persistence.
// The returned slices alias the index's internal state.
func (ix *ScoreIndex) SegmentView(i int) SegmentData {
	s := ix.segs[i]
	return SegmentData{Base: s.base, Perm: s.perm, Sorted: s.sorted, Codes: s.codes, SortedCodes: s.qsorted}
}

// External is a fully-materialized index image living in memory the
// index package did not allocate — typically mmap'd file sections. The
// column and every segment slice are adopted without copying, so the
// backing memory must stay valid (and unmodified) for the life of the
// returned index and anything derived from it.
type External struct {
	// Column is the full score column in record order. Segment
	// sub-columns alias Column[Base : Base+len(Perm)].
	Column []float64
	// Segments tile Column in ascending Base order.
	Segments []SegmentData
	// Backing optionally pins whatever owns the memory (a mapped file
	// handle); the index retains it so the mapping cannot be released
	// while reachable.
	Backing any
	// Mixtures are persisted sampling mixtures of this column, adopted
	// lazily: each Load runs only when a query first asks for its key
	// (see StoredMixture).
	Mixtures []StoredMixture
}

// FromExternal reconstructs a ScoreIndex over externally-owned memory
// without sorting anything. Instead of trusting the stored
// permutations, it verifies in O(n) that each segment's (Sorted, Perm)
// run is strictly ascending by (score, local id), in-bounds, and
// consistent with the column — which mathematically pins the
// permutation as the unique ascending (score, id) total order
// buildSegment computes, so a verified index answers every query
// bit-for-bit identically to a rebuild. Any inconsistency (including a
// -0.0 score, which buildSegment would have normalized in place —
// impossible here because the memory may be read-only) returns an
// error; callers fall back to a full rebuild rather than serving
// corrupt data.
//
// opts supplies the segment size and parallelism used for future
// Appends and parallel mixture builds; it does not re-segment the
// external image.
func FromExternal(ext External, opts Options) (*ScoreIndex, error) {
	n := len(ext.Column)
	if n == 0 {
		return nil, fmt.Errorf("index: empty external column")
	}
	if len(ext.Segments) == 0 {
		return nil, fmt.Errorf("index: external image has no segments")
	}
	opts = opts.withDefaults()

	// Segments must tile the column contiguously from 0.
	next := 0
	for i, sd := range ext.Segments {
		if sd.Base != next {
			return nil, fmt.Errorf("index: external segment %d starts at %d, want %d", i, sd.Base, next)
		}
		if len(sd.Perm) == 0 || len(sd.Perm) != len(sd.Sorted) {
			return nil, fmt.Errorf("index: external segment %d has %d perm / %d sorted entries",
				i, len(sd.Perm), len(sd.Sorted))
		}
		if (sd.Codes == nil) != (sd.SortedCodes == nil) ||
			(sd.Codes != nil && (len(sd.Codes) != len(sd.Perm) || len(sd.SortedCodes) != len(sd.Perm))) {
			return nil, fmt.Errorf("index: external segment %d has inconsistent code vectors (%d/%d codes for %d records)",
				i, len(sd.Codes), len(sd.SortedCodes), len(sd.Perm))
		}
		next += len(sd.Perm)
		if next > n {
			return nil, fmt.Errorf("index: external segment %d overruns the %d-record column", i, n)
		}
	}
	if next != n {
		return nil, fmt.Errorf("index: external segments cover %d of %d records", next, n)
	}

	segs := make([]*segment, len(ext.Segments))
	errs := make([]error, len(ext.Segments))
	parallel.Run(opts.Parallelism, len(ext.Segments), func(j int) {
		sd := ext.Segments[j]
		end := sd.Base + len(sd.Perm)
		sub := ext.Column[sd.Base:end:end]
		if err := verifySegmentData(sub, sd); err != nil {
			errs[j] = err
			return
		}
		seg := &segment{base: sd.Base, scores: sub, perm: sd.Perm, sorted: sd.Sorted,
			codes: sd.Codes, qsorted: sd.SortedCodes}
		if opts.Quantize && seg.codes == nil {
			// The image was persisted unquantized; build the code vectors
			// on the heap so the recovered index serves the configured
			// representation. Results are identical either way.
			seg.codes = quantizeSub(sub)
			seg.qsorted = permuteCodes(seg.codes, sd.Perm)
		}
		segs[j] = seg
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// The index counts as quantized when every segment carries codes —
	// whether configured (opts.Quantize) or adopted from a quantized disk
	// image under a Quantize-off configuration (the codes are already
	// verified, so serving them costs nothing).
	quant := true
	for _, s := range segs {
		if s.codes == nil {
			quant = false
			break
		}
	}
	return &ScoreIndex{
		scores:   ext.Column[:n:n], // never grown in place: see Append
		segs:     segs,
		segSize:  opts.SegmentSize,
		par:      opts.Parallelism,
		pool:     opts.QueryPool,
		quant:    quant,
		backing:  ext.Backing,
		stored:   storedMixtures(ext.Mixtures),
		mixtures: make(map[MixtureKey]*mixture),
	}, nil
}

// verifySegmentData checks one external segment against its sub-column.
// Strict (score, local id) ascent plus Sorted[i] == sub[Perm[i]] imply
// Perm is injective (two equal ids would force equal scores, breaking
// strictness) and therefore a bijection on [0, len) — the unique sorted
// permutation. Scores are additionally checked against the [0, 1]
// non-NaN, no-negative-zero invariant every built index guarantees, and
// any persisted code vectors are verified against the column in the
// same pass: a stored code that diverges from quantizeScore of the
// mmap'd float (bit rot, format skew) would silently misroute quantized
// binary searches, so it is rejected like any other corruption.
func verifySegmentData(sub []float64, sd SegmentData) error {
	n := len(sub)
	for i, v := range sub {
		if v < 0 || v > 1 || v != v {
			return fmt.Errorf("index: external score %g for record %d outside [0,1]", v, sd.Base+i)
		}
		if v == 0 && math.Signbit(v) {
			return fmt.Errorf("index: external score -0 for record %d (unnormalized column)", sd.Base+i)
		}
		if sd.Codes != nil && sd.Codes[i] != quantizeScore(v) {
			return fmt.Errorf("index: external code %d for record %d diverges from its score %g",
				sd.Codes[i], sd.Base+i, v)
		}
	}
	prevBits, prevID := uint64(0), -1
	for i, p := range sd.Perm {
		if p < 0 || p >= n {
			return fmt.Errorf("index: external perm entry %d of segment at %d out of range", p, sd.Base)
		}
		bits := math.Float64bits(sd.Sorted[i])
		if bits != math.Float64bits(sub[p]) {
			return fmt.Errorf("index: external sorted run diverges from column at record %d", sd.Base+p)
		}
		if sd.SortedCodes != nil && sd.SortedCodes[i] != sd.Codes[p] {
			return fmt.Errorf("index: external sorted codes diverge at segment offset %d (base %d)", i, sd.Base)
		}
		// Non-negative floats order by their bit patterns, so one integer
		// compare checks the (score, id) ascent.
		if i > 0 && (bits < prevBits || (bits == prevBits && p <= prevID)) {
			return fmt.Errorf("index: external permutation not ascending at segment offset %d (base %d)", i, sd.Base)
		}
		prevBits, prevID = bits, p
	}
	return nil
}
