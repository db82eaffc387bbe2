// Package dataset provides the data substrate for SUPG queries: an
// in-memory columnar store of records carrying proxy scores and hidden
// ground-truth labels, generators for the paper's synthetic Beta
// datasets, simulated stand-ins for the paper's four real datasets
// (ImageNet, night-street, OntoNotes, TACRED), the distribution-shift
// transforms of Table 3, and CSV import/export.
//
// Ground-truth labels are stored but deliberately not exposed as a
// public field: algorithms must go through an oracle (which enforces the
// budget), while evaluation code uses TrueLabel / Positives explicitly.
package dataset

import (
	"fmt"
	"sync/atomic"
)

// Dataset is an immutable collection of records. Each record i has a
// proxy confidence score Scores[i] in [0,1] and a hidden ground-truth
// boolean label.
type Dataset struct {
	name   string
	scores []float64
	labels []bool
	// positives counts the true labels. Datasets are immutable, so it
	// is computed once at construction (see countPositives) instead of
	// rescanning the labels on every evaluation and registration.
	positives int
	// grow guards the spare capacity of scores and labels, which Append
	// may fill in place; nil unless Append allocated both arrays. See
	// Append.
	grow *extent
}

// extent records how far the datasets sharing one pair of
// Append-allocated arrays have claimed them: every record below end
// belongs to some dataset of the lineage, so only a dataset exactly
// end records long may write past its length.
type extent struct{ end atomic.Int64 }

// claim reports whether a dataset of n records over the arrays may
// write records [n, m) in place, and if so takes them. At most one
// caller wins per n; a nil extent (arrays Append did not allocate)
// never grants a claim.
func (e *extent) claim(n, m int) bool {
	return e != nil && e.end.CompareAndSwap(int64(n), int64(m))
}

// grown returns s followed by tail: written in place into s's spare
// capacity when inPlace is set (the caller holds the claim), otherwise
// copied into a fresh array with append's growth headroom.
func grown[T any](s, tail []T, inPlace bool) []T {
	n := len(s)
	if inPlace {
		s = s[:n+len(tail)]
		copy(s[n:], tail)
		return s
	}
	return append(s[:n:n], tail...)
}

// countPositives returns the number of true labels.
func countPositives(labels []bool) int {
	c := 0
	for _, l := range labels {
		if l {
			c++
		}
	}
	return c
}

// New constructs a Dataset from parallel score/label slices. The slices
// are retained (not copied); callers must not mutate them afterwards.
// It returns an error if lengths differ, the dataset is empty, or any
// score is outside [0, 1].
func New(name string, scores []float64, labels []bool) (*Dataset, error) {
	if len(scores) == 0 {
		return nil, fmt.Errorf("dataset %q: no records", name)
	}
	if len(scores) != len(labels) {
		return nil, fmt.Errorf("dataset %q: %d scores but %d labels", name, len(scores), len(labels))
	}
	for i, s := range scores {
		if s < 0 || s > 1 || s != s {
			return nil, fmt.Errorf("dataset %q: score %g at record %d outside [0,1]", name, s, i)
		}
	}
	return &Dataset{name: name, scores: scores, labels: labels, positives: countPositives(labels)}, nil
}

// FromColumns constructs a Dataset over already-validated parallel
// columns without the per-record range scan New performs. The slices
// are retained (not copied) — the zero-copy path for callers whose
// scores are integrity-checked elsewhere, like the storage tier's
// CRC-verified mmap'd columns. Only structural errors (empty, length
// mismatch) are reported; a caller passing unvalidated scores breaks
// the [0,1] invariant downstream code relies on.
func FromColumns(name string, scores []float64, labels []bool) (*Dataset, error) {
	if len(scores) == 0 {
		return nil, fmt.Errorf("dataset %q: no records", name)
	}
	if len(scores) != len(labels) {
		return nil, fmt.Errorf("dataset %q: %d scores but %d labels", name, len(scores), len(labels))
	}
	return &Dataset{name: name, scores: scores, labels: labels, positives: countPositives(labels)}, nil
}

// MustNew is New but panics on error; for generators with validated input.
func MustNew(name string, scores []float64, labels []bool) *Dataset {
	d, err := New(name, scores, labels)
	if err != nil {
		panic(err)
	}
	return d
}

// Name returns the dataset's name.
func (d *Dataset) Name() string { return d.name }

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.scores) }

// Score returns the proxy score of record i.
func (d *Dataset) Score(i int) float64 { return d.scores[i] }

// Scores returns the full proxy-score column. The returned slice is the
// dataset's backing array; treat it as read-only. Its capacity ends at
// its length, so appending to it copies instead of writing into space
// a grown dataset may own.
func (d *Dataset) Scores() []float64 { return d.scores[:len(d.scores):len(d.scores)] }

// TrueLabel reports the ground-truth label of record i. Algorithm code
// must not call this; it exists for oracle construction and evaluation.
func (d *Dataset) TrueLabel(i int) bool { return d.labels[i] }

// PositiveCount returns the number of true-positive records in O(1).
func (d *Dataset) PositiveCount() int { return d.positives }

// PositiveRate returns the true-positive rate |O+| / |D|.
func (d *Dataset) PositiveRate() float64 {
	return float64(d.PositiveCount()) / float64(d.Len())
}

// WithName returns a shallow copy of d renamed to name. The copy shares
// d's arrays and their extent, so the two count as one parent to
// Append.
func (d *Dataset) WithName(name string) *Dataset {
	return &Dataset{name: name, scores: d.scores, labels: d.labels, positives: d.positives, grow: d.grow}
}

// Append returns a new dataset holding d's records followed by
// extra's; the records of both inputs are left untouched. The name is
// d's. Appended records take the ids [d.Len(), d.Len()+extra.Len()),
// which is what makes incremental index appends safe: existing ids
// keep their scores and labels bit for bit.
//
// Append costs O(extra.Len()) when it can write the new records into
// the spare capacity of the arrays d lives in. It does so only when an
// earlier Append allocated those arrays and no other child of d (or of
// a dataset of the same length over them) has claimed the space past
// d's length: the claim is atomic, so the first child grows in place
// and every other child copies. Arrays retained from callers (New,
// FromColumns, ReadBinaryInto's buffers) or mapped from files are
// never written past their length. A copy costs O(d.Len()) and takes
// append's growth headroom, which the chain of appends after it fills
// in place.
func (d *Dataset) Append(extra *Dataset) *Dataset {
	n, m := len(d.scores), len(d.scores)+extra.Len()
	g := d.grow
	inPlace := m <= cap(d.scores) && m <= cap(d.labels) && g.claim(n, m)
	if !inPlace {
		g = new(extent)
		g.end.Store(int64(m))
	}
	return &Dataset{
		name:      d.name,
		scores:    grown(d.scores, extra.scores, inPlace),
		labels:    grown(d.labels, extra.labels, inPlace),
		positives: d.positives + extra.positives,
		grow:      g,
	}
}

// Slice returns a new dataset over records [lo, hi) of d, with copied
// columns. It panics if the range is invalid; an empty range yields a
// dataset New would reject, so callers slice at least one record.
func (d *Dataset) Slice(lo, hi int) *Dataset {
	scores := make([]float64, hi-lo)
	copy(scores, d.scores[lo:hi])
	labels := make([]bool, hi-lo)
	copy(labels, d.labels[lo:hi])
	return &Dataset{name: d.name, scores: scores, labels: labels, positives: countPositives(labels)}
}

// Clone returns a deep copy of d, so transforms can mutate safely.
func (d *Dataset) Clone() *Dataset {
	scores := make([]float64, len(d.scores))
	copy(scores, d.scores)
	labels := make([]bool, len(d.labels))
	copy(labels, d.labels)
	return &Dataset{name: d.name, scores: scores, labels: labels, positives: d.positives}
}

// Summary describes a dataset the way the paper's Table 2 does.
type Summary struct {
	Name      string
	Records   int
	Positives int
	TPR       float64
}

// Summarize returns the dataset's Table 2 row.
func (d *Dataset) Summarize() Summary {
	p := d.PositiveCount()
	return Summary{
		Name:      d.name,
		Records:   d.Len(),
		Positives: p,
		TPR:       float64(p) / float64(d.Len()),
	}
}
