package core

import (
	"supg/internal/sampling"
)

// ScoreSource is the read-only view of a proxy-score column together
// with the precomputed artifacts the estimators consume: threshold
// counts, order statistics, threshold extraction, and the
// defensive-mixture sampling distribution. Two implementations exist:
// internal/index.ScoreIndex amortizes everything across queries of a
// registered table (the engine hot path), and NewRawSource computes
// lazily for one-shot score slices (the supg.Run path).
type ScoreSource interface {
	// Len returns the number of records.
	Len() int
	// Scores returns the score column in record order, read-only.
	Scores() []float64
	// CountAtLeast returns |{x : A(x) >= tau}|.
	CountAtLeast(tau float64) int
	// KthHighest returns the k-th highest score (0-based, clamped).
	KthHighest(k int) float64
	// AppendAtLeast appends the record ids with score >= tau to dst in
	// ascending id order and returns the extended slice.
	AppendAtLeast(dst []int, tau float64) []int
	// Mixture returns the defensive-mixture weights and alias table for
	// the given exponent and mixing ratio; both are read-only.
	Mixture(exponent, mix float64) ([]float64, *sampling.Alias)
}

// rawSource adapts a plain score slice to ScoreSource for one-shot
// queries (see NewRawSource). The sorted view and the mixture are built
// lazily — at most once per query — and a single mixture entry is
// cached because one query uses one (exponent, mix) pair. It is not
// safe for concurrent use; each query owns its own rawSource.
type rawSource struct {
	scores []float64
	ix     *scoreIndex // lazily sorted copy for count/order queries

	mixSet  bool
	mixKey  [2]float64
	weights []float64
	alias   *sampling.Alias
}

// NewRawSource adapts a plain score slice to ScoreSource without
// copying it. A one-shot query over a slice answers faster through it
// than through a freshly built index.ScoreIndex for recall targets
// (one O(n) scan, no sort), and slower for precision targets, whose
// candidate walk needs the sorted view. The source is not safe for
// concurrent use; give each query its own.
func NewRawSource(scores []float64) ScoreSource {
	return &rawSource{scores: scores}
}

func (s *rawSource) Len() int          { return len(s.scores) }
func (s *rawSource) Scores() []float64 { return s.scores }

func (s *rawSource) index() *scoreIndex {
	if s.ix == nil {
		s.ix = newScoreIndex(s.scores)
	}
	return s.ix
}

// CountAtLeast counts linearly until the sorted view exists: building
// an O(n log n) sort to answer one count (e.g. assembleFrom's capacity
// hint) would cost more than the O(n) scan it saves. Estimators that
// need order statistics (KthHighest) build the sorted view, after
// which counts are binary searches.
func (s *rawSource) CountAtLeast(tau float64) int {
	if s.ix == nil {
		n := 0
		for _, sc := range s.scores {
			if sc >= tau {
				n++
			}
		}
		return n
	}
	return s.ix.countAtLeast(tau)
}

func (s *rawSource) KthHighest(k int) float64 { return s.index().kthHighest(k) }

// AppendAtLeast scans the column directly: a one-shot slice has no
// sorted permutation worth building for a single extraction, and the
// scan emits ids already ascending.
func (s *rawSource) AppendAtLeast(dst []int, tau float64) []int {
	for i, sc := range s.scores {
		if sc >= tau {
			dst = append(dst, i)
		}
	}
	return dst
}

func (s *rawSource) Mixture(exponent, mix float64) ([]float64, *sampling.Alias) {
	key := [2]float64{exponent, mix}
	if !s.mixSet || s.mixKey != key {
		s.weights = sampling.DefensiveWeights(s.scores, exponent, mix, 1)
		s.alias = sampling.NewAlias(s.weights)
		s.mixKey = key
		s.mixSet = true
	}
	return s.weights, s.alias
}
