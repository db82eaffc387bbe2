package core

import "math"

// Answer is a returned set R in compact form over a source: the records
// whose score is at least Tau — none when Tau is +Inf — plus Extra, the
// ascending ids of R's records outside that threshold part. Algorithm
// 1's R = R1 ∪ R2 is the answer (τ, R1's labeled positives below τ),
// whose few hundred extras stand for a set of any size; a JT answer, an
// explicit oracle-verified list, is (+Inf, the list). The set's size
// and ids can be read from the source without listing it: Len counts
// it, and index.ScoreIndex walks its threshold part (EachAtLeast) and
// streams it (WalkAtLeastWith). List lists it.
type Answer struct {
	Tau   float64
	Extra []int
}

// Len returns |R| over src.
func (a Answer) Len(src ScoreSource) int {
	if math.IsInf(a.Tau, 1) {
		return len(a.Extra)
	}
	return src.CountAtLeast(a.Tau) + len(a.Extra)
}

// answerLister is the optional ScoreSource method List lists an answer
// through, detected the way restrictionSource is. index.ScoreIndex
// implements it with the gather its WalkAtLeastWith streams from, which
// marks each extra in its segment's bitmap, so a listed and a streamed
// answer come from one walk and neither needs a merge.
type answerLister interface {
	AppendAtLeastWith(dst []int, tau float64, extra []int) []int
}

// List returns R's ids over src in ascending order, in a slice of
// exactly Len(src) ids. It is the one helper the materializing entry
// points (SelectFromContextOptions, the JT candidate set,
// multiproxy.Select, the engine) list an answer through.
func (a Answer) List(src ScoreSource) []int {
	dst := make([]int, 0, a.Len(src))
	if math.IsInf(a.Tau, 1) {
		return append(dst, a.Extra...)
	}
	if l, ok := src.(answerLister); ok {
		return l.AppendAtLeastWith(dst, a.Tau, a.Extra)
	}
	// A source without the walk (a raw slice, or a decorator that
	// implements exactly ScoreSource): its threshold suffix, then one
	// backward merge of the extras, which do not alias dst.
	dst = src.AppendAtLeast(dst, a.Tau)
	i, j := len(dst)-1, len(a.Extra)-1
	dst = append(dst, a.Extra...)
	for w := len(dst) - 1; j >= 0; w-- {
		if i >= 0 && dst[i] > a.Extra[j] {
			dst[w] = dst[i]
			i--
		} else {
			dst[w] = a.Extra[j]
			j--
		}
	}
	return dst
}
