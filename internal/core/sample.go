package core

import (
	"fmt"
	"sort"

	"supg/internal/oracle"
	"supg/internal/randx"
	"supg/internal/sampling"
)

// labeledSample is a set of oracle-labeled draws together with the
// importance reweighting factors m(x) = u(x)/w(x). Uniform samples have
// all m == 1. Draws are kept sorted by ascending proxy score. The
// query's oracle.Budgeted, not the sample, records what was labeled and
// what the draws cost.
type labeledSample struct {
	idx   []int     // record indices (possibly repeated for weighted draws)
	score []float64 // proxy score per draw
	label []float64 // oracle label per draw (0 or 1)
	m     []float64 // reweighting factor per draw
	maxM  float64   // max m over the sample (Hoeffding range hint)
}

func (s *labeledSample) len() int { return len(s.idx) }

// drawUniform collects k uniform-without-replacement labeled draws.
func drawUniform(r *randx.Rand, scores []float64, o *oracle.Budgeted, k int, ar *arena) (*labeledSample, error) {
	idx := sampling.UniformWithoutReplacement(r, len(scores), k)
	m := ar.floats(len(idx))
	for i := range m {
		m[i] = 1
	}
	return labelDraws(scores, o, idx, m, ar)
}

// drawWeightedAlias collects k with-replacement draws from the
// defensive mixture over the given weights (already normalized to sum
// 1), with m(x) = (1/n) / w(x), through alias, the table for those
// weights (from ScoreSource.Mixture).
func drawWeightedAlias(r *randx.Rand, scores []float64, weights []float64, alias *sampling.Alias, o *oracle.Budgeted, k int, ar *arena) (*labeledSample, error) {
	if len(weights) != len(scores) {
		return nil, fmt.Errorf("core: %d weights for %d scores", len(weights), len(scores))
	}
	if alias == nil || k <= 0 {
		return nil, fmt.Errorf("core: weighted sampling produced no draws")
	}
	idx := alias.DrawNInto(r, ar.ints(k))
	u := 1.0 / float64(len(scores))
	m := ar.floats(len(idx))
	for i, j := range idx {
		m[i] = u / weights[j]
	}
	return labelDraws(scores, o, idx, m, ar)
}

// drawRestricted collects k with-replacement draws from t, a table
// restricted to a subset D′ of the records, with m(x) = (1/|D′|) / w′(x)
// where w′ is the weight normalized within D′ (sampling.Restricted).
func drawRestricted(r *randx.Rand, scores []float64, t *sampling.Restricted, o *oracle.Budgeted, k int, ar *arena) (*labeledSample, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: weighted subset sampling produced no draws")
	}
	idx, m := ar.ints(k), ar.floats(k)
	t.DrawInto(r, idx, m)
	return labelDraws(scores, o, idx, m, ar)
}

// labelDraws queries the oracle for each draw and assembles the sample,
// sorted by ascending proxy score. The whole draw set is handed to the
// oracle in one LabelAll call, so a batch-capable oracle (one wrapped
// in an oracle.Dispatcher) fetches the labels with bounded parallelism;
// the labels come back in draw order and the budget accounting matches
// the sequential loop exactly, so results are identical either way.
func labelDraws(scores []float64, o *oracle.Budgeted, idx []int, m []float64, ar *arena) (*labeledSample, error) {
	s := &labeledSample{
		idx:   ar.ints(len(idx)),
		score: ar.floats(len(idx)),
		label: ar.floats(len(idx)),
		m:     ar.floats(len(idx)),
	}
	// The sort compares keys gathered from the n-record column once
	// instead of two dependent loads through idx per comparison; every
	// comparison, and so the permutation and its tie order, is the same.
	keys := ar.floats(len(idx))
	order := ar.ints(len(idx))
	for i, j := range idx {
		keys[i] = scores[j]
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })

	sorted := ar.ints(len(idx))
	for pos, oi := range order {
		sorted[pos] = idx[oi]
	}
	labs, err := o.LabelAll(sorted)
	if err != nil {
		return nil, fmt.Errorf("core: labeling draws: %w", err)
	}

	for pos, oi := range order {
		j := sorted[pos]
		s.idx[pos] = j
		s.score[pos] = keys[oi]
		if labs[pos] {
			s.label[pos] = 1
		}
		s.m[pos] = m[oi]
		if s.m[pos] > s.maxM {
			s.maxM = s.m[pos]
		}
	}
	return s, nil
}

// weightedPositiveTotal returns Σ O(x)·m(x) over the sample — the
// denominator of the reweighted recall estimate (Eq. 11).
func (s *labeledSample) weightedPositiveTotal() float64 {
	total := 0.0
	for i := range s.label {
		total += s.label[i] * s.m[i]
	}
	return total
}

// suffixPositive returns the array suf where suf[k] = Σ_{i>=k} O·m,
// with one extra trailing 0 entry, so recall at threshold score[k]
// (inclusive of ties handled by the caller) is suf[k]/total.
func (s *labeledSample) suffixPositive(ar *arena) []float64 {
	n := s.len()
	suf := ar.floats(n + 1)
	for i := n - 1; i >= 0; i-- {
		suf[i] = suf[i+1] + s.label[i]*s.m[i]
	}
	return suf
}

// maxTauWithRecall returns the largest sampled score tau such that the
// (reweighted) empirical recall of {A >= tau} is at least gamma — the
// max{τ : Recall_S(τ) >= γ} primitive of Algorithms 2 and 4. The second
// return is false when the sample has no positive mass.
func (s *labeledSample) maxTauWithRecall(gamma float64, ar *arena) (float64, bool) {
	total := s.weightedPositiveTotal()
	if total <= 0 {
		return 0, false
	}
	suf := s.suffixPositive(ar)
	n := s.len()
	// Walk distinct score groups from the highest score downward; the
	// first (largest) threshold whose suffix recall reaches gamma wins.
	k := n
	for k > 0 {
		// Find the start of the tie group ending at k-1.
		start := k - 1
		for start > 0 && s.score[start-1] == s.score[k-1] {
			start--
		}
		recall := suf[start] / total
		if recall >= gamma {
			return s.score[start], true
		}
		k = start
	}
	// Even including every sampled record the recall is < gamma, which
	// cannot happen since suffix(0) == total; defensive fallback.
	return s.score[0], true
}

// groupStarts returns the index of the first draw of each distinct
// score-tie group, ascending.
func (s *labeledSample) groupStarts() []int {
	var starts []int
	for i := 0; i < s.len(); i++ {
		if i == 0 || s.score[i] != s.score[i-1] {
			starts = append(starts, i)
		}
	}
	return starts
}
