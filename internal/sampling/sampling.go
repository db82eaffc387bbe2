// Package sampling implements the record-selection substrates SUPG needs:
// uniform sampling without replacement, weighted (importance) sampling
// with replacement via the Vose alias method, reservoir sampling, and
// the defensive-mixture weight construction from the paper's Algorithms
// 4 and 5.
package sampling

import (
	"fmt"
	"math"

	"supg/internal/randx"
)

// UniformWithoutReplacement returns k distinct indices drawn uniformly
// from [0, n) using Floyd's algorithm: O(k) memory and O(k) expected
// time, with no O(n) index table (the historical partial Fisher–Yates
// allocated and initialized all n slots per call). If k >= n it
// returns all n indices in order. Output is deterministic for a fixed
// random stream; the draw order is not uniformly shuffled, which no
// caller relies on (labeled samples are re-sorted by proxy score).
func UniformWithoutReplacement(r *randx.Rand, n, k int) []int {
	if n <= 0 || k <= 0 {
		return nil
	}
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, k)
	seen := make(map[int]struct{}, k)
	for j := n - k; j < n; j++ {
		t := r.IntN(j + 1)
		if _, dup := seen[t]; dup {
			t = j
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// UniformWithReplacement returns k indices drawn uniformly with
// replacement from [0, n).
func UniformWithReplacement(r *randx.Rand, n, k int) []int {
	if n <= 0 || k <= 0 {
		return nil
	}
	out := make([]int, k)
	for i := range out {
		out[i] = r.IntN(n)
	}
	return out
}

// Reservoir returns k indices sampled uniformly without replacement from
// a stream of n items using Vitter's Algorithm R. Unlike
// UniformWithoutReplacement (Floyd's sampler, which needs n up front)
// it processes items one at a time, so it suits single-pass streaming
// contexts where the population size is not known in advance.
func Reservoir(r *randx.Rand, n, k int) []int {
	if n <= 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	res := make([]int, k)
	for i := 0; i < k; i++ {
		res[i] = i
	}
	for i := k; i < n; i++ {
		j := r.IntN(i + 1)
		if j < k {
			res[j] = i
		}
	}
	return res
}

// Alias is a Walker/Vose alias table supporting O(1) draws from an
// arbitrary discrete distribution over [0, n).
type Alias struct {
	prob  []float64
	alias []int32
}

// MaxAliasLen is the largest support an alias table can hold: alias
// entries and the build worklist are 32-bit.
const MaxAliasLen = math.MaxInt32

// NewAlias builds an alias table from non-negative weights. Weights need
// not be normalized. It returns nil if no weight is positive, and panics
// on more than MaxAliasLen weights (core's IS estimators refuse such
// sources with an error before building one).
//
// The build works in place: prob first holds the scaled weights
// w·n/Σw, and one n-entry worklist holds both Vose stacks — the small
// stack grows up from the front, the large stack grows down from the
// back. Every pop removes one entry from each stack and every push adds
// at most one back, so the two never meet. Both stacks keep the LIFO
// order of separate slices and every float operation is unchanged, so
// prob and alias come out bit-for-bit as a textbook two-stack build
// makes them (pinned in alias_test.go), in 16 bytes per outcome of
// working memory instead of 40.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic("sampling: alias weights must be finite and non-negative")
		}
		total += w
	}
	if n == 0 || total <= 0 {
		return nil
	}
	if n > MaxAliasLen {
		panic("sampling: alias table over MaxAliasLen outcomes")
	}

	prob := make([]float64, n)
	alias := make([]int32, n)
	work := make([]int32, n)
	small, large := 0, n // small stack work[:small], large stack work[large:]
	for i, w := range weights {
		prob[i] = w / total * float64(n)
		if prob[i] < 1 {
			work[small] = int32(i)
			small++
		} else {
			large--
			work[large] = int32(i)
		}
	}
	for small > 0 && large < n {
		small--
		s := work[small]
		l := work[large]
		large++
		// prob[s] already holds its final scaled weight.
		alias[s] = l
		prob[l] = prob[l] + prob[s] - 1
		if prob[l] < 1 {
			work[small] = l
			small++
		} else {
			large--
			work[large] = l
		}
	}
	for _, i := range work[large:] {
		prob[i] = 1
		alias[i] = i
	}
	for _, i := range work[:small] {
		prob[i] = 1 // numerical residue
		alias[i] = i
	}
	return &Alias{prob: prob, alias: alias}
}

// AliasFromTables wraps prob/alias tables that NewAlias built earlier
// (typically mapped back from disk) without copying them. Every entry
// is bounds-checked first — prob in [0, 1], alias in [0, n) — so no
// draw from the result can index outside the table. The slices are
// retained and must not be modified.
func AliasFromTables(prob []float64, alias []int32) (*Alias, error) {
	n := len(prob)
	if n == 0 || n != len(alias) {
		return nil, fmt.Errorf("sampling: alias tables of %d probabilities and %d aliases", n, len(alias))
	}
	for i, p := range prob {
		if !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("sampling: alias probability %g at %d outside [0,1]", p, i)
		}
		if a := alias[i]; a < 0 || int(a) >= n {
			return nil, fmt.Errorf("sampling: alias %d at %d outside [0,%d)", a, i, n)
		}
	}
	return &Alias{prob: prob, alias: alias}, nil
}

// Tables exposes the table's probabilities and aliases for persistence.
// The slices are shared with the table and must be treated as
// read-only.
func (a *Alias) Tables() (prob []float64, alias []int32) { return a.prob, a.alias }

// Draw returns one index distributed according to the table's weights.
func (a *Alias) Draw(r *randx.Rand) int {
	i := r.IntN(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// DrawN returns k indices drawn with replacement.
func (a *Alias) DrawN(r *randx.Rand, k int) []int {
	return a.DrawNInto(r, make([]int, k))
}

// DrawNInto fills dst with len(dst) indices drawn with replacement and
// returns it. It is the allocation-free form of DrawN for callers that
// recycle scratch buffers: the draws consume the random stream exactly
// as DrawN does, so the two are interchangeable result-wise.
func (a *Alias) DrawNInto(r *randx.Rand, dst []int) []int {
	for i := range dst {
		dst[i] = a.Draw(r)
	}
	return dst
}

// Len returns the support size of the table.
func (a *Alias) Len() int { return len(a.prob) }

// WeightedWithReplacement returns k indices drawn with replacement with
// probability proportional to weights.
func WeightedWithReplacement(r *randx.Rand, weights []float64, k int) []int {
	a := NewAlias(weights)
	if a == nil || k <= 0 {
		return nil
	}
	return a.DrawN(r, k)
}

// DefensiveWeights builds the sampling distribution of Algorithms 4/5:
// each proxy score is raised to exponent, normalized to sum 1, and mixed
// with the uniform distribution: w = (1-mix)·pow/||pow||₁ + mix·1/n.
// The paper uses exponent 0.5 and mix 0.1. The returned slice sums to 1.
// Scores are clamped at 0 before exponentiation. If every transformed
// score is zero the result is fully uniform.
func DefensiveWeights(scores []float64, exponent, mix float64) []float64 {
	n := len(scores)
	if n == 0 {
		return nil
	}
	if mix < 0 {
		mix = 0
	}
	if mix > 1 {
		mix = 1
	}
	w := make([]float64, n)
	total := 0.0
	for i, s := range scores {
		if s < 0 {
			s = 0
		}
		var v float64
		switch {
		case exponent == 0:
			v = 1
		case exponent == 1:
			v = s
		case exponent == 0.5:
			v = math.Sqrt(s)
		default:
			v = math.Pow(s, exponent)
		}
		w[i] = v
		total += v
	}
	uniform := 1.0 / float64(n)
	if total <= 0 {
		for i := range w {
			w[i] = uniform
		}
		return w
	}
	for i := range w {
		w[i] = (1-mix)*w[i]/total + mix*uniform
	}
	return w
}
