// Package sampling implements the record-selection substrates SUPG needs:
// uniform sampling without replacement, weighted (importance) sampling
// with replacement via the Vose alias method, and the defensive-mixture
// weight construction from the paper's Algorithms 4 and 5.
package sampling

import (
	"fmt"
	"math"
	"math/bits"

	"supg/internal/parallel"
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

// Alias is a Walker/Vose alias table supporting O(1) draws from an
// arbitrary discrete distribution over [0, n).
type Alias struct {
	prob  []float64
	alias []int32
}

// MaxAliasLen is the largest support an alias table can hold: alias
// entries are 32-bit.
const MaxAliasLen = math.MaxInt32

// NewAlias builds an alias table from non-negative weights. Weights need
// not be normalized. It returns nil if no weight is positive, and panics
// on more than MaxAliasLen weights (core's IS estimators refuse such
// sources with an error before building one).
//
// prob and alias come out bit-for-bit as a textbook two-stack Vose
// build makes them (pinned in alias_test.go), without the stacks. The
// scaling pass writes the scaled weights w·n/Σw into prob and records
// each outcome's class — small (< 1) or large — in a bitmap. Both
// stacks are filled in index order, so each pops its original entries
// in descending index order, and the only entry ever pushed back is the
// large just popped: it stays on top of the large stack while it stays
// large, and moves to the top of the small stack, to be popped next,
// once it turns small. The pairing therefore walks two descending
// cursors over the bitmap, one over set bits and one over clear bits,
// and keeps the current large's mass in a register; every float
// operation is the stacks'. Working memory beyond the tables is the
// one bitmap, a bit per outcome, instead of a 4-byte worklist entry.
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
	small := make([]uint64, (n+63)>>6) // bit i: prob[i] started below 1
	for w := range small {
		lo := w << 6
		ws := weights[lo:min(lo+64, n)]
		ps := prob[lo : lo+len(ws)]
		var word uint64
		for j, x := range ws {
			p := x / total * float64(n)
			ps[j] = p
			word |= b2u(p < 1) << j
		}
		small[w] = word
	}
	// The large cursor walks clear bits: mask the tail word's bits past
	// n, which are clear but no outcome.
	tail := ^uint64(0)
	if r := n & 63; r != 0 {
		tail = 1<<r - 1
	}
	smalls := bitCursor{words: small, w: len(small), flip: 0, tail: tail}
	larges := bitCursor{words: small, w: len(small), flip: ^uint64(0), tail: tail}

	s, l := smalls.next(), larges.next()
	if s >= 0 && l >= 0 {
		pl := prob[l]
		for {
			// prob[s] already holds its final scaled weight.
			alias[s] = int32(l)
			pl = pl + prob[s] - 1
			if pl < 1 {
				// l turns small: it is the next small popped, paired with
				// the next large.
				prob[l] = pl
				s = l
				if l = larges.next(); l < 0 {
					break
				}
				pl = prob[l]
				continue
			}
			if s = smalls.next(); s < 0 {
				break
			}
		}
	}
	// Numerical residue: whichever side is left over — the current
	// entry and everything its cursor has not reached — takes itself.
	if s >= 0 {
		prob[s], alias[s] = 1, int32(s)
		for i := smalls.next(); i >= 0; i = smalls.next() {
			prob[i], alias[i] = 1, int32(i)
		}
	}
	if l >= 0 {
		prob[l], alias[l] = 1, int32(l)
		for i := larges.next(); i >= 0; i = larges.next() {
			prob[i], alias[i] = 1, int32(i)
		}
	}
	return &Alias{prob: prob, alias: alias}
}

// b2u converts a bool to 0 or 1 without a branch.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// bitCursor yields the positions of a bitmap's set bits (flip 0) or
// clear bits (flip all ones) in descending order; tail masks the last
// word's valid bits.
type bitCursor struct {
	words      []uint64
	w          int    // index of the word cur came from
	cur        uint64 // unvisited matching bits of words[w]
	flip, tail uint64
}

// next returns the next position, or -1 when none is left.
func (c *bitCursor) next() int {
	for c.cur == 0 {
		if c.w == 0 {
			return -1
		}
		c.w--
		c.cur = c.words[c.w] ^ c.flip
		if c.w == len(c.words)-1 {
			c.cur &= c.tail
		}
	}
	b := 63 - bits.LeadingZeros64(c.cur)
	c.cur &^= 1 << b
	return c.w<<6 | b
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

// Restricted is an importance-sampling table over a subset of records,
// what stage 2 of Algorithm 5 draws from: the subset's ascending record
// ids, their weights W restricted from a whole-column distribution, the
// left-to-right sum Total of W, and the alias table over W. It is
// immutable once built and safe to share across queries.
type Restricted struct {
	IDs   []int
	W     []float64
	Total float64
	Alias *Alias
}

// Restrict builds the table over ids, ascending record ids into
// weights: W[i] = weights[ids[i]], summed left to right into Total.
// When Total is not positive the draw falls back to uniform over ids:
// every W is 1 and Total is len(ids). It returns nil for empty ids. ids
// is retained and must not be modified.
func Restrict(weights []float64, ids []int) *Restricted {
	if len(ids) == 0 {
		return nil
	}
	w := make([]float64, len(ids))
	total := 0.0
	for i, j := range ids {
		w[i] = weights[j]
		total += w[i]
	}
	if total <= 0 {
		for i := range w {
			w[i] = 1
		}
		total = float64(len(w))
	}
	return &Restricted{IDs: ids, W: w, Total: total, Alias: NewAlias(w)}
}

// DrawInto fills ids with len(ids) record ids drawn with replacement
// from the table, and m with each draw's importance factor
// (1/|IDs|) / (W[l]/Total), where l is the draw's position in IDs. The
// draws consume r exactly as Alias.DrawN(r, len(ids)) does.
func (t *Restricted) DrawInto(r *randx.Rand, ids []int, m []float64) {
	u := 1.0 / float64(len(t.IDs))
	for i := range ids {
		l := t.Alias.Draw(r)
		ids[i] = t.IDs[l]
		m[i] = u / (t.W[l] / t.Total)
	}
}

// weightBlock is the number of records one DefensiveWeights task
// transforms or normalizes: large enough to amortize the dispatch,
// small enough that a million-record column spreads over many workers.
const weightBlock = 64 << 10

// DefensiveWeights builds the sampling distribution of Algorithms 4/5:
// each proxy score is raised to exponent, normalized to sum 1, and mixed
// with the uniform distribution: w = (1-mix)·pow/||pow||₁ + mix·1/n.
// The paper uses exponent 0.5 and mix 0.1. The returned slice sums to 1.
// Scores are clamped at 0 before exponentiation. If every transformed
// score is zero the result is fully uniform.
//
// The per-record transform and the normalize pass run over fixed blocks
// of records on parallel.Run with at most par workers. The normalizing
// sum stays one left-to-right pass, because float addition is not
// associative, so the weights are bit-identical at every par.
func DefensiveWeights(scores []float64, exponent, mix float64, par int) []float64 {
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
	blocks := (n + weightBlock - 1) / weightBlock
	eachBlock := func(fn func(w, scores []float64)) {
		parallel.Run(par, blocks, func(b int) {
			lo := b * weightBlock
			hi := min(lo+weightBlock, n)
			fn(w[lo:hi], scores[lo:hi])
		})
	}
	eachBlock(func(w, scores []float64) {
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
		}
	})
	total := 0.0
	for _, v := range w {
		total += v
	}
	uniform := 1.0 / float64(n)
	if total <= 0 {
		for i := range w {
			w[i] = uniform
		}
		return w
	}
	eachBlock(func(w, _ []float64) {
		for i := range w {
			w[i] = (1-mix)*w[i]/total + mix*uniform
		}
	})
	return w
}
