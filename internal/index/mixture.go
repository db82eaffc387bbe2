package index

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"supg/internal/parallel"
	"supg/internal/sampling"
)

// MixtureKey identifies a cached defensive-mixture sampling
// distribution: the importance-weight exponent applied to proxy scores
// and the uniform mixing ratio (Algorithms 4/5 use 0.5 and 0.1).
type MixtureKey struct {
	Exponent float64
	Mix      float64
}

// mixture pairs the normalized defensive weights with their alias
// table. Both are immutable once published in the cache.
type mixture struct {
	weights []float64
	alias   *sampling.Alias
}

// mixtureBuilds counts buildMixture calls process-wide, so restart
// tests (and operators) can assert that a recovered index served its
// first query from a persisted mixture instead of rebuilding it.
var mixtureBuilds atomic.Int64

// MixtureBuildsTotal reports how many defensive mixtures (weights plus
// alias table) this process has built across all indexes.
func MixtureBuildsTotal() int64 { return mixtureBuilds.Load() }

// MixtureTables is the persistable form of one cached mixture: the
// normalized weights and the alias table's probabilities and aliases,
// all n long. The slices are shared with the index and read-only.
type MixtureTables struct {
	Key     MixtureKey
	Weights []float64
	Prob    []float64
	Alias   []int32
}

// StoredMixture is a persisted mixture an index adopts lazily: Load
// runs at most once, on the first query that asks for Key, and returns
// the verified weights and alias table. A Load error (or tables of the
// wrong length) makes the index rebuild the mixture from its column,
// which yields the same draws — so a stored mixture no query asks for
// is never read, and a damaged one costs only the rebuild.
type StoredMixture struct {
	Key  MixtureKey
	Load func() ([]float64, *sampling.Alias, error)
}

// storedMixture memoizes one StoredMixture's adoption.
type storedMixture struct {
	once sync.Once
	load func() ([]float64, *sampling.Alias, error)
	m    *mixture // nil until adopted, or after a failed load
}

// adopt loads the stored tables once; concurrent first callers wait
// for the one load and share its result.
func (sm *storedMixture) adopt(n int) *mixture {
	sm.once.Do(func() {
		w, a, err := sm.load()
		if err == nil && len(w) == n && a != nil && a.Len() == n {
			sm.m = &mixture{weights: w, alias: a}
		}
		sm.load = nil
	})
	return sm.m
}

// maxCachedMixtures bounds the per-index mixture cache. Each entry
// holds O(n) weights plus an O(n) alias table, so an unbounded cache
// keyed by caller-supplied floats would let a parameter-sweeping
// workload accrete multi-MB entries for the life of the table. Real
// serving workloads use one or two (exponent, mix) configurations;
// past the bound, mixtures are built per call and not retained.
const maxCachedMixtures = 8

// Mixture returns the defensive-mixture weights and alias table for
// the given exponent/mix, building and caching them on first use (up
// to maxCachedMixtures distinct keys). A recovered index adopts a
// stored mixture for the key instead of building it (see
// StoredMixture). The returned slices/tables are shared and must be
// treated as read-only. Concurrent callers may race to build the same
// entry; the loser's copy is discarded, so every caller observes one
// canonical value and draws are deterministic for a deterministic
// random stream.
func (ix *ScoreIndex) Mixture(exponent, mix float64) ([]float64, *sampling.Alias) {
	m := ix.mixtureEntry(exponent, mix)
	return m.weights, m.alias
}

// MixtureSegmentCumulative returns, for the given mixture
// configuration, the cumulative sampling mass of segments 0..i at each
// position i (the last entry is the total mass, 1 up to float
// rounding). This is the per-segment view of the sampling
// distribution: entry i - entry i-1 is the probability one weighted
// draw lands in segment i. It is an observability call, computed on
// demand from the cached weights (O(n)) rather than stored, so the
// query hot path never pays for it.
func (ix *ScoreIndex) MixtureSegmentCumulative(exponent, mix float64) []float64 {
	w := ix.mixtureEntry(exponent, mix).weights
	segCum := make([]float64, len(ix.segs))
	cum := 0.0
	for j, s := range ix.segs {
		for i := range s.scores {
			cum += w[s.base+i]
		}
		segCum[j] = cum
	}
	return segCum
}

func (ix *ScoreIndex) mixtureEntry(exponent, mix float64) *mixture {
	key := MixtureKey{Exponent: exponent, Mix: mix}
	ix.mu.RLock()
	m, sm := ix.mixtures[key], ix.stored[key]
	ix.mu.RUnlock()
	if m != nil {
		return m
	}
	if sm != nil {
		m = sm.adopt(len(ix.scores))
	}
	if m == nil {
		m = ix.buildMixture(exponent, mix)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	switch {
	case ix.mixtures[key] != nil:
		return ix.mixtures[key]
	case len(ix.mixtures) < maxCachedMixtures:
		ix.mixtures[key] = m
	}
	return m // cache full: serve uncached, identical draws
}

// buildMixture computes the defensive-mixture weights and their alias
// table. The per-element transform runs in parallel across segments,
// but every operation and the left-to-right summation order match
// sampling.DefensiveWeights exactly, so the weight vector — and hence
// the alias table and every draw made from it — is bit-for-bit the one
// a monolithic index computes (TestMixtureMatchesDefensiveWeights
// pins this).
func (ix *ScoreIndex) buildMixture(exponent, mix float64) *mixture {
	mixtureBuilds.Add(1)
	n := len(ix.scores)
	if mix < 0 {
		mix = 0
	}
	if mix > 1 {
		mix = 1
	}
	w := make([]float64, n)
	ix.eachSegmentParallel(func(s *segment) {
		for i, sc := range s.scores {
			if sc < 0 {
				sc = 0
			}
			var v float64
			switch {
			case exponent == 0:
				v = 1
			case exponent == 1:
				v = sc
			case exponent == 0.5:
				v = math.Sqrt(sc)
			default:
				v = math.Pow(sc, exponent)
			}
			w[s.base+i] = v
		}
	})
	// Global left-to-right reduction: float addition is not
	// associative, so per-segment partial sums would drift from the
	// monolithic total by rounding and break bit-exact equivalence.
	total := 0.0
	for _, v := range w {
		total += v
	}
	uniform := 1.0 / float64(n)
	if total <= 0 {
		for i := range w {
			w[i] = uniform
		}
	} else {
		ix.eachSegmentParallel(func(s *segment) {
			for i := range s.scores {
				j := s.base + i
				w[j] = (1-mix)*w[j]/total + mix*uniform
			}
		})
	}
	return &mixture{weights: w, alias: sampling.NewAlias(w)}
}

// eachSegmentParallel runs fn over every segment across up to
// Options.Parallelism goroutines. fn must only write state disjoint
// between segments.
func (ix *ScoreIndex) eachSegmentParallel(fn func(*segment)) {
	parallel.Run(ix.par, len(ix.segs), func(j int) { fn(ix.segs[j]) })
}

// CachedMixtures reports how many (exponent, mix) entries the cache
// holds — observability for tests and metrics.
func (ix *ScoreIndex) CachedMixtures() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.mixtures)
}

// CachedMixtureTables returns every cached mixture in persistable form,
// ordered by (Exponent, Mix) — what a checkpoint writes so a restarted
// process can adopt the tables instead of rebuilding them.
func (ix *ScoreIndex) CachedMixtureTables() []MixtureTables {
	ix.mu.RLock()
	out := make([]MixtureTables, 0, len(ix.mixtures))
	for k, m := range ix.mixtures { //supg:nondeterminism-ok collected then sorted by key below
		prob, alias := m.alias.Tables()
		out = append(out, MixtureTables{Key: k, Weights: m.weights, Prob: prob, Alias: alias})
	}
	ix.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Exponent != b.Exponent {
			return a.Exponent < b.Exponent
		}
		return a.Mix < b.Mix
	})
	return out
}

// storedMixtures indexes StoredMixture loaders by key for FromExternal.
func storedMixtures(list []StoredMixture) map[MixtureKey]*storedMixture {
	if len(list) == 0 {
		return nil
	}
	out := make(map[MixtureKey]*storedMixture, len(list))
	for _, sm := range list {
		out[sm.Key] = &storedMixture{load: sm.Load}
	}
	return out
}
