package index

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

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
// table, both immutable once published in the cache, and memoizes the
// stage-2 tables restricted from the weights (Restriction).
type mixture struct {
	weights []float64
	alias   *sampling.Alias

	// cuts holds the memoized stage-2 tables by the bits of their cut,
	// and cutIDs the sum of their lengths. Both are guarded by the
	// index's mu, and only a mixture published in the cache fills them.
	cuts   map[uint64]*sampling.Restricted
	cutIDs int
}

// mixtureBuilds counts mixture builds process-wide, so restart
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

// maxCachedMixtures bounds the per-index mixture cache, and each cached
// mixture's memo of stage-2 tables. A mixture holds O(n) weights plus an
// O(n) alias table, ~20 B per record, so an unbounded cache keyed by
// caller-supplied floats would let a parameter-sweeping workload accrete
// multi-MB entries for the life of the table. Real serving workloads use
// one or two (exponent, mix) configurations; past the bound, mixtures
// are built per call and not retained. A mixture's stage-2 tables
// (Restriction) cost ~28 B per id and are bounded twice: at most
// maxCachedMixtures of them, whose ids total at most the index's length,
// so the memo never outgrows ~28 B per record beside the mixture's own
// ~20 B.
const maxCachedMixtures = 8

// restrictionBuilds counts stage-2 table builds process-wide, so tests
// can tell a Restriction memo hit from a build.
var restrictionBuilds atomic.Int64

// RestrictionBuildsTotal reports how many stage-2 sampling tables
// (Restriction) this process has built across all indexes.
func RestrictionBuildsTotal() int64 { return restrictionBuilds.Load() }

// Mixture returns the defensive-mixture weights and alias table for
// the given exponent/mix, building them with sampling.DefensiveWeights
// at Options.Parallelism and caching them on first use (up to
// maxCachedMixtures distinct keys). A recovered index adopts a
// stored mixture for the key instead of building it (see
// StoredMixture). A cached mixture also memoizes the stage-2 tables
// Restriction restricts it to; one served uncached keeps none. The
// returned slices/tables are shared and must be treated as read-only.
// Concurrent callers may race to build the same entry; the loser's copy
// is discarded, so every caller observes one canonical value and draws
// are deterministic for a deterministic random stream.
func (ix *ScoreIndex) Mixture(exponent, mix float64) ([]float64, *sampling.Alias) {
	m, _ := ix.mixtureEntry(exponent, mix)
	return m.weights, m.alias
}

// mixtureEntry returns the mixture for the key, building it when the
// index holds none, and whether it is the one published in the cache.
func (ix *ScoreIndex) mixtureEntry(exponent, mix float64) (*mixture, bool) {
	key := MixtureKey{Exponent: exponent, Mix: mix}
	if m, cached := ix.heldMixture(key); m != nil {
		return m, cached
	}
	mixtureBuilds.Add(1)
	w := sampling.DefensiveWeights(ix.scores, exponent, mix, ix.par)
	return ix.publish(key, &mixture{weights: w, alias: sampling.NewAlias(w)})
}

// heldMixture returns the mixture the index holds for key without
// building one: the cached one, or a stored one it adopts (see
// StoredMixture), and whether it is the one published in the cache. It
// is nil when the index holds none.
func (ix *ScoreIndex) heldMixture(key MixtureKey) (*mixture, bool) {
	ix.mu.RLock()
	m, sm := ix.mixtures[key], ix.stored[key]
	ix.mu.RUnlock()
	if m != nil {
		return m, true
	}
	if sm == nil {
		return nil, false
	}
	if m = sm.adopt(len(ix.scores)); m == nil {
		return nil, false
	}
	return ix.publish(key, m)
}

// publish caches m under key unless another caller won the race (its
// mixture is returned instead) or the cache is full (m is served
// uncached: identical draws).
func (ix *ScoreIndex) publish(key MixtureKey, m *mixture) (*mixture, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	switch {
	case ix.mixtures[key] != nil:
		return ix.mixtures[key], true
	case len(ix.mixtures) < maxCachedMixtures:
		ix.mixtures[key] = m
		return m, true
	}
	return m, false
}

// Restriction returns the stage-2 sampling table of Algorithm 5 over
// D′ = {x : A(x) >= tau}: sampling.Restrict of the (exponent, mix)
// mixture's weights over AppendAtLeast(tau), or nil when D′ is empty.
// It uses only a mixture the index already holds, cached or adopted
// from storage, and builds none: when the index holds no mixture for
// the key (a full cache served it uncached), Restriction reports false,
// and the caller restricts the weights it already has, which gives the
// identical table. The table is a pure function of the index, the key
// and tau, so a cached mixture memoizes it by tau's bits, within the
// bounds maxCachedMixtures describes. Past either bound, and for an
// adopted mixture the cache had no room for, the table is built per
// call and not kept; a table is never persisted, and an appended or
// recovered index starts with an empty memo. Concurrent callers may
// race to build the same table; the loser's copy is discarded, so
// every caller observes one canonical table. The table is shared and
// must be treated as read-only.
func (ix *ScoreIndex) Restriction(exponent, mix, tau float64) (*sampling.Restricted, bool) {
	m, cached := ix.heldMixture(MixtureKey{Exponent: exponent, Mix: mix})
	if m == nil {
		return nil, false
	}
	key := math.Float64bits(tau)
	if cached {
		ix.mu.RLock()
		t := m.cuts[key]
		ix.mu.RUnlock()
		if t != nil {
			return t, true
		}
	}
	k := ix.CountAtLeast(tau)
	if k == 0 {
		return nil, true
	}
	restrictionBuilds.Add(1)
	t := sampling.Restrict(m.weights, ix.AppendAtLeast(make([]int, 0, k), tau))
	if !cached {
		return t, true
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if won := m.cuts[key]; won != nil {
		return won, true
	}
	if len(m.cuts) < maxCachedMixtures && m.cutIDs+k <= len(ix.scores) {
		if m.cuts == nil {
			m.cuts = make(map[uint64]*sampling.Restricted)
		}
		m.cuts[key] = t
		m.cutIDs += k
	}
	return t, true
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
