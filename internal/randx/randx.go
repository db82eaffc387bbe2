// Package randx provides seedable, splittable random number streams used
// throughout the library.
//
// All randomness in supg flows through *randx.Rand so that every
// experiment, test, and benchmark is reproducible from a single uint64
// seed. Streams are backed by the PCG generator from math/rand/v2.
// Derived streams (see Stream) let parallel trials consume
// independent, deterministic randomness without sharing state.
package randx

import (
	"math/rand/v2"
)

// Rand is a deterministic random source. It wraps rand.Rand with
// convenience methods and deterministic stream derivation. It is not
// safe for concurrent use; derive one stream per goroutine with Stream.
//
// The PCG state is embedded rather than boxed so constructing a Rand —
// which query paths do several times per query for stream derivation —
// costs a single allocation. The generator and its consumption are
// exactly rand.New(rand.NewPCG(...)); only the memory layout differs,
// so sequences are unchanged.
type Rand struct {
	src  rand.Rand
	pcg  rand.PCG
	seed uint64
}

// New returns a Rand seeded with seed. Two Rands created with the same
// seed produce identical sequences.
func New(seed uint64) *Rand {
	r := &Rand{seed: seed}
	r.pcg.Seed(seed, mix(seed))
	r.src = *rand.New(&r.pcg)
	return r
}

// mix scrambles a seed with the SplitMix64 finalizer so that nearby
// seeds yield unrelated streams.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream derives an independent deterministic sub-stream identified by
// id. Calling Stream with the same (seed, id) always yields the same
// sequence regardless of how much randomness the parent has consumed.
func (r *Rand) Stream(id uint64) *Rand {
	return New(mix(r.seed ^ mix(id+0x6a09e667f3bcc909)))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// NormFloat64 returns a standard normal variate.
func (r *Rand) NormFloat64() float64 { return r.src.NormFloat64() }

// IntN returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) IntN(n int) int { return r.src.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Shuffle randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}
