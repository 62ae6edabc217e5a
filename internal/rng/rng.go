// Package rng provides a small, deterministic pseudo-random number
// generator with cheap stream splitting.
//
// Every experiment in this repository must be exactly reproducible from a
// single run seed: the paper averages each data point across 9 runs with
// 95% confidence intervals, and regenerating a figure must not depend on
// global state or map iteration order. math/rand's global source is
// therefore never used; instead each component (topology generator, per-node
// sampler, loss model, ...) derives its own independent stream from the run
// seed via Split, so adding a consumer never perturbs the draws seen by
// another.
//
// The core generator is SplitMix64 (Steele, Lea & Flood 2014), which is
// statistically strong for simulation purposes, allocation free, and — being
// a pure 64-bit permutation of a counter — trivially splittable.
package rng

import "math"

// golden is the 64-bit golden ratio increment used by SplitMix64.
const golden = 0x9E3779B97F4A7C15

// Source is a deterministic SplitMix64 generator. The zero value is a valid
// generator seeded with 0; use New or Split for independent streams.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives an independent child stream keyed by label. Two children of
// the same parent with different labels produce uncorrelated sequences, and
// the parent's own sequence is not advanced.
func (s *Source) Split(label uint64) *Source {
	// Mix the label through one SplitMix64 round so adjacent labels
	// (0, 1, 2, ...) land far apart in state space.
	z := s.state + golden + mix(label)
	return &Source{state: mix(z)}
}

// mix is the SplitMix64 output permutation.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits, the standard conversion.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1,
// via inversion. Used for the spatially skewed attribute x (Table 1).
func (s *Source) ExpFloat64() float64 {
	u := s.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -math.Log(u)
}

// NormFloat64 returns a standard normal variate using the polar
// Box-Muller method. Used by the synthetic humidity process.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n) as a slice
// (Fisher-Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
