// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the repository.
//
// All experiments in this repository are seeded: given the same seed they
// produce bit-identical results, which is essential for reproducing the
// paper's figures and for writing meaningful regression tests. The
// generator is xoshiro256** (Blackman & Vigna), seeded through splitmix64,
// the standard recommendation for initializing xoshiro state.
//
// The package intentionally mirrors a subset of math/rand's API so call
// sites read naturally, but adds Split, which derives an independent child
// stream — the mechanism by which concurrent workers obtain private
// generators without locking.
package rng

import (
	"math"
	"math/bits"
)

// splitmix64 advances a 64-bit state and returns the next output. It is
// used both to seed xoshiro and to implement Split.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic xoshiro256** generator. It is NOT safe for
// concurrent use; use Split to derive per-goroutine generators.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed. Any seed value,
// including zero, yields a well-mixed nonzero state.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	return r
}

// Split derives a child generator whose stream is independent of the
// parent's future output for all practical purposes. The parent advances
// by four draws.
func (r *Rand) Split() *Rand {
	c := &Rand{}
	for i := range c.s {
		sm := r.Uint64()
		c.s[i] = splitmix64(&sm)
	}
	// Guard against the (astronomically unlikely) all-zero state, which
	// is the single fixed point of xoshiro.
	if c.s[0]|c.s[1]|c.s[2]|c.s[3] == 0 {
		c.s[0] = 0x9e3779b97f4a7c15
	}
	return c
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Int63 returns a non-negative int64.
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift rejection method, which is unbiased.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), bound)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *Rand) Bool() bool {
	return r.Uint64()&1 == 1
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// PermPrefix returns a uniformly random ordered sample of m distinct
// values from [0, n) — the length-m prefix of a random permutation, as
// used by the paper's scheduler model. It runs in O(m) time and O(m)
// extra space using a sparse partial Fisher–Yates shuffle.
func (r *Rand) PermPrefix(n, m int) []int {
	if m > n {
		panic("rng: PermPrefix with m > n")
	}
	if m < 0 {
		panic("rng: PermPrefix with negative m")
	}
	// displaced maps indices whose "virtual array" value differs from
	// the identity; only O(m) entries are ever created.
	displaced := make(map[int]int, m)
	out := make([]int, m)
	for i := 0; i < m; i++ {
		j := i + r.Intn(n-i)
		vj, ok := displaced[j]
		if !ok {
			vj = j
		}
		vi, ok := displaced[i]
		if !ok {
			vi = i
		}
		out[i] = vj
		displaced[j] = vi
	}
	return out
}
