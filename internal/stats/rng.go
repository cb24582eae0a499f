// Package stats provides the statistical substrate for ISLA: deterministic
// random number generation, probability distributions, streaming moments,
// normal-quantile computation, confidence intervals and histograms.
//
// Everything is implemented on the Go standard library only, so the module
// builds offline. All randomness flows through the RNG type, which is
// deterministic given a seed; every experiment in the benchmark harness is
// therefore exactly reproducible.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift128+ with a splitmix64 seeding stage). It is NOT safe for
// concurrent use; derive per-goroutine generators with Split.
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns a generator seeded from seed. Any seed (including 0) is
// valid; the splitmix64 stage guarantees a non-degenerate internal state.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the deterministic state derived from seed.
func (r *RNG) Seed(seed uint64) {
	// splitmix64: recommended seeding procedure for xorshift generators.
	next := func() uint64 {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	if r.s0 == 0 && r.s1 == 0 { // cannot happen with splitmix64, but be safe
		r.s1 = 1
	}
}

// RNGState is a snapshot of a generator's internal state, suitable for
// caching: restoring it resumes the exact stream the generator would have
// produced. The zero value is degenerate; only states captured with
// (*RNG).State are meaningful.
type RNGState struct {
	S0, S1 uint64
}

// State captures the generator's current state for later restoration.
func (r *RNG) State() RNGState { return RNGState{S0: r.s0, S1: r.s1} }

// RNG returns a fresh generator resumed from the snapshot. A degenerate
// all-zero snapshot is coerced to a valid state, mirroring Seed.
func (st RNGState) RNG() *RNG {
	if st.S0 == 0 && st.S1 == 0 {
		st.S1 = 1
	}
	return &RNG{s0: st.S0, s1: st.S1}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Split returns a new generator whose stream is statistically independent
// of the receiver's. It advances the receiver.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniform value in [0, n) for int64 n. It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n with non-positive n")
	}
	return int64(r.Uint64n(uint64(n)))
}

// FillInt63n fills dst with uniform values in [0, n) — the bulk form of
// Int63n behind the batched sampling fast path. It draws from the same
// stream as len(dst) sequential Int63n calls, so scalar and batched
// consumers are interchangeable without changing results; the win is that
// the generator state lives in registers for the whole batch instead of
// round-tripping through the heap once per draw. It panics if n <= 0.
func (r *RNG) FillInt63n(dst []int64, n int64) {
	if n <= 0 {
		panic("stats: FillInt63n with non-positive n")
	}
	s0, s1 := r.s0, r.s1
	un := uint64(n)
	thresh := -un % un // (2^64 - n) mod n, the Lemire rejection threshold
	for i := range dst {
		for {
			x, y := s0, s1
			s0 = y
			x ^= x << 23
			x ^= x >> 17
			x ^= y ^ (y >> 26)
			s1 = x
			v := x + y
			hi, lo := bits.Mul64(v, un)
			if lo >= un || lo >= thresh {
				dst[i] = int64(hi)
				break
			}
		}
	}
	r.s0, r.s1 = s0, s1
}

// SkipInt63n advances the generator exactly as count Int63n(n) draws would
// and discards the values. How far a draw advances the stream depends only
// on n (through the rejection test), never on what the indices are used
// for, so a coordinator can predict the state a remote block's draw starts
// and ends at without the data. It panics if n <= 0.
func (r *RNG) SkipInt63n(count, n int64) {
	if n <= 0 {
		panic("stats: SkipInt63n with non-positive n")
	}
	s0, s1 := r.s0, r.s1
	un := uint64(n)
	thresh := -un % un
	for ; count > 0; count-- {
		for {
			x, y := s0, s1
			s0 = y
			x ^= x << 23
			x ^= x >> 17
			x ^= y ^ (y >> 26)
			s1 = x
			// Only the low word of the 128-bit product decides rejection.
			if lo := (x + y) * un; lo >= un || lo >= thresh {
				break
			}
		}
	}
	r.s0, r.s1 = s0, s1
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method, which avoids modulo bias.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= n || lo >= -n%n { // -n%n == (2^64 - n) mod n
			return hi
		}
	}
}

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method with a cached spare discarded (stateless variant keeps the RNG
// struct trivially copyable and mergeable).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an Exp(1) variate by inversion.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes xs in place (Fisher–Yates).
func (r *RNG) Shuffle(xs []float64) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
