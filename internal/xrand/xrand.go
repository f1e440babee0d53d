// Package xrand provides the deterministic random-number substrate used by
// every randomised component in this repository: a seedable xoshiro256++
// generator, exponential variates (the labels of the paper's exponential
// process, §4.1), fast bounded integers, distinct-pair sampling (the
// two-choice rule), and Walker alias tables for biased insertion
// distributions (the γ-bounded π vectors of §3).
//
// The package exists, rather than using math/rand, so that experiments are
// bit-reproducible across runs from an explicit 64-bit seed and so that hot
// concurrent paths can own a private Source with zero synchronisation.
package xrand

import (
	"math"
	"math/bits"
)

// Source is a xoshiro256++ pseudo-random generator. It is NOT safe for
// concurrent use; give each goroutine its own Source (see Sharded).
//
// The zero value is invalid; construct with NewSource.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the seed-expansion state and returns the next value.
// It is the recommended initialiser for xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewSource returns a Source seeded deterministically from seed. Distinct
// seeds yield statistically independent streams.
func NewSource(seed uint64) *Source {
	var s Source
	s.Seed(seed)
	return &s
}

// Seed resets the generator to the deterministic state derived from seed.
func (s *Source) Seed(seed uint64) {
	x := seed
	s.s0 = splitmix64(&x)
	s.s1 = splitmix64(&x)
	s.s2 = splitmix64(&x)
	s.s3 = splitmix64(&x)
	// xoshiro requires a non-zero state; splitmix64 of any seed yields one
	// with overwhelming probability, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
}

// Clone returns an independent Source at the same generator state: the
// clone and the original produce identical streams from here until either
// advances. Tests use this to assert a code path performed zero draws
// (clone before, compare outputs after); it is not for sharing streams
// between goroutines — use Sharded or Tag for that.
func (s *Source) Clone() *Source {
	c := *s
	return &c
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
//
//powervet:hotpath
func (s *Source) Uint64() uint64 {
	result := rotl(s.s0+s.s3, 23) + s.s0
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
//
//powervet:hotpath
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed value with mean 1 (rate 1),
// via inversion. Scale by the desired mean: mean * ExpFloat64().
//
//powervet:hotpath
func (s *Source) ExpFloat64() float64 {
	// 1-Float64() is in (0, 1], so the log is finite.
	return -math.Log(1 - s.Float64())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// It uses Lemire's nearly-divisionless bounded reduction: the common case is
// one generator advance, one widening multiply and one compare, and the
// division that computes the exact rejection threshold -bound % bound runs at
// most once per call (it used to run once per rejection-loop iteration, a
// loop-invariant ~20-cycle DIV recomputed on every retry). The draw sequence
// is bit-identical to the per-iteration version: the accept rule is the same,
// only the threshold's lifetime changed.
//
//powervet:hotpath
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive bound")
	}
	bound := uint64(n)
	hi, lo := mul64(s.Uint64(), bound)
	if lo >= bound {
		return int(hi)
	}
	threshold := -bound % bound
	for lo < threshold {
		hi, lo = mul64(s.Uint64(), bound)
	}
	return int(hi)
}

// mul64 returns the 128-bit product of x and y as (hi, lo). bits.Mul64 is a
// compiler intrinsic — one MUL instruction on amd64/arm64 — where the
// schoolbook 32×32 decomposition it replaced cost four multiplies plus carry
// bookkeeping on every bounded draw.
func mul64(x, y uint64) (hi, lo uint64) {
	return bits.Mul64(x, y)
}

// TwoDistinct returns two distinct uniform indices in [0, n).
// It panics if n < 2.
//
//powervet:hotpath
func (s *Source) TwoDistinct(n int) (int, int) {
	if n < 2 {
		panic("xrand: TwoDistinct needs n >= 2")
	}
	i := s.Intn(n)
	j := s.Intn(n - 1)
	if j >= i {
		j++
	}
	return i, j
}

// maxLaneBound is the largest bound the 32-bit lane-split reductions accept.
// A lane reduction maps a uniform 32-bit word x to (x·n)>>32 without
// rejection, so each index carries a relative bias of at most n/2³² — at the
// cap that is 2⁻¹², far below what any realistic chi-square test resolves,
// and queue counts (the intended bounds) are orders of magnitude smaller
// still. Larger bounds must use the exact rejection draws (Intn,
// TwoDistinct).
const maxLaneBound = 1 << 20

// MaxLaneBound is the largest bound the lane-split draws (TwoBounded32,
// TwoDistinct32) accept; callers with dynamic bounds guard on it before
// taking the single-advance pair draw.
const MaxLaneBound = maxLaneBound

// TwoBounded32 returns two independent (possibly equal) uniform indices in
// [0, n) from a single generator advance: the 64 output bits are split into
// two 32-bit lanes, each reduced by the 32×32 fixed-point product (x·n)>>32.
// xoshiro256++ output words carry no detectable intra-word correlation, so
// the lanes are independent draws for any statistical purpose the repository
// has. It panics if n <= 0 or n > maxLaneBound (see maxLaneBound for the
// bias bound the cap enforces; bounds that large need rejection sampling).
//
//powervet:hotpath
func (s *Source) TwoBounded32(n int) (int, int) {
	if n <= 0 || n > maxLaneBound {
		panic("xrand: TwoBounded32 bound outside (0, maxLaneBound]")
	}
	x := s.Uint64()
	i := int(uint64(uint32(x)) * uint64(n) >> 32)
	j := int((x >> 32) * uint64(n) >> 32)
	return i, j
}

// TwoDistinct32 is the two-choice fast path over TwoBounded32: two distinct
// uniform indices in [0, n) from a single generator advance in the common
// case, re-drawing the whole pair on a collision (probability ≈ 1/n, so the
// expected cost is 1 + 1/(n-1) advances). Conditioning a uniform pair on
// distinctness yields the uniform distribution over ordered distinct pairs —
// the same law TwoDistinct produces with two rejection draws and an index
// shift. It panics if n < 2 or n > maxLaneBound.
//
//powervet:hotpath
func (s *Source) TwoDistinct32(n int) (int, int) {
	if n < 2 {
		panic("xrand: TwoDistinct32 needs n >= 2")
	}
	for {
		i, j := s.TwoBounded32(n)
		if i != j {
			return i, j
		}
	}
}

// CoinThreshold converts a probability p into the 64-bit fixed-point
// threshold Coin compares raw generator bits against: Coin(CoinThreshold(p))
// is true with probability p to within 2⁻⁶⁴. p <= 0 maps to 0 (never true);
// p >= 1 maps to MaxUint64, which is true except on the single all-ones draw
// (probability 2⁻⁶⁴) — callers that need a certain coin should branch on
// p >= 1 at plan-build time instead of drawing at all, as the core draw plan
// does. The threshold is precomputed once, at construction, so
// the per-draw cost is one generator advance and one integer compare — no
// float conversion, unlike Bernoulli's Float64() < p.
func CoinThreshold(p float64) uint64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.MaxUint64
	}
	// p < 1 bounds the product by (1-2⁻⁵³)·2⁶⁴ = 2⁶⁴-2¹¹, exactly
	// representable in a float64 and in range for the uint64 conversion.
	return uint64(p * (1 << 64))
}

// Coin flips an integer coin: true with probability threshold/2⁶⁴. The
// threshold comes from CoinThreshold. Note the provenance difference from
// Bernoulli(p): both advance the generator once per flip, but Bernoulli
// compares 53 float-converted bits while Coin compares all 64 raw bits, so
// the two are NOT bit-compatible — the same stream flipped through Coin and
// through Bernoulli diverges, with identical distribution.
//
//powervet:hotpath
func (s *Source) Coin(threshold uint64) bool {
	return s.Uint64() < threshold
}

// Bernoulli returns true with probability p.
//
//powervet:hotpath
func (s *Source) Bernoulli(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	}
	return s.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n) (Fisher–Yates).
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

// Tag derives a domain-separated seed from a root seed and a textual tag,
// so independent subsystems seeded from one root seed draw from disjoint
// stream families. Without it, two components that both do
// NewSharded(seed).Source(i) — say a benchmark harness's per-worker key
// streams and the internal per-handle streams of the queue under test —
// hand out *identical* generators at overlapping indices, silently
// correlating the workload with the structure's own randomness. Distinct
// tags yield statistically independent seeds; the same (seed, tag) pair is
// stable across runs and platforms.
func Tag(seed uint64, tag string) uint64 {
	// FNV-1a over the tag bytes folded into the seed, then finalised with
	// splitmix64 so even single-character tag differences avalanche.
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(tag); i++ {
		h = (h ^ uint64(tag[i])) * fnvPrime
	}
	x := seed ^ h
	return splitmix64(&x)
}

// Sharded hands out independent Sources derived from a master seed, one per
// worker. It is used to give each goroutine in a benchmark or concurrent
// data structure its own private generator.
type Sharded struct {
	seed uint64
}

// NewSharded returns a Sharded stream family rooted at seed.
func NewSharded(seed uint64) *Sharded {
	return &Sharded{seed: seed}
}

// Source returns the Source for shard i. The same (seed, i) pair always
// yields the same stream.
func (sh *Sharded) Source(i int) *Source {
	// Mix the shard index through splitmix so adjacent shards decorrelate.
	x := sh.seed ^ (0x9e3779b97f4a7c15 * (uint64(i) + 1))
	return NewSource(splitmix64(&x))
}
