package mathutil

import (
	"math"
	"math/bits"
)

// pcgMult is the multiplier of the 128-bit linear congruential step used by
// PCG64 (PCG XSL RR 128/64), from O'Neill's reference implementation.
const (
	pcgMultHi = 2549297995355413924
	pcgMultLo = 4865540595714422341
	pcgIncHi  = 6364136223846793005
	pcgIncLo  = 1442695040888963407
)

// RNG is a deterministic PCG64 (XSL RR 128/64) pseudo random number
// generator. The zero value is not valid; construct one with NewRNG.
//
// RNG is deliberately not safe for concurrent use: each worker goroutine in
// the pricers owns its own stream, derived with Split so that parallel runs
// remain reproducible regardless of scheduling.
type RNG struct {
	stateHi, stateLo uint64
	// cached Gaussian variate for the polar method.
	gauss    float64
	hasGauss bool
}

// NewRNG returns a generator seeded from the given value. Two generators
// with the same seed produce identical streams on every platform.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets r to exactly the state NewRNG(seed) would construct,
// reusing the allocation — the tool for arenas that keep one RNG per
// shard alive across kernel runs.
func (r *RNG) Reseed(seed uint64) {
	r.stateHi, r.stateLo = 0, 0
	r.gauss, r.hasGauss = 0, false
	r.step()
	r.stateLo += seed
	r.stateHi += splitmix64(seed + 0x9e3779b97f4a7c15)
	r.step()
}

// splitmix64 is used to spread user seeds over the 128-bit PCG state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// step advances the 128-bit LCG state.
func (r *RNG) step() {
	// 128-bit multiply of state by pcgMult, plus increment.
	hi, lo := mul128(r.stateHi, r.stateLo, pcgMultHi, pcgMultLo)
	lo, carry := bits.Add64(lo, pcgIncLo, 0)
	r.stateHi, r.stateLo = hi+pcgIncHi+carry, lo
}

// mul128 returns the low 128 bits of (aHi:aLo)*(bHi:bLo).
func mul128(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(aLo, bLo)
	hi += aHi*bLo + aLo*bHi
	return hi, lo
}

// Uint64 returns the next value of the stream.
func (r *RNG) Uint64() uint64 {
	r.step()
	// XSL RR output function: xor-fold the state and rotate right by its
	// top six bits.
	return bits.RotateLeft64(r.stateHi^r.stateLo, -int(r.stateHi>>58))
}

// Float64 returns a uniform variate in [0,1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform variate in the open interval (0,1),
// suitable as an argument to InvNormCDF.
func (r *RNG) Float64Open() float64 {
	for {
		u := (float64(r.Uint64()>>11) + 0.5) / (1 << 53)
		if u > 0 && u < 1 {
			return u
		}
	}
}

// Intn returns a uniform variate in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathutil: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// Norm returns a standard normal variate using the Marsaglia polar method
// with one-variate caching. It stays polar while NormVec is a ziggurat so
// that the scalar callers — portfolio generation, VaR scenarios and the
// path-at-a-time pricers — keep the streams their books, scenario sets
// and pinned results were drawn from.
func (r *RNG) Norm() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// Split returns a new generator whose stream is decorrelated from r's,
// derived deterministically from r's state and the index i. It is the tool
// for giving each Monte Carlo worker its own reproducible stream. Split
// only reads r, so concurrent Split calls on a shared base generator are
// safe as long as no goroutine advances it.
func (r *RNG) Split(i uint64) *RNG {
	dst := &RNG{}
	r.SplitInto(dst, i)
	return dst
}

// SplitInto reseeds dst to the stream Split(i) would return, without
// allocating. dst must not be in concurrent use.
func (r *RNG) SplitInto(dst *RNG, i uint64) {
	dst.Reseed(splitmix64(r.stateLo^splitmix64(i)) + splitmix64(r.stateHi+i))
}
