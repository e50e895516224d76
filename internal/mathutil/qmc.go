package mathutil

// Quasi-Monte Carlo: a Halton low-discrepancy sequence with a
// Cranley–Patterson random rotation. Halton is chosen over Sobol because
// it is constructible from first principles (no direction-number tables
// to get subtly wrong); the rotation both randomises the estimator (so
// confidence intervals exist across independent rotations) and breaks the
// notorious correlation between high-dimensional Halton coordinates.

// haltonPrimes are the bases of the first 64 coordinates.
var haltonPrimes = [64]uint64{
	2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
	59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
	137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
	227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311,
}

// MaxHaltonDim is the largest supported dimension.
const MaxHaltonDim = len(haltonPrimes)

// Halton generates rotated Halton points in [0,1)^dim.
type Halton struct {
	dim    int
	index  uint64
	stride uint64
	shift  []float64
}

// NewHalton returns a generator of the given dimension whose rotation is
// drawn deterministically from seed. It panics if dim is out of range.
func NewHalton(dim int, seed uint64) *Halton {
	if dim < 1 || dim > MaxHaltonDim {
		panic("mathutil: Halton dimension out of range")
	}
	rng := NewRNG(seed)
	shift := make([]float64, dim)
	for i := range shift {
		shift[i] = rng.Float64()
	}
	// Skip the first point (all zeros before rotation) by starting at 1;
	// low indices of Halton are its worst-distributed region anyway.
	return &Halton{dim: dim, index: 1, stride: 1, shift: shift}
}

// NewHaltonLeap returns a leapfrogged generator: the same rotation as
// NewHalton(dim, seed), but emitting only the points with sequence index
// start, start+stride, start+2·stride, …. The generators with starts
// 1..stride (for a common seed and stride) partition NewHalton's sequence
// exactly, so sharded consumers draw from the same point set as a serial
// one — this is how the QMC pricer splits work across kernel shards
// without changing its estimate's support. It panics if stride is zero or
// dim is out of range.
func NewHaltonLeap(dim int, seed uint64, start, stride uint64) *Halton {
	if stride < 1 {
		panic("mathutil: Halton stride must be >= 1")
	}
	h := NewHalton(dim, seed)
	h.index = start
	h.stride = stride
	return h
}

// Next writes the next point into dst (length >= dim). Coordinates lie in
// (0,1) after the rotation, so they can feed InvNormCDFBatch directly.
func (h *Halton) Next(dst []float64) {
	if len(dst) < h.dim {
		panic("mathutil: Halton destination too short")
	}
	for d := 0; d < h.dim; d++ {
		v := radicalInverse(h.index, haltonPrimes[d]) + h.shift[d]
		if v >= 1 {
			v -= 1
		}
		// Guard the open interval for inverse-CDF consumers.
		if v <= 0 {
			v = 0.5 / (1 << 30)
		}
		dst[d] = v
	}
	h.index += h.stride
}

// radicalInverse reflects the base-b digits of n around the radix point.
func radicalInverse(n, b uint64) float64 {
	inv := 1.0 / float64(b)
	f := inv
	r := 0.0
	for n > 0 {
		r += float64(n%b) * f
		n /= b
		f *= inv
	}
	return r
}
