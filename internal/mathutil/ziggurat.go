package mathutil

import "math"

// The normal ziggurat of Marsaglia and Tsang ("The Ziggurat Method for
// Generating Random Variables", J. Stat. Software 5(8), 2000): the area
// under f(x) = exp(-x²/2), x ≥ 0, is covered by 256 layers of equal area
// zigV. Layer i ≥ 1 is the rectangle [0, zigX[i]] × [f(zigX[i]),
// f(zigX[i+1])]; the base layer 0 is [0, zigR] × [0, f(zigR)] plus the
// tail past zigR, drawn as a rectangle of pseudo-width zigX[0] =
// zigV/f(zigR). A uniform point in a uniformly chosen layer i lies nearer
// the axis than zigX[i+1], and so under the curve without evaluating f,
// in 98.5 % of attempts; 0.7 % of attempts are rejected.
const zigR = 3.6541528853610088 // right edge of the base rectangle

// The tables are built once from zigR; NormVec reads them without
// allocating.
var (
	// zigV is the area of every layer, the base's R·f(R) plus the tail
	// past R. Marsaglia and Tsang print it to 12 digits, 4.92867323399e-3;
	// computed from R to full precision, it closes the top layer onto the
	// peak to 1e-15 where the printed value misses by 5e-12.
	zigV float64
	// zigX[i] is layer i's right edge: zigX[0] the base's pseudo-width,
	// zigX[1] = zigR, down to zigX[256] = 0 at the peak.
	zigX [257]float64
	// zigF[i] = f(zigX[i]).
	zigF [257]float64
	// zigW[i] = zigX[i]/2⁵² maps a signed 53-bit integer across layer i.
	zigW [256]float64
	// zigK[i] = zigX[i+1]: a point of layer i nearer the axis than this
	// lies under the curve.
	zigK [256]float64
)

func init() {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	zigV = zigR*f(zigR) + math.Sqrt(math.Pi/2)*math.Erfc(zigR/math.Sqrt2)
	zigX[0] = zigV / f(zigR)
	zigX[1] = zigR
	for i := 1; i < 255; i++ {
		// Layer i has area zigV: zigX[i]·(f(zigX[i+1]) − f(zigX[i])).
		zigX[i+1] = math.Sqrt(-2 * math.Log(zigV/zigX[i]+f(zigX[i])))
	}
	zigX[256] = 0
	for i := range zigF {
		zigF[i] = f(zigX[i])
	}
	for i := range zigW {
		zigW[i] = zigX[i] / (1 << 52)
		zigK[i] = zigX[i+1]
	}
}

// NormVec fills dst with independent standard normal variates from the
// ziggurat. Each attempt takes one Uint64: its low 8 bits pick the layer
// and its top 53 bits, read as a signed integer, give a point symmetric
// about zero across it, so the two never share a bit. It does not touch
// the variate Norm caches: the two are separate samplers of one stream.
func (r *RNG) NormVec(dst []float64) {
	for i := range dst {
		for {
			u := r.Uint64()
			l := u & 0xff
			x := (float64(int64(u)>>11) + 0.5) * zigW[l]
			if math.Abs(x) < zigK[l] {
				dst[i] = x
				break
			}
			if x, ok := r.zigEdge(int(l), x); ok {
				dst[i] = x
				break
			}
		}
	}
}

// zigEdge settles an attempt at x in layer l that fell outside the
// layer's inner rectangle. In the base layer that is the tail past zigR,
// sampled by Marsaglia's exponential rejection on the side of x's sign;
// in any other layer x is accepted when a uniform height in the layer
// falls under the curve, and otherwise the caller draws again.
func (r *RNG) zigEdge(l int, x float64) (float64, bool) {
	if l == 0 {
		for {
			a := -math.Log(r.Float64Open()) / zigR
			b := -math.Log(r.Float64Open())
			if b+b > a*a {
				return math.Copysign(zigR+a, x), true
			}
		}
	}
	y := zigF[l] + r.Float64()*(zigF[l+1]-zigF[l])
	return x, y < math.Exp(-0.5*x*x)
}
