package mathutil

import "math"

// invSqrt2Pi is 1/sqrt(2*pi).
const invSqrt2Pi = 0.3989422804014326779399460599343818684758586311649346576659258296

// NormPDF returns the standard normal density at x.
func NormPDF(x float64) float64 {
	return invSqrt2Pi * math.Exp(-0.5*x*x)
}

// NormCDF returns the standard normal cumulative distribution function at
// x, computed from the complementary error function for accuracy in both
// tails.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// Acklam's rational approximation coefficients for the inverse normal CDF.
var (
	acklamA = [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	acklamB = [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	acklamC = [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	acklamD = [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
)

// minNormalFloat is the smallest positive normal float64. For normal p
// the Acklam estimate satisfies |x| ≤ 37.7, where the Halley step's
// Exp(x*x/2) is still finite (Exp overflows at ~709.78); subnormal p
// lies outside the fitted range and takes the reseeded tail branch of
// invNormRefine instead.
const minNormalFloat = 2.2250738585072014e-308

// invNormAcklam is the raw Acklam rational approximation over (0,1),
// before refinement.
func invNormAcklam(p float64) float64 {
	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((acklamC[0]*q+acklamC[1])*q+acklamC[2])*q+acklamC[3])*q+acklamC[4])*q + acklamC[5]) /
			((((acklamD[0]*q+acklamD[1])*q+acklamD[2])*q+acklamD[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((acklamA[0]*r+acklamA[1])*r+acklamA[2])*r+acklamA[3])*r+acklamA[4])*r + acklamA[5]) * q /
			(((((acklamB[0]*r+acklamB[1])*r+acklamB[2])*r+acklamB[3])*r+acklamB[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((acklamC[0]*q+acklamC[1])*q+acklamC[2])*q+acklamC[3])*q+acklamC[4])*q + acklamC[5]) /
			((((acklamD[0]*q+acklamD[1])*q+acklamD[2])*q+acklamD[3])*q + 1)
	}
}

// invNormRefine applies one Halley step to the raw estimate x, pushing the
// ~1e-9 raw accuracy to ~1e-15. In the extreme tails Exp(x*x/2) overflows
// to +Inf and the correction would be Inf/-Inf = NaN; there the step is
// reformulated as a division by the density, which stays nonzero a full
// unit deeper into the tail (|x| ≈ 38.6, past the quantile of the
// smallest subnormal), and iterated, because the raw estimate is
// extrapolated outside Acklam's fitted range and needs more than one
// correction to land.
func invNormRefine(x, p float64) float64 {
	if p < minNormalFloat {
		// Subnormal p: math.Log mis-reads subnormal arguments (returning
		// the min-normal log, which also saturates the raw Acklam branch
		// down here), and the standard Halley form would overflow in
		// Exp(x*x/2). Take the log after an exact power-of-two rescale,
		// reseed from the standard tail asymptotic
		// x ≈ -sqrt(-2 ln p - ln(2π·(-2 ln p))), then polish with
		// density-quotient Halley steps, which stay finite for every
		// representable p.
		u0 := -2 * (math.Log(p*0x1p110) - 110*math.Ln2)
		x = -math.Sqrt(u0 - math.Log(2*math.Pi*u0))
		for i := 0; i < 3; i++ {
			phi := NormPDF(x)
			if phi == 0 {
				break
			}
			u := (NormCDF(x) - p) / phi
			d := u / (1 + x*u/2)
			x -= d
			if math.Abs(d) <= 1e-12*math.Abs(x) {
				break
			}
		}
		return x
	}
	e := NormCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}

// InvNormCDFBatch fills dst[i] with the inverse of the standard normal
// CDF at p[i], for every i, in one pass: Acklam's algorithm refined by one
// step of Halley's method, accurate to full double precision over the
// refinable range. It is how the struct-of-arrays Monte Carlo kernels turn
// uniform draws into normal draws. p <= 0 gives -Inf and p >= 1 gives +Inf.
// It panics if len(dst) < len(p).
//
// Tail-domain guarantee: the result is finite and non-NaN for every
// p in (0, 1), down to the smallest subnormal (p ≈ 5e-324) and up to
// 1 - 2⁻⁵³. For subnormal p (below ~2.2e-308) the Acklam estimate is
// extrapolated outside its fitted range and the standard Halley form
// would overflow in Exp(x*x/2); the quantile is instead reseeded from
// the tail asymptotic and polished with density-quotient Halley steps,
// so NormCDF recovers p from the quantile to within the subnormal
// quantization of p itself. Near 1 the accuracy floor is the 2⁻⁵³
// spacing of doubles at 1: the survival probability 1-p is recovered
// to ~1e-7 relative at p = 1-1e-16.
func InvNormCDFBatch(dst, p []float64) {
	dst = dst[:len(p)]
	for i, pi := range p {
		switch {
		case math.IsNaN(pi):
			dst[i] = math.NaN()
		case pi <= 0:
			dst[i] = math.Inf(-1)
		case pi >= 1:
			dst[i] = math.Inf(1)
		default:
			dst[i] = invNormRefine(invNormAcklam(pi), pi)
		}
	}
}
