package stat

import (
	"fmt"
	"math"
)

// Interval is a closed confidence interval [Lo, Hi] for a scalar estimate,
// together with the point estimate it was built around and the confidence
// level requested. Mean need not be the midpoint after clamping.
type Interval struct {
	Mean       float64 // point estimate (center before clamping)
	Lo, Hi     float64 // interval endpoints, Lo ≤ Hi
	Confidence float64 // requested confidence level c ∈ (0,1)
}

// NewInterval builds a symmetric interval mean ± halfWidth at confidence c.
func NewInterval(mean, halfWidth, c float64) Interval {
	if halfWidth < 0 {
		halfWidth = -halfWidth
	}
	return Interval{Mean: mean, Lo: mean - halfWidth, Hi: mean + halfWidth, Confidence: c}
}

// Size returns the width Hi − Lo of the interval.
func (iv Interval) Size() float64 { return iv.Hi - iv.Lo }

// Contains reports whether x lies within [Lo, Hi].
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// ClampTo restricts the interval to [lo, hi] (probabilities live in [0, 1],
// error rates of non-malicious workers in [0, ½)). The mean is clamped too.
func (iv Interval) ClampTo(lo, hi float64) Interval {
	out := iv
	out.Lo = math.Max(lo, math.Min(hi, out.Lo))
	out.Hi = math.Max(lo, math.Min(hi, out.Hi))
	out.Mean = math.Max(lo, math.Min(hi, out.Mean))
	return out
}

// IsValid reports whether the interval endpoints are finite and ordered.
func (iv Interval) IsValid() bool {
	return !math.IsNaN(iv.Lo) && !math.IsNaN(iv.Hi) &&
		!math.IsInf(iv.Lo, 0) && !math.IsInf(iv.Hi, 0) && iv.Lo <= iv.Hi
}

// String renders the interval as "mean [lo, hi] @c".
func (iv Interval) String() string {
	return fmt.Sprintf("%.4f [%.4f, %.4f] @%.2f", iv.Mean, iv.Lo, iv.Hi, iv.Confidence)
}

// Wilson returns the Wilson score interval for a binomial proportion with
// successes k out of n trials at confidence c. The conservative baseline
// uses it for agreement-rate bounds; unlike the Wald interval it behaves
// sensibly near 0 and 1 and for small n.
func Wilson(k, n int, c float64) Interval {
	if n <= 0 {
		return Interval{Mean: 0.5, Lo: 0, Hi: 1, Confidence: c}
	}
	z := ConfidenceZ(c)
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	iv := Interval{Mean: p, Lo: center - half, Hi: center + half, Confidence: c}
	return iv.ClampTo(0, 1)
}

// Wald returns the plain normal-approximation interval p̂ ± z·√(p̂(1−p̂)/n)
// for a binomial proportion, clamped to [0, 1].
func Wald(k, n int, c float64) Interval {
	if n <= 0 {
		return Interval{Mean: 0.5, Lo: 0, Hi: 1, Confidence: c}
	}
	p := float64(k) / float64(n)
	half := ConfidenceZ(c) * math.Sqrt(p*(1-p)/float64(n))
	return NewInterval(p, half, c).ClampTo(0, 1)
}

// Clamp01 restricts x to the closed unit interval.
func Clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
