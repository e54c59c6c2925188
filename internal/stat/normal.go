// Package stat provides the statistical substrate for the crowd-assessment
// algorithms: the normal distribution (PDF/CDF/quantile), the regularized
// incomplete beta function, confidence-interval types, and the Wilson,
// Wald and Clopper–Pearson binomial intervals used by the baselines.
package stat

import "math"

// Normal is a normal (Gaussian) distribution with mean Mu and standard
// deviation Sigma. The zero value is not usable; use StdNormal or construct
// with a positive Sigma.
type Normal struct {
	Mu    float64
	Sigma float64
}

// StdNormal is the standard normal distribution N(0, 1).
var StdNormal = Normal{Mu: 0, Sigma: 1}

// PDF returns the probability density at x.
func (n Normal) PDF(x float64) float64 {
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-z*z/2) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// CDF returns P(X ≤ x).
func (n Normal) CDF(x float64) float64 {
	z := (x - n.Mu) / (n.Sigma * math.Sqrt2)
	return 0.5 * (1 + math.Erf(z))
}

// Quantile returns the value x with CDF(x) = p, i.e. the inverse CDF.
// It returns ±Inf for p = 0 or 1 and NaN outside [0, 1].
func (n Normal) Quantile(p float64) float64 {
	switch {
	case p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}
	return n.Mu + n.Sigma*math.Sqrt2*math.Erfinv(2*p-1)
}

// ZScore returns z_t, the t-th quantile of the standard normal distribution.
// Theorem 1 of the paper uses z with t = (1+c)/2 for a c-confidence interval.
func ZScore(t float64) float64 {
	return StdNormal.Quantile(t)
}

// ConfidenceZ returns the half-width multiplier for a two-sided c-confidence
// interval around a normal estimate: z_{(1+c)/2}.
func ConfidenceZ(c float64) float64 {
	return ZScore((1 + c) / 2)
}
