// Package core implements the paper's contribution: confidence intervals on
// crowd-worker error rates without gold-standard answers.
//
// Three entry points mirror the paper's algorithms:
//
//   - ThreeWorkerBinary — Algorithm A1 generalized to non-regular data
//     (Sections III-A and III-B): closed-form estimation from pairwise
//     agreement rates.
//   - EvaluateWorkers — Algorithm A2 (Section III-C): m ≥ 3 workers,
//     non-regular data, aggregating per-triple estimates with
//     covariance-optimal linear weights.
//   - ThreeWorkerKAry — Algorithm A3 (Section IV-A): k-ary tasks via a
//     spectral decomposition of response-frequency matrices and a
//     numerically differentiated delta method.
//
// All three are built on DeltaMethod, the paper's Theorem 1.
package core

import (
	"errors"
	"fmt"
	"math"

	"crowdassess/internal/mat"
	"crowdassess/internal/stat"
)

// ErrDegenerate is returned when a sample is too pathological for the
// estimator: an agreement rate at or below ½ (the paper's f has a
// singularity there), a negative value under a square root, or a singular
// spectral decomposition. The paper notes the probability of this falls
// exponentially with the number of tasks; harnesses count such failures.
var ErrDegenerate = errors.New("core: degenerate sample")

// ErrInsufficientData is returned when workers share too few tasks for any
// estimate to exist (for example, a pair with no common tasks).
var ErrInsufficientData = errors.New("core: insufficient common tasks")

// DeltaEstimate is the output of DeltaMethod: the approximate distribution
// of Y = f(X₁,…,X_k) per Theorem 1.
type DeltaEstimate struct {
	Mean float64 // f(e₁,…,e_k)
	Dev  float64 // √(dᵀΣd)
}

// DeltaMethod applies the paper's Theorem 1: given the value of f at the
// estimate vector, the gradient d of f there, and the covariance matrix Σ of
// the inputs, it returns the approximate mean and standard deviation of Y.
// It returns ErrDegenerate when the quadratic form is not finite or is
// negative beyond roundoff (Σ built from plug-in estimates need not be PSD;
// tiny negatives are clamped to zero).
func DeltaMethod(fAtMean float64, grad []float64, cov *mat.Matrix) (DeltaEstimate, error) {
	n := len(grad)
	if cov.Rows() != n || cov.Cols() != n {
		return DeltaEstimate{}, fmt.Errorf("core: gradient length %d vs covariance %d×%d: %w",
			n, cov.Rows(), cov.Cols(), mat.ErrShape)
	}
	return DeltaMethodCov(fAtMean, grad, DenseCov{cov})
}

// DeltaMethodCov is DeltaMethod over any CovQuadForm — the same Theorem 1
// computation, with the covariance abstracted so structured implementations
// (MultinomialCov in Algorithm A3) can evaluate dᵀΣd without materializing Σ.
func DeltaMethodCov(fAtMean float64, grad []float64, cov CovQuadForm) (DeltaEstimate, error) {
	if cov.Dim() != len(grad) {
		return DeltaEstimate{}, fmt.Errorf("core: gradient length %d vs covariance dimension %d: %w",
			len(grad), cov.Dim(), mat.ErrShape)
	}
	variance := cov.Quad(grad)
	var scale float64
	if variance < 0 {
		scale = cov.DiagAbsQuad(grad)
	}
	return deltaFromVariance(fAtMean, variance, scale)
}

// deltaFromVariance completes Theorem 1 from the quadratic form
// variance = dᵀΣd, checking it against scale = Σ dᵢ²·|Σᵢᵢ| (read only
// when variance is negative). Plug-in covariance estimates can dip
// slightly negative; small violations clamp to zero, gross ones fail.
func deltaFromVariance(fAtMean, variance, scale float64) (DeltaEstimate, error) {
	if math.IsNaN(variance) || math.IsInf(variance, 0) {
		return DeltaEstimate{}, fmt.Errorf("core: non-finite variance: %w", ErrDegenerate)
	}
	if variance < 0 {
		if variance < -1e-9-1e-6*scale {
			return DeltaEstimate{}, fmt.Errorf("core: negative variance %g: %w", variance, ErrDegenerate)
		}
		variance = 0
	}
	return DeltaEstimate{Mean: fAtMean, Dev: math.Sqrt(variance)}, nil
}

// Interval converts the estimate into a c-confidence interval
// mean ± z_{(1+c)/2}·dev (Theorem 1, Equation 2).
func (d DeltaEstimate) Interval(c float64) stat.Interval {
	half := stat.ConfidenceZ(c) * d.Dev
	return stat.NewInterval(d.Mean, half, c)
}
