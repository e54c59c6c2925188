package core

import (
	"fmt"
	"math"
)

// This file implements the binary estimator's closed form and its lemmas.
//
// With three workers, expected pairwise agreement rates relate to error
// rates by q_{i,j} = p_i p_j + (1−p_i)(1−p_j), which solves to the paper's
// Equation 1:
//
//	p_i = ½ − ½·√( (2q_{i,j}−1)(2q_{i,k}−1) / (2q_{j,k}−1) )
//
// fBinary computes that expression; fBinaryGrad its partial derivatives
// (Lemma 2); pairCovariance the agreement-rate covariances (Lemmas 1 and 3).

// errLowAgreement is what fBinary and fBinaryGrad return outside their
// domain. It is preallocated because Algorithm A2 meets degenerate triples
// by the thousand and discards them; ThreeWorkerBinary, which reports one,
// names the agreement rates at its boundary.
var errLowAgreement = fmt.Errorf("core: agreement rate ≤ ½: %w", ErrDegenerate)

// fBinary evaluates f(a, b, c) = ½ − ½·√((2a−1)(2b−1)/(2c−1)), the error
// rate of the worker common to the pairs with agreement rates a and b, where
// c is the agreement rate of the remaining pair. It returns errLowAgreement,
// an ErrDegenerate, when any agreement rate is at or below ½ (the
// non-malicious-worker assumption q > ½ is violated, where f is singular or
// complex).
func fBinary(a, b, c float64) (float64, error) {
	ta, tb, tc := 2*a-1, 2*b-1, 2*c-1
	if ta <= 0 || tb <= 0 || tc <= 0 {
		return 0, errLowAgreement
	}
	return 0.5 - 0.5*math.Sqrt(ta*tb/tc), nil
}

// fBinaryGrad returns the partial derivatives (∂f/∂a, ∂f/∂b, ∂f/∂c) of
// fBinary at (a, b, c), per Lemma 2:
//
//	∂f/∂a = −√( (2b−1) / (4(2a−1)(2c−1)) )
//	∂f/∂b = −√( (2a−1) / (4(2b−1)(2c−1)) )
//	∂f/∂c = +√( (2a−1)(2b−1) / (4(2c−1)³) )
//
// (The paper states these with (q−½) factors; with 2q−1 = 2(q−½) the forms
// are identical.) The same domain restriction as fBinary applies.
func fBinaryGrad(a, b, c float64) (da, db, dc float64, err error) {
	ta, tb, tc := 2*a-1, 2*b-1, 2*c-1
	if ta <= 0 || tb <= 0 || tc <= 0 {
		return 0, 0, 0, errLowAgreement
	}
	da = -math.Sqrt(tb / (4 * ta * tc))
	db = -math.Sqrt(ta / (4 * tb * tc))
	dc = math.Sqrt(ta * tb / (4 * tc * tc * tc))
	return da, db, dc, nil
}

// pairVariance returns Var(Q_{i,j}) = q(1−q)/c for an agreement rate q
// estimated from c common tasks (Lemma 3, first case; Lemma 1 is c = n).
func pairVariance(q float64, common int) float64 {
	if common <= 0 {
		return math.Inf(1)
	}
	return q * (1 - q) / float64(common)
}

// pairCovariance returns Cov(Q_{i,j}, Q_{j,k}) for two agreement rates that
// share worker j (Lemma 3, second case; Lemma 1 is the regular special
// case):
//
//	Cov = c_{i,j,k} · p_j(1−p_j) · (2q_{i,k}−1) / (c_{i,j}·c_{j,k})
//
// where c_{i,j,k} counts tasks attempted by all three workers, p_j is the
// shared worker's error rate, and q_{i,k} the agreement rate of the
// non-shared pair.
func pairCovariance(pShared, qOther float64, common3, commonIJ, commonJK int) float64 {
	if commonIJ <= 0 || commonJK <= 0 {
		return 0
	}
	return float64(common3) * pShared * (1 - pShared) * (2*qOther - 1) /
		(float64(commonIJ) * float64(commonJK))
}
