package core

import (
	"math"
	"testing"

	"crowdassess/internal/randx"
)

// randomMultinomial draws a plausible A3 counts vector: k³ nonnegative
// entries summing to n.
func randomMultinomial(src *randx.Source, dim int, n float64) []float64 {
	counts := make([]float64, dim)
	var total float64
	for i := range counts {
		counts[i] = src.Float64()
		total += counts[i]
	}
	for i := range counts {
		counts[i] *= n / total
	}
	return counts
}

// TestMultinomialQuadMatchesDense is the acceptance check for the
// structured covariance: the O(k³) quadratic form and the materialized
// dense path must agree to 1e-12 (relative) across arities and gradients.
func TestMultinomialQuadMatchesDense(t *testing.T) {
	src := randx.NewSource(7)
	for _, k := range []int{2, 3, 4, 5} {
		dim := k * k * k
		for trial := 0; trial < 20; trial++ {
			n := 50 + 500*src.Float64()
			counts := randomMultinomial(src, dim, n)
			grad := make([]float64, dim)
			for i := range grad {
				grad[i] = 2*src.Float64() - 1
			}
			cov, err := NewMultinomialCov(counts, n)
			if err != nil {
				t.Fatal(err)
			}
			dense := DenseCov{cov.Dense()}
			fast := cov.Quad(grad)
			slow := dense.Quad(grad)
			scale := math.Abs(slow)
			if scale < 1 {
				scale = 1
			}
			if math.Abs(fast-slow) > 1e-12*scale {
				t.Errorf("k=%d trial %d: structured %v vs dense %v (diff %g)",
					k, trial, fast, slow, math.Abs(fast-slow))
			}
			fastDiag := cov.DiagAbsQuad(grad)
			slowDiag := dense.DiagAbsQuad(grad)
			if math.Abs(fastDiag-slowDiag) > 1e-12*(1+math.Abs(slowDiag)) {
				t.Errorf("k=%d trial %d: diag %v vs dense diag %v", k, trial, fastDiag, slowDiag)
			}
		}
	}
}

// TestDeltaMethodCovMatchesDense runs the full delta method through both
// covariance implementations.
func TestDeltaMethodCovMatchesDense(t *testing.T) {
	src := randx.NewSource(8)
	dim := 27
	counts := randomMultinomial(src, dim, 300)
	grad := make([]float64, dim)
	for i := range grad {
		grad[i] = 2*src.Float64() - 1
	}
	cov, err := NewMultinomialCov(counts, 300)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := DeltaMethodCov(0.5, grad, cov)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := DeltaMethodCov(0.5, grad, DenseCov{cov.Dense()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast.Dev-slow.Dev) > 1e-12*(1+slow.Dev) {
		t.Errorf("dev %v (structured) vs %v (dense)", fast.Dev, slow.Dev)
	}
	if fast.Mean != slow.Mean {
		t.Errorf("mean %v vs %v", fast.Mean, slow.Mean)
	}
}

func TestNewMultinomialCovRejectsNonPositiveTotal(t *testing.T) {
	if _, err := NewMultinomialCov([]float64{1, 2}, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewMultinomialCov([]float64{1, 2}, -3); err == nil {
		t.Error("negative n accepted")
	}
}

func TestDeltaMethodCovDimensionMismatch(t *testing.T) {
	cov, err := NewMultinomialCov([]float64{1, 2, 3}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeltaMethodCov(0, []float64{1, 2}, cov); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

// BenchmarkDeltaMethodStructured vs BenchmarkDeltaMethodDense: the same
// quadratic form through the O(k³) structured path and the O(k⁶) dense
// fallback, at arity 4 (dim 64). Run with -benchmem to see the dense
// path's k³×k³ allocation disappear.
func benchGradAndCounts(dim int) ([]float64, []float64) {
	src := randx.NewSource(9)
	counts := randomMultinomial(src, dim, 500)
	grad := make([]float64, dim)
	for i := range grad {
		grad[i] = 2*src.Float64() - 1
	}
	return grad, counts
}

func BenchmarkDeltaMethodStructured(b *testing.B) {
	const dim = 64 // arity 4: k³ count entries
	grad, counts := benchGradAndCounts(dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cov, err := NewMultinomialCov(counts, 500)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DeltaMethodCov(0.5, grad, cov); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaMethodDense(b *testing.B) {
	const dim = 64
	grad, counts := benchGradAndCounts(dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cov, err := NewMultinomialCov(counts, 500)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DeltaMethodCov(0.5, grad, DenseCov{cov.Dense()}); err != nil {
			b.Fatal(err)
		}
	}
}
