package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// Property tests for the small-k kernels, mirroring the dense-vs-structured
// pattern of core's quadform tests: randomized k ∈ {2, 3} matrices through
// MulTo / InverseTo / TTo must agree with the generic implementations to
// 1e-12 (relative).

// genericMulTo is the non-dispatched reference multiply.
func genericMulTo(dst, a, b *Matrix) {
	for i := 0; i < dst.Rows(); i++ {
		for j := 0; j < dst.Cols(); j++ {
			var s float64
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			dst.Set(i, j, s)
		}
	}
}

func maxAbsDiff(a, b *Matrix) float64 {
	var mx float64
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if d := math.Abs(a.At(i, j) - b.At(i, j)); d > mx {
				mx = d
			}
		}
	}
	return mx
}

// det is the cofactor determinant of a 2×2 or 3×3 matrix.
func det(a *Matrix) float64 {
	if a.Rows() == 2 {
		return a.At(0, 0)*a.At(1, 1) - a.At(0, 1)*a.At(1, 0)
	}
	return a.At(0, 0)*(a.At(1, 1)*a.At(2, 2)-a.At(1, 2)*a.At(2, 1)) -
		a.At(0, 1)*(a.At(1, 0)*a.At(2, 2)-a.At(1, 2)*a.At(2, 0)) +
		a.At(0, 2)*(a.At(1, 0)*a.At(2, 1)-a.At(1, 1)*a.At(2, 0))
}

func TestSmallKMulToMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, k := range []int{2, 3} {
		for trial := 0; trial < 200; trial++ {
			a := randomMatrix(r, k)
			b := randomMatrix(r, k)
			got := New(k, k)
			MulTo(got, a, b) // dispatches the unrolled kernel
			want := New(k, k)
			genericMulTo(want, a, b)
			scale := 1 + want.MaxAbs()
			if d := maxAbsDiff(got, want); d > 1e-12*scale {
				t.Fatalf("k=%d trial %d: kernel vs generic multiply differ by %g", k, trial, d)
			}
		}
	}
}

func TestSmallKTToMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, k := range []int{2, 3} {
		for trial := 0; trial < 50; trial++ {
			a := randomMatrix(r, k)
			got := New(k, k)
			TTo(got, a)
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					if got.At(i, j) != a.At(j, i) {
						t.Fatalf("k=%d: transpose kernel wrong at (%d,%d)", k, i, j)
					}
				}
			}
		}
	}
}

func TestSmallKInverseToMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, k := range []int{2, 3} {
		f := NewLU(k)
		trials := 0
		for trials < 200 {
			a := randomMatrix(r, k)
			// Skip badly conditioned draws: near-singular matrices amplify
			// roundoff past any fixed tolerance in both implementations.
			if math.Abs(det(a)) < 0.05 {
				continue
			}
			trials++
			got := New(k, k)
			if err := InverseTo(got, a, nil); err != nil {
				t.Fatalf("k=%d: kernel inverse failed: %v", k, err)
			}
			// Generic reference: the LU unit-solve path the dispatcher uses
			// for k > 3.
			want := New(k, k)
			if err := f.Refactor(a); err != nil {
				t.Fatalf("k=%d: LU refactor failed: %v", k, err)
			}
			f.InverseTo(want)
			scale := 1 + want.MaxAbs()
			if d := maxAbsDiff(got, want); d > 1e-12*scale {
				t.Fatalf("k=%d trial %d: kernel vs generic inverse differ by %g", k, trials, d)
			}
			// And both must actually invert: A·A⁻¹ ≈ I.
			prod := mul(a, got)
			if !prod.EqualApprox(identity(k), 1e-10) {
				t.Fatalf("k=%d: A·A⁻¹ differs from I:\n%v", k, prod)
			}
		}
	}
}

func TestInverseToSingular(t *testing.T) {
	for _, k := range []int{2, 3} {
		a := New(k, k) // all zeros
		dst := New(k, k)
		if err := InverseTo(dst, a, nil); !errors.Is(err, ErrSingular) {
			t.Errorf("k=%d: zero matrix inverse err = %v, want ErrSingular", k, err)
		}
		// Rank-deficient: two identical rows.
		b := New(k, k)
		for j := 0; j < k; j++ {
			b.Set(0, j, float64(j+1))
			b.Set(1, j, float64(j+1))
		}
		if err := InverseTo(dst, b, nil); !errors.Is(err, ErrSingular) {
			t.Errorf("k=%d: rank-deficient inverse err = %v, want ErrSingular", k, err)
		}
	}
}

// TestInverseToAgainstMulIdentity checks the LU-backed generic path at
// sizes above the kernel cutoff.
func TestInverseToGenericSizes(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, k := range []int{4, 5, 8} {
		f := NewLU(k)
		for trial := 0; trial < 20; trial++ {
			a := randomMatrix(r, k)
			addDiag(a, 3) // keep well-conditioned
			dst := New(k, k)
			if err := InverseTo(dst, a, f); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			if !mul(a, dst).EqualApprox(identity(k), 1e-10) {
				t.Fatalf("k=%d: A·A⁻¹ not identity", k)
			}
		}
	}
}
