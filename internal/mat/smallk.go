package mat

import "math"

// Unrolled kernels for the 2×2, 3×3 and 4×4 shapes that dominate the A3
// spectral step (response arities 2, 3 and 4). The multiply kernels
// accumulate each entry left to right in k order, which is exactly the
// summation order of the generic i-k-j loop, so they are bit-compatible
// with it on finite inputs; mul4 also starts from +0 and skips zero a_ik
// as that loop does, so it matches it on signed zeros too. The inverse
// kernels use the adjugate form, which agrees with the elimination-based
// generic path to roundoff (property-tested to 1e-12).

func mul2(dst, a, b []float64) {
	b00, b01 := b[0], b[1]
	b10, b11 := b[2], b[3]
	a0, a1 := a[0], a[1]
	dst[0] = a0*b00 + a1*b10
	dst[1] = a0*b01 + a1*b11
	a0, a1 = a[2], a[3]
	dst[2] = a0*b00 + a1*b10
	dst[3] = a0*b01 + a1*b11
}

func mul3(dst, a, b []float64) {
	b00, b01, b02 := b[0], b[1], b[2]
	b10, b11, b12 := b[3], b[4], b[5]
	b20, b21, b22 := b[6], b[7], b[8]
	for i := 0; i < 3; i++ {
		a0, a1, a2 := a[3*i], a[3*i+1], a[3*i+2]
		dst[3*i] = a0*b00 + a1*b10 + a2*b20
		dst[3*i+1] = a0*b01 + a1*b11 + a2*b21
		dst[3*i+2] = a0*b02 + a1*b12 + a2*b22
	}
}

// mul4 is mulAddGeneric's i-k-j loop into a cleared dst, unrolled for
// 4×4: each row of dst accumulates from +0, and a zero a_ik skips its
// whole row pass, so every entry gets the generic loop's bits (the
// a0*b00 + … form of mul2 and mul3 would give −0 where the loop gives +0).
func mul4(dst, a, b []float64) {
	b = b[:16]
	for i := 0; i < 4; i++ {
		ai := a[4*i:][:4]
		var d0, d1, d2, d3 float64
		for k, aik := range ai {
			if aik == 0 {
				continue
			}
			bk := b[4*k:][:4]
			d0 += aik * bk[0]
			d1 += aik * bk[1]
			d2 += aik * bk[2]
			d3 += aik * bk[3]
		}
		di := dst[4*i:][:4]
		di[0], di[1], di[2], di[3] = d0, d1, d2, d3
	}
}

// inv2 writes the inverse of the 2×2 matrix a into dst via the adjugate.
// It returns ErrSingular when |det| falls below the same kind of tolerance
// the elimination path uses (scaled by the matrix magnitude, so the check
// is invariant under uniform scaling).
func inv2(dst, a []float64) error {
	a00, a01, a10, a11 := a[0], a[1], a[2], a[3]
	det := a00*a11 - a01*a10
	s := math.Max(math.Max(math.Abs(a00), math.Abs(a01)),
		math.Max(math.Abs(a10), math.Abs(a11)))
	// !(>) rather than (<=) so NaN inputs are reported as singular.
	if !(math.Abs(det) > 1e-13*s*s) {
		return ErrSingular
	}
	inv := 1 / det
	dst[0] = a11 * inv
	dst[1] = -a01 * inv
	dst[2] = -a10 * inv
	dst[3] = a00 * inv
	return nil
}

// inv3 writes the inverse of the 3×3 matrix a into dst via the adjugate.
func inv3(dst, a []float64) error {
	a00, a01, a02 := a[0], a[1], a[2]
	a10, a11, a12 := a[3], a[4], a[5]
	a20, a21, a22 := a[6], a[7], a[8]
	c00 := a11*a22 - a12*a21
	c01 := a12*a20 - a10*a22
	c02 := a10*a21 - a11*a20
	det := a00*c00 + a01*c01 + a02*c02
	var s float64
	for _, v := range a {
		if av := math.Abs(v); av > s {
			s = av
		}
	}
	if !(math.Abs(det) > 1e-13*s*s*s) {
		return ErrSingular
	}
	inv := 1 / det
	dst[0] = c00 * inv
	dst[1] = (a02*a21 - a01*a22) * inv
	dst[2] = (a01*a12 - a02*a11) * inv
	dst[3] = c01 * inv
	dst[4] = (a00*a22 - a02*a20) * inv
	dst[5] = (a02*a10 - a00*a12) * inv
	dst[6] = c02 * inv
	dst[7] = (a01*a20 - a00*a21) * inv
	dst[8] = (a00*a11 - a01*a10) * inv
	return nil
}
