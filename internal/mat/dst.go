// Destination-passing API: every operation writes its result into a
// caller-owned dst matrix, so hot loops can run allocation-free against a
// Workspace.
//
// Aliasing rules (violations are undefined behaviour, not checked):
//
//   - MulTo, TTo: dst must not alias either operand.
//   - PlusTo, ScaleTo: dst may alias either operand (element-wise).
//   - SymmetrizeTo: dst may alias the operand (pairs are read before write).
//   - InverseTo: dst must not alias src.
package mat

// MulTo writes the product a·b into dst. dst must have shape
// a.Rows()×b.Cols() and must not alias a or b. Square k×k products with
// k ∈ {2, 3, 4} — the dominant shapes in the A3 spectral step — dispatch
// to unrolled kernels.
func MulTo(dst, a, b *Matrix) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic(ErrShape)
	}
	if a.rows == a.cols && a.rows == b.cols {
		switch a.rows {
		case 2:
			mul2(dst.data, a.data, b.data)
			return
		case 3:
			mul3(dst.data, a.data, b.data)
			return
		case 4:
			mul4(dst.data, a.data, b.data)
			return
		}
	}
	clear(dst.data)
	mulAddGeneric(dst, a, b)
}

// mulAddGeneric accumulates a·b into dst (dst += a·b) with MulTo's
// general-shape i-k-j row-major loop: the inner loop walks both b's row k
// and dst's row i sequentially (unit stride), and zero entries of a skip a
// whole row pass.
func mulAddGeneric(dst, a, b *Matrix) {
	for i := 0; i < a.rows; i++ {
		ai := a.data[i*a.cols : (i+1)*a.cols]
		di := dst.data[i*dst.cols : (i+1)*dst.cols]
		for k, aik := range ai {
			if aik == 0 {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range bk {
				di[j] += aik * bkj
			}
		}
	}
}

// TTo writes the transpose of a into dst, which must have shape
// a.Cols()×a.Rows() and must not alias a.
func TTo(dst, a *Matrix) {
	if dst.rows != a.cols || dst.cols != a.rows {
		panic(ErrShape)
	}
	if a.rows == a.cols {
		switch a.rows {
		case 2:
			d, s := dst.data, a.data
			d[0], d[1], d[2], d[3] = s[0], s[2], s[1], s[3]
			return
		case 3:
			d, s := dst.data, a.data
			d[0], d[1], d[2] = s[0], s[3], s[6]
			d[3], d[4], d[5] = s[1], s[4], s[7]
			d[6], d[7], d[8] = s[2], s[5], s[8]
			return
		}
	}
	for i := 0; i < a.rows; i++ {
		ai := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range ai {
			dst.data[j*dst.cols+i] = v
		}
	}
}

// PlusTo writes a + b into dst. All three must share a shape; dst may alias
// a or b.
func PlusTo(dst, a, b *Matrix) {
	if a.rows != b.rows || a.cols != b.cols || dst.rows != a.rows || dst.cols != a.cols {
		panic(ErrShape)
	}
	for i, av := range a.data {
		dst.data[i] = av + b.data[i]
	}
}

// ScaleTo writes s·a into dst, which must share a's shape and may alias it.
func ScaleTo(dst, a *Matrix, s float64) {
	if dst.rows != a.rows || dst.cols != a.cols {
		panic(ErrShape)
	}
	for i, av := range a.data {
		dst.data[i] = av * s
	}
}

// SymmetrizeTo writes (a + aᵀ)/2 into dst. a must be square; dst may alias
// a (each (i,j)/(j,i) pair is read before either is written).
func SymmetrizeTo(dst, a *Matrix) {
	if a.rows != a.cols || dst.rows != a.rows || dst.cols != a.cols {
		panic(ErrShape)
	}
	n := a.rows
	for i := 0; i < n; i++ {
		dst.data[i*n+i] = a.data[i*n+i]
		for j := i + 1; j < n; j++ {
			v := 0.5 * (a.data[i*n+j] + a.data[j*n+i])
			dst.data[i*n+j] = v
			dst.data[j*n+i] = v
		}
	}
}

// IdentityTo overwrites the square matrix dst with the identity.
func IdentityTo(dst *Matrix) {
	if dst.rows != dst.cols {
		panic(ErrShape)
	}
	clear(dst.data)
	for i := 0; i < dst.rows; i++ {
		dst.data[i*dst.cols+i] = 1
	}
}
