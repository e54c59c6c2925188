package mat

import (
	"testing"
)

// TestMulAddToAccumulates pins the accumulation contract of MulTo's
// general-shape loop: mulAddGeneric adds a·b onto dst without zeroing it,
// which is why MulTo clears dst first.
func TestMulAddToAccumulates(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	dst := FromRows([][]float64{{100, 0}, {0, 100}})
	mulAddGeneric(dst, a, b)
	want := mul(a, b)
	if dst.At(0, 0) != 100+want.At(0, 0) || dst.At(1, 1) != 100+want.At(1, 1) ||
		dst.At(0, 1) != want.At(0, 1) || dst.At(1, 0) != want.At(1, 0) {
		t.Errorf("mulAddGeneric:\n%v", dst)
	}
}

func TestMulToNonSquare(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}}) // 2×3
	b := FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	dst := New(2, 2)
	MulTo(dst, a, b)
	want := FromRows([][]float64{{4, 5}, {10, 11}})
	if !dst.EqualApprox(want, 0) {
		t.Errorf("non-square MulTo:\n%v\nwant\n%v", dst, want)
	}
	if !panicsWithShape(func() { MulTo(New(2, 3), a, b) }) {
		t.Error("MulTo into a wrong-shaped dst did not panic with ErrShape")
	}
}

func TestElementwiseToAliasing(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	sum := New(2, 2)
	PlusTo(sum, a, b)
	PlusTo(a, a, b) // dst aliases a
	if !a.EqualApprox(sum, 0) {
		t.Errorf("aliased PlusTo:\n%v", a)
	}
	a = FromRows([][]float64{{1, 2}, {3, 4}})
	scaled := New(2, 2)
	ScaleTo(scaled, a, 2.5)
	ScaleTo(a, a, 2.5)
	if !a.EqualApprox(scaled, 0) {
		t.Errorf("aliased ScaleTo:\n%v", a)
	}
}

func TestSymmetrizeToAliasing(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	want := symmetrize(a)
	SymmetrizeTo(a, a) // in place
	if !a.EqualApprox(want, 0) {
		t.Errorf("aliased SymmetrizeTo:\n%v\nwant\n%v", a, want)
	}
}

func TestIdentityTo(t *testing.T) {
	m := FromRows([][]float64{{9, 9}, {9, 9}})
	IdentityTo(m)
	if !m.EqualApprox(FromRows([][]float64{{1, 0}, {0, 1}}), 0) {
		t.Errorf("IdentityTo:\n%v", m)
	}
}

func TestRowViewAliases(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	row := m.RowView(1)
	row[0] = 42
	if m.At(1, 0) != 42 {
		t.Error("RowView write did not reach the matrix")
	}
}
