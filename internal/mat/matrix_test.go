package mat

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// Test-only shorthands over the destination-passing kernels, so the
// property checks below read as the algebra they assert.

func mul(a, b *Matrix) *Matrix {
	p := New(a.Rows(), b.Cols())
	MulTo(p, a, b)
	return p
}

func transpose(a *Matrix) *Matrix {
	t := New(a.Cols(), a.Rows())
	TTo(t, a)
	return t
}

func symmetrize(a *Matrix) *Matrix {
	s := New(a.Rows(), a.Cols())
	SymmetrizeTo(s, a)
	return s
}

func identity(n int) *Matrix {
	m := New(n, n)
	IdentityTo(m)
	return m
}

func diag(d []float64) *Matrix {
	m := New(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

func inverse(a *Matrix) (*Matrix, error) {
	inv := New(a.Rows(), a.Rows())
	return inv, InverseTo(inv, a, NewLU(a.Rows()))
}

// addDiag adds v to every diagonal entry of the square matrix m.
func addDiag(m *Matrix, v float64) {
	for i := 0; i < m.Rows(); i++ {
		m.Set(i, i, m.At(i, i)+v)
	}
}

func mulVec(a *Matrix, v []float64) []float64 {
	out := make([]float64, a.Rows())
	for i := range out {
		for j, r := range a.RowView(i) {
			out[i] += r * v[j]
		}
	}
	return out
}

// panicsWithShape reports whether f panics with ErrShape.
func panicsWithShape(f func()) (ok bool) {
	defer func() { ok = recover() == ErrShape }()
	f()
	return false
}

func randomMatrix(rng *rand.Rand, n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestNewZeroInitialized(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %d×%d, want 3×4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {2, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape %d×%d, want 3×2", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v, want 6", m.At(2, 1))
	}
}

func TestFromRowsPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestSetAddAt(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 5)
	m.Set(0, 1, m.At(0, 1)+2.5)
	if got := m.At(0, 1); got != 7.5 {
		t.Errorf("got %v, want 7.5", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range At did not panic")
		}
	}()
	m.At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := New(2, 2)
	c.CopyFrom(m)
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("CopyFrom shares storage with its source")
	}
	if !panicsWithShape(func() { New(2, 3).CopyFrom(m) }) {
		t.Error("CopyFrom across shapes did not panic with ErrShape")
	}
}

func TestSwapRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.SwapRows(0, 1)
	if m.At(0, 0) != 3 || m.At(1, 1) != 2 {
		t.Errorf("after swap: %v", m)
	}
	m.SwapRows(1, 1) // no-op must not corrupt
	if m.At(1, 0) != 1 {
		t.Error("self-swap corrupted matrix")
	}
}

func TestArithmetic(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	sum := New(2, 2)
	PlusTo(sum, a, b)
	if sum.At(1, 1) != 12 {
		t.Errorf("PlusTo: got %v", sum.At(1, 1))
	}
	sc := New(2, 2)
	ScaleTo(sc, a, 2)
	if sc.At(1, 0) != 6 {
		t.Errorf("ScaleTo: got %v", sc.At(1, 0))
	}
	if !panicsWithShape(func() { PlusTo(sum, a, New(2, 3)) }) {
		t.Error("PlusTo across shapes did not panic with ErrShape")
	}
	if !panicsWithShape(func() { ScaleTo(New(3, 2), a, 2) }) {
		t.Error("ScaleTo across shapes did not panic with ErrShape")
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	p := New(2, 2)
	MulTo(p, a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !p.EqualApprox(want, 1e-12) {
		t.Errorf("MulTo:\n%v\nwant:\n%v", p, want)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := New(3, 2)
	TTo(at, a)
	if at.At(2, 1) != 6 {
		t.Errorf("TTo(2,1) = %v, want 6", at.At(2, 1))
	}
	if !panicsWithShape(func() { TTo(New(2, 3), a) }) {
		t.Error("TTo into an untransposed shape did not panic with ErrShape")
	}
}

func TestSymmetrize(t *testing.T) {
	a := FromRows([][]float64{{1, 4}, {2, 3}})
	s := New(2, 2)
	SymmetrizeTo(s, a)
	if s.At(0, 1) != 3 || s.At(1, 0) != 3 {
		t.Errorf("SymmetrizeTo off-diagonal = %v, %v, want 3, 3", s.At(0, 1), s.At(1, 0))
	}
}

func TestNorms(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, -4}})
	if got := a.MaxAbs(); got != 4 {
		t.Errorf("MaxAbs = %v, want 4", got)
	}
	if got := a.OffDiagNorm(); got != 0 {
		t.Errorf("OffDiagNorm = %v, want 0", got)
	}
}

func TestInverse2x2(t *testing.T) {
	a := FromRows([][]float64{{4, 7}, {2, 6}})
	inv := New(2, 2)
	if err := InverseTo(inv, a, nil); err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{0.6, -0.7}, {-0.2, 0.4}})
	if !inv.EqualApprox(want, 1e-12) {
		t.Errorf("InverseTo:\n%v\nwant:\n%v", inv, want)
	}
}

func TestInverseSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if err := InverseTo(New(2, 2), a, nil); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestInverseNonSquare(t *testing.T) {
	if err := InverseTo(New(2, 2), New(2, 3), nil); err != ErrShape {
		t.Errorf("non-square src: err = %v, want ErrShape", err)
	}
	if err := InverseTo(New(3, 3), New(2, 2), nil); err != ErrShape {
		t.Errorf("mismatched dst: err = %v, want ErrShape", err)
	}
}

// Property: A·A⁻¹ = I for random well-conditioned matrices.
func TestInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		a := randomMatrix(rng, n)
		// Diagonal dominance guarantees invertibility.
		addDiag(a, float64(n)+2)
		inv, err := inverse(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !mul(a, inv).EqualApprox(identity(n), 1e-9) {
			t.Errorf("trial %d: A·A⁻¹ ≠ I", trial)
		}
		if !mul(inv, a).EqualApprox(identity(n), 1e-9) {
			t.Errorf("trial %d: A⁻¹·A ≠ I", trial)
		}
	}
}

// propertyCases is how many inputs each testing/quick property draws.
const propertyCases = 200

// moderateRows is a quick.Config.Values generator for properties over
// [3]float64 rows: entries are drawn from N(0, 100²). quick's own float64
// values reach ±MaxFloat64, so products overflow and a property's
// tolerance or guard would pass every case without comparing anything.
func moderateRows(args []reflect.Value, r *rand.Rand) {
	for i := range args {
		var row [3]float64
		for j := range row {
			row[j] = 100 * r.NormFloat64()
		}
		args[i] = reflect.ValueOf(row)
	}
}

// Property: (AB)ᵀ = BᵀAᵀ, checked with testing/quick over 3×3 inputs.
// Every case must reach the comparison with a finite tolerance.
func TestTransposeProductProperty(t *testing.T) {
	compared := 0
	f := func(a0, a1, a2, b0, b1, b2 [3]float64) bool {
		a := FromRows([][]float64{a0[:], a1[:], a2[:]})
		b := FromRows([][]float64{b0[:], b1[:], b2[:]})
		left := transpose(mul(a, b))
		right := mul(transpose(b), transpose(a))
		tol := 1e-9 * (1 + left.MaxAbs())
		if math.IsInf(tol, 0) || math.IsNaN(tol) {
			return true
		}
		compared++
		return left.EqualApprox(right, tol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: propertyCases, Values: moderateRows}); err != nil {
		t.Error(err)
	}
	if compared != propertyCases {
		t.Errorf("%d of %d cases reached the comparison", compared, propertyCases)
	}
}

func TestSolve(t *testing.T) {
	a := FromRows([][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}})
	f := NewLU(3)
	if err := f.Refactor(a); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 3)
	f.SolveInto([]float64{8, -11, -3}, x)
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-10) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {1, 1}})
	if err := NewLU(2).Refactor(a); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveBadShapes(t *testing.T) {
	f := NewLU(2)
	if !panicsWithShape(func() { f.Refactor(New(2, 3)) }) {
		t.Error("non-square: Refactor did not panic with ErrShape")
	}
	if err := f.Refactor(identity(2)); err != nil {
		t.Fatal(err)
	}
	if !panicsWithShape(func() { f.SolveInto([]float64{1}, make([]float64, 2)) }) {
		t.Error("bad rhs: SolveInto did not panic with ErrShape")
	}
	if !panicsWithShape(func() { f.InverseTo(New(3, 3)) }) {
		t.Error("bad dst: LU.InverseTo did not panic with ErrShape")
	}
}

// Property: the LU solve of A·x = b satisfies A·x ≈ b.
func TestSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		a := randomMatrix(rng, n)
		addDiag(a, float64(n)+2)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		f := NewLU(n)
		if err := f.Refactor(a); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		x := make([]float64, n)
		f.SolveInto(b, x)
		ax := mulVec(a, x)
		for i := range b {
			if !almostEqual(ax[i], b[i], 1e-9) {
				t.Errorf("trial %d: residual %v at %d", trial, ax[i]-b[i], i)
			}
		}
	}
}

func TestHessenbergStructureAndSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 5)
	h := New(5, 5)
	h.CopyFrom(a)
	hessenbergInPlace(h, make([]float64, 5))
	for i := 2; i < 5; i++ {
		for j := 0; j < i-1; j++ {
			if math.Abs(h.At(i, j)) > 1e-10 {
				t.Errorf("H(%d,%d) = %v, want 0", i, j, h.At(i, j))
			}
		}
	}
	// Similarity transform preserves the trace.
	var trA, trH float64
	for i := 0; i < 5; i++ {
		trA += a.At(i, i)
		trH += h.At(i, i)
	}
	if !almostEqual(trA, trH, 1e-9) {
		t.Errorf("trace changed: %v vs %v", trA, trH)
	}
}

func TestEigenvaluesDiagonal(t *testing.T) {
	a := diag([]float64{3, 1, 2})
	vals, err := eigenvaluesWS(a, NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if !almostEqual(vals[i], want[i], 1e-10) {
			t.Errorf("vals = %v, want %v", vals, want)
		}
	}
}

func TestEigenvaluesKnown(t *testing.T) {
	// [[2 1],[1 2]] has eigenvalues 1 and 3.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, err := eigenvaluesWS(a, NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(vals[0], 1, 1e-10) || !almostEqual(vals[1], 3, 1e-10) {
		t.Errorf("vals = %v, want [1 3]", vals)
	}
}

func TestEigenvaluesComplexPairRejected(t *testing.T) {
	// Rotation matrix: eigenvalues e^{±iθ}, strictly complex.
	a := FromRows([][]float64{{0, -1}, {1, 0}})
	if _, err := eigenvaluesWS(a, NewWorkspace()); err != ErrComplexEigen {
		t.Errorf("err = %v, want ErrComplexEigen", err)
	}
}

// Property: eigenvalues of M·D·M⁻¹ equal the diagonal of D.
func TestEigenvaluesSimilarityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(4)
		d := make([]float64, n)
		for i := range d {
			d[i] = float64(i+1) + rng.Float64()*0.5 // distinct, well separated
		}
		m := randomMatrix(rng, n)
		addDiag(m, float64(n)+2)
		minv, err := inverse(m)
		if err != nil {
			t.Fatal(err)
		}
		a := mul(mul(m, diag(d)), minv)
		vals, err := eigenvaluesWS(a, NewWorkspace())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range d {
			if !almostEqual(vals[i], d[i], 1e-6) {
				t.Errorf("trial %d: vals = %v, want %v", trial, vals, d)
				break
			}
		}
	}
}

func TestEigenDecomposeRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		a := randomMatrix(rng, n)
		addDiag(a, float64(2*n)) // dominance keeps spectrum real & separated
		// Force real spectrum by symmetrizing half of the trials; the other
		// half exercises the general path with diagonalizable matrices.
		if trial%2 == 0 {
			a = symmetrize(a)
		} else {
			d := make([]float64, n)
			for i := range d {
				d[i] = float64(i + 1)
			}
			m := randomMatrix(rng, n)
			addDiag(m, float64(n)+2)
			minv, _ := inverse(m)
			a = mul(mul(m, diag(d)), minv)
		}
		e, err := a.EigenDecomposeWS(NewWorkspace())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Verify A·v = λ·v for every pair.
		v := make([]float64, n)
		for j := 0; j < n; j++ {
			for i := range v {
				v[i] = e.Vectors.At(i, j)
			}
			av := mulVec(a, v)
			for i := range v {
				if !almostEqual(av[i], e.Values[j]*v[i], 1e-6*(1+a.MaxAbs())) {
					t.Errorf("trial %d: column %d not an eigenvector (res %v)", trial, j, av[i]-e.Values[j]*v[i])
					break
				}
			}
		}
		// Descending order.
		for j := 1; j < n; j++ {
			if e.Values[j] > e.Values[j-1]+1e-9 {
				t.Errorf("trial %d: eigenvalues not descending: %v", trial, e.Values)
			}
		}
	}
}

func TestEigenSymKnown(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	e, err := a.EigenSymWS(NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(e.Values[0], 3, 1e-10) || !almostEqual(e.Values[1], 1, 1e-10) {
		t.Errorf("values = %v, want [3 1]", e.Values)
	}
	// Eigenvector for λ=3 is (1,1)/√2 up to sign.
	v := []float64{e.Vectors.At(0, 0), e.Vectors.At(1, 0)}
	if !almostEqual(math.Abs(v[0]), 1/math.Sqrt2, 1e-10) || !almostEqual(v[0], v[1], 1e-10) {
		t.Errorf("leading eigenvector = %v", v)
	}
}

// Property: EigenSymWS returns an orthogonal V with A = V·Λ·Vᵀ.
func TestEigenSymProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		a := symmetrize(randomMatrix(rng, n))
		e, err := a.EigenSymWS(NewWorkspace())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		v := e.Vectors
		if !mul(transpose(v), v).EqualApprox(identity(n), 1e-9) {
			t.Errorf("trial %d: VᵀV ≠ I", trial)
		}
		rec := mul(mul(v, diag(e.Values)), transpose(v))
		if !rec.EqualApprox(a, 1e-8) {
			t.Errorf("trial %d: VΛVᵀ ≠ A", trial)
		}
	}
}

func TestEigenSymTraceProperty(t *testing.T) {
	compared := 0
	f := func(a0, a1, a2 [3]float64) bool {
		a := symmetrize(FromRows([][]float64{a0[:], a1[:], a2[:]}))
		if a.MaxAbs() > 1e100 { // also skips overflow to ±Inf
			return true
		}
		e, err := a.EigenSymWS(NewWorkspace())
		if err != nil {
			return false
		}
		var tr, sum float64
		for i := 0; i < 3; i++ {
			tr += a.At(i, i)
			sum += e.Values[i]
		}
		compared++
		return almostEqual(tr, sum, 1e-8*(1+math.Abs(tr)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: propertyCases, Values: moderateRows}); err != nil {
		t.Error(err)
	}
	if compared != propertyCases {
		t.Errorf("%d of %d cases reached the comparison", compared, propertyCases)
	}
}

func TestStringRendering(t *testing.T) {
	s := FromRows([][]float64{{1, 2}}).String()
	if s == "" {
		t.Error("String returned empty")
	}
}
