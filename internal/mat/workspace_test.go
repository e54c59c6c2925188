package mat

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestWorkspaceReuse pins the workspace contract: the same request sequence
// after Reset returns the same storage (no growth), and requests are zeroed.
func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	m1 := ws.Get(3, 3)
	m1.Set(1, 1, 42)
	v1 := ws.GetVec(5)
	v1[0] = 7
	ws.Reset()
	m2 := ws.Get(3, 3)
	if m2 != m1 {
		t.Error("Get after Reset did not reuse the pooled matrix")
	}
	if m2.At(1, 1) != 0 {
		t.Error("reused matrix not zeroed")
	}
	v2 := ws.GetVec(5)
	if &v2[0] != &v1[0] {
		t.Error("GetVec after Reset did not reuse the pooled slice")
	}
	if v2[0] != 0 {
		t.Error("reused vector not zeroed")
	}
	// Distinct requests within one epoch must hand out distinct storage.
	if ws.Get(3, 3) == m2 {
		t.Error("second Get in the same epoch returned the same matrix")
	}
	// Different shapes draw from different pools.
	r := ws.Get(2, 4)
	if r.Rows() != 2 || r.Cols() != 4 {
		t.Errorf("Get(2,4) returned %d×%d", r.Rows(), r.Cols())
	}
	// LU scratch is persistent per dimension and survives Reset.
	f1 := ws.LU(3)
	ws.Reset()
	if ws.LU(3) != f1 {
		t.Error("LU(3) not reused across Reset")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		ws.Reset()
		ws.Get(3, 3)
		ws.Get(3, 3)
		ws.Get(2, 4)
		ws.GetVec(5)
		ws.GetInts(4)
		ws.LU(3)
	}); allocs != 0 {
		t.Errorf("warmed workspace allocates %.1f times, want 0", allocs)
	}
}

// TestWorkspaceGetWords pins GetWords' bump-buffer contract: slices of one
// epoch never overlap and come back zeroed, a buffer outgrown mid-epoch
// leaves earlier slices intact, and once an epoch's demand fits the
// buffer, requests of any mix of lengths stop allocating.
func TestWorkspaceGetWords(t *testing.T) {
	ws := NewWorkspace()
	a := ws.GetWords(3)
	for i := range a {
		a[i] = ^uint64(0)
	}
	b := ws.GetWords(5) // outgrows the 3-word buffer
	for i := range b {
		b[i] = 1
	}
	for i, w := range a {
		if w != ^uint64(0) {
			t.Fatalf("word %d of an earlier slice changed to %x when the buffer grew", i, w)
		}
	}
	if len(a) != 3 || cap(a) != 3 || len(b) != 5 || cap(b) != 5 {
		t.Fatalf("GetWords returned len/cap %d/%d and %d/%d, want 3/3 and 5/5", len(a), cap(a), len(b), cap(b))
	}
	ws.Reset()
	c := ws.GetWords(4)
	d := ws.GetWords(2)
	for i, w := range append(append([]uint64(nil), c...), d...) {
		if w != 0 {
			t.Fatalf("word %d not zeroed after Reset: %x", i, w)
		}
	}
	c[3] = 7
	if d[0] != 0 {
		t.Fatal("slices of one epoch overlap")
	}
	ws.Reset()
	if e := ws.GetWords(4); &e[0] != &c[0] {
		t.Error("GetWords after Reset did not reuse the buffer")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		ws.Reset()
		ws.GetWords(1)
		ws.GetWords(6)
		ws.GetWords(0)
	}); allocs != 0 {
		t.Errorf("warmed GetWords allocates %.1f times, want 0", allocs)
	}
}

// TestWorkspaceEigenSteadyState asserts the eigendecompositions reach zero
// steady-state allocations on workspace storage — the property the A3
// spectral step's inner loop depends on.
func TestWorkspaceEigenSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	m := randomMatrix(r, 4)
	sym := symmetrize(m)
	addDiag(sym, 5) // well-separated positive spectrum
	for _, c := range []struct {
		name string
		run  func(ws *Workspace, e Eigen, scratch []float64) error
	}{
		{"EigenSymTo", func(_ *Workspace, e Eigen, scratch []float64) error {
			return EigenSymTo(e, sym, scratch)
		}},
		{"EigenDecomposeTo", func(ws *Workspace, e Eigen, scratch []float64) error {
			return EigenDecomposeTo(e, sym, ws.LU(4), scratch)
		}},
	} {
		ws := NewWorkspace()
		call := func() {
			ws.Reset()
			e := Eigen{Values: ws.GetVec(4), Vectors: ws.Get(4, 4)}
			if err := c.run(ws, e, ws.GetVec(EigenScratch(4))); err != nil {
				t.Fatal(err)
			}
		}
		call()
		if allocs := testing.AllocsPerRun(20, call); allocs != 0 {
			t.Errorf("%s allocates %.1f times, want 0", c.name, allocs)
		}
	}
}

// workspaceEpoch makes the requests one Lemma 5 weight solve over l
// triples makes of its workspace: the l×l covariance, its factorization,
// a weight vector and the 2l pairing indices.
func workspaceEpoch(ws *Workspace, l int) {
	ws.Reset()
	ws.Get(l, l)
	ws.LU(l)
	ws.GetVec(l)
	ws.GetInts(2 * l)
}

// TestWorkspaceFootprint pins the workspace's memory bound: after epochs
// of every size from 1 to 100, the float and int scratch it retains
// (buffers plus LU storage) is at most twice the largest epoch's demand —
// not a matrix and an LU per size served — the live heap it holds agrees,
// and a warmed run of the same epochs allocates nothing.
func TestWorkspaceFootprint(t *testing.T) {
	const maxL = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ws := NewWorkspace()
	epochs := func() {
		for l := 1; l <= maxL; l++ {
			workspaceEpoch(ws, l)
		}
	}
	epochs()
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The largest epoch takes l² + l floats and 2l ints from the buffers,
	// and its LU holds l² + 3l floats and l ints.
	wantFloats := 2 * (maxL*maxL + maxL + maxL*maxL + 3*maxL)
	wantInts := 2 * (2*maxL + maxL)
	lu := &ws.lu
	floats := cap(ws.floats.buf) + cap(lu.lu.data) + cap(lu.y) + cap(lu.e) + cap(lu.x)
	ints := cap(ws.ints.buf) + cap(lu.perm)
	if floats > wantFloats {
		t.Errorf("workspace retains %d floats, want at most %d", floats, wantFloats)
	}
	if ints > wantInts {
		t.Errorf("workspace retains %d ints, want at most %d", ints, wantInts)
	}
	// Whatever else the workspace keeps (headers) must be small next to
	// its scratch: the live heap it holds is checked against the same
	// bound plus 4 KiB.
	if live, want := int64(after.HeapAlloc)-int64(before.HeapAlloc), int64(8*(wantFloats+wantInts)+4096); live > want {
		t.Errorf("workspace holds %d live heap bytes, want at most %d", live, want)
	}
	if allocs := testing.AllocsPerRun(10, epochs); allocs != 0 {
		t.Errorf("warmed epochs allocate %.1f times, want 0", allocs)
	}
}

// BenchmarkWorkspace runs the epochs of TestWorkspaceFootprint on one warm
// workspace; it should report 0 allocs/op.
func BenchmarkWorkspace(b *testing.B) {
	ws := NewWorkspace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for l := 1; l <= 100; l++ {
			workspaceEpoch(ws, l)
		}
	}
}
