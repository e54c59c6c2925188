package mat

import (
	"math/rand"
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

// TestWorkspaceEigenSteadyState asserts the WS eigendecompositions reach
// zero steady-state allocations — the property the A3 spectral step's inner
// loop depends on.
func TestWorkspaceEigenSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	m := randomMatrix(r, 4)
	sym := m.Symmetrize()
	for i := 0; i < 4; i++ {
		sym.Add(i, i, 5) // well-separated positive spectrum
	}
	ws := NewWorkspace()
	if _, err := sym.EigenSymWS(ws); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		ws.Reset()
		if _, err := sym.EigenSymWS(ws); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("EigenSymWS allocates %.1f times, want 0", allocs)
	}
	ws2 := NewWorkspace()
	if _, err := sym.EigenDecomposeWS(ws2); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		ws2.Reset()
		if _, err := sym.EigenDecomposeWS(ws2); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("EigenDecomposeWS allocates %.1f times, want 0", allocs)
	}
}
