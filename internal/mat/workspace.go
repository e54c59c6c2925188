package mat

// Workspace is a scratch-memory arena for the destination-passing API: it
// hands out matrices, vectors, index slices and LU factorizations from
// per-shape pools, so iterative callers (the A3 spectral step, the A2
// covariance solve) reach a steady state of zero heap allocations.
//
// The protocol is bump-allocation with bulk release: Get/GetVec/GetInts
// return the next free object of the requested shape, growing the pool only
// on first use, and GetWords carves bitset words from one growing buffer;
// Reset parks every object again without freeing it. There is
// no per-object Put — callers reset once per outer iteration (e.g. once per
// probEstimate pair in the gradient loop) and everything handed out since
// the previous Reset is recycled at once.
//
// A Workspace is NOT safe for concurrent use: parallel code threads one
// workspace per goroutine (see core.KAryOptions.Parallel's fan-out).
type Workspace struct {
	mats map[wsShape]*matPool
	vecs map[int]*vecPool
	ints map[int]*intPool
	lus  map[int]*LU

	// words is GetWords' bump buffer and next its first free word. Bitset
	// requests vary in length from call to call, so one buffer sized to
	// the largest epoch serves them all, where per-length pools would keep
	// one slice of every length ever asked for.
	words []uint64
	next  int
}

type wsShape struct{ r, c int }

type matPool struct {
	items []*Matrix
	next  int
}

type vecPool struct {
	items [][]float64
	next  int
}

type intPool struct {
	items [][]int
	next  int
}

// NewWorkspace returns an empty workspace. Pools grow on demand; a warmed
// workspace (one that has already served the caller's request pattern once)
// serves every subsequent request without allocating.
func NewWorkspace() *Workspace {
	return &Workspace{
		mats: make(map[wsShape]*matPool),
		vecs: make(map[int]*vecPool),
		ints: make(map[int]*intPool),
		lus:  make(map[int]*LU),
	}
}

// Get returns a zeroed r×c matrix owned by the workspace. The matrix is
// valid until the next Reset; callers must not retain it past that.
func (w *Workspace) Get(r, c int) *Matrix {
	p := w.mats[wsShape{r, c}]
	if p == nil {
		p = &matPool{}
		w.mats[wsShape{r, c}] = p
	}
	if p.next < len(p.items) {
		m := p.items[p.next]
		p.next++
		clear(m.data)
		return m
	}
	m := New(r, c)
	p.items = append(p.items, m)
	p.next++
	return m
}

// GetVec returns a zeroed float slice of length n, valid until the next
// Reset.
func (w *Workspace) GetVec(n int) []float64 {
	p := w.vecs[n]
	if p == nil {
		p = &vecPool{}
		w.vecs[n] = p
	}
	if p.next < len(p.items) {
		v := p.items[p.next]
		p.next++
		clear(v)
		return v
	}
	v := make([]float64, n)
	p.items = append(p.items, v)
	p.next++
	return v
}

// GetInts returns a zeroed int slice of length n, valid until the next
// Reset.
func (w *Workspace) GetInts(n int) []int {
	p := w.ints[n]
	if p == nil {
		p = &intPool{}
		w.ints[n] = p
	}
	if p.next < len(p.items) {
		v := p.items[p.next]
		p.next++
		clear(v)
		return v
	}
	v := make([]int, n)
	p.items = append(p.items, v)
	p.next++
	return v
}

// GetWords returns a zeroed word slice of length n (bitset scratch), valid
// until the next Reset. When the buffer is exhausted a larger one replaces
// it — slices already handed out keep the old one alive until they are
// dropped — so once an epoch's total demand fits, GetWords stops
// allocating.
func (w *Workspace) GetWords(n int) []uint64 {
	if w.next+n > len(w.words) {
		w.words = make([]uint64, max(n, 2*len(w.words)))
		w.next = 0
	}
	v := w.words[w.next : w.next+n : w.next+n]
	w.next += n
	clear(v)
	return v
}

// LU returns the workspace's reusable n×n LU factorization scratch. Unlike
// Get, the same object is returned for every call with the same n (it is
// not consumed): callers refactor it from their own matrix before solving,
// so sequential users cannot observe each other's state. It survives Reset.
func (w *Workspace) LU(n int) *LU {
	f := w.lus[n]
	if f == nil {
		f = NewLU(n)
		w.lus[n] = f
	}
	return f
}

// Reset parks every matrix, vector, index slice and word slice handed out
// since the last Reset, making them available for reuse. Nothing is freed.
func (w *Workspace) Reset() {
	for _, p := range w.mats {
		p.next = 0
	}
	for _, p := range w.vecs {
		p.next = 0
	}
	for _, p := range w.ints {
		p.next = 0
	}
	w.next = 0
}
