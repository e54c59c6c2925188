package mat

// Workspace is a scratch-memory arena for the destination-passing API: it
// hands out matrices, vectors, index slices and bitset words from bump
// buffers, and one LU factorization resized to the largest system it has
// solved, so iterative callers (the A3 spectral step, the A2 covariance
// solve) reach a steady state of zero heap allocations.
//
// The protocol is bump-allocation with bulk release: Get, GetVec, GetInts
// and GetWords carve the next free span of one buffer per element type, and
// Reset rewinds every buffer without freeing it. There is no per-object
// Put — callers reset once per outer iteration (e.g. once per probEstimate
// pair in the gradient loop) and everything handed out since the previous
// Reset is recycled at once. A workspace's memory is bounded by its largest
// epoch (the requests between two Resets), not by the number of distinct
// shapes it has served: see arena.take.
//
// A Workspace is NOT safe for concurrent use: parallel code keeps one
// workspace per goroutine. Production solves reach their workspaces
// through a core.Solver, and keep one Solver per goroutine: the figure
// runners' queue (eval's runGrid) one per queue goroutine, and a
// StatsAccumulator one per fan-out goroutine. The zero value is an empty
// workspace, ready to use.
type Workspace struct {
	floats arena[float64] // matrix data and GetVec slices
	ints   arena[int]
	words  arena[uint64]

	// mats are the matrix headers Get hands out, reused in order from one
	// epoch to the next; nmats is how many this epoch has taken.
	mats  []*Matrix
	nmats int

	lu LU
}

// arena is a bump buffer: take carves the next n elements, reset rewinds.
type arena[T any] struct {
	buf  []T
	next int // elements taken this epoch: the offset of the next take
}

// take returns a zeroed slice of n elements, valid until the next reset.
// A request keeps the offset it would have in one buffer holding the whole
// epoch: when the buffer is too short, a longer one replaces it (slices
// already handed out keep the old one alive until they are dropped) and
// the request lands at the same offset in the new buffer. The buffer
// therefore ends every epoch at least as long as the epoch's demand, so a
// repeat of the epoch allocates nothing, and it only ever grows to
// max(demand so far, twice its old length), which is below twice the
// largest epoch's demand.
func (a *arena[T]) take(n int) []T {
	end := a.next + n
	if end > len(a.buf) {
		a.buf = make([]T, max(end, 2*len(a.buf)))
	}
	v := a.buf[a.next:end:end]
	a.next = end
	clear(v)
	return v
}

// NewWorkspace returns an empty workspace. Buffers grow on demand; a warmed
// workspace (one that has already served the caller's request pattern once)
// serves every subsequent request without allocating.
func NewWorkspace() *Workspace {
	return &Workspace{}
}

// Get returns a zeroed r×c matrix owned by the workspace. The matrix is
// valid until the next Reset; callers must not retain it past that. It
// panics if either dimension is not positive.
func (w *Workspace) Get(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		return New(r, c) // panics with New's message
	}
	if w.nmats == len(w.mats) {
		w.mats = append(w.mats, new(Matrix))
	}
	m := w.mats[w.nmats]
	w.nmats++
	*m = Matrix{rows: r, cols: c, data: w.floats.take(r * c)}
	return m
}

// GetVec returns a zeroed float slice of length n, valid until the next
// Reset.
func (w *Workspace) GetVec(n int) []float64 { return w.floats.take(n) }

// GetInts returns a zeroed int slice of length n, valid until the next
// Reset.
func (w *Workspace) GetInts(n int) []int { return w.ints.take(n) }

// GetWords returns a zeroed word slice of length n (bitset scratch), valid
// until the next Reset.
func (w *Workspace) GetWords(n int) []uint64 { return w.words.take(n) }

// LU returns the workspace's reusable LU factorization scratch, sized for
// n×n systems. It is one object for every n, resized in place, and it
// survives Reset: callers refactor it from their own matrix before
// solving, so sequential users cannot observe each other's state, and a
// caller must not hold it across an LU call of another size.
func (w *Workspace) LU(n int) *LU {
	w.lu.resize(n)
	return &w.lu
}

// Reset rewinds every buffer, making everything handed out since the last
// Reset available for reuse. Nothing is freed.
func (w *Workspace) Reset() {
	w.floats.next, w.ints.next, w.words.next = 0, 0, 0
	w.nmats = 0
}
