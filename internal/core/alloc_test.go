package core

import (
	"testing"

	"crowdassess/internal/crowd"
	"crowdassess/internal/mat"
)

// Allocation-regression tests for the zero-allocation spectral pipeline:
// these run under plain `go test ./...`, so tier-1 CI catches any change
// that reintroduces per-call heap traffic on the A3/A2 hot paths.

// TestProbEstimateSteadyStateZeroAllocs asserts that after one warm-up call
// populates the workspace pools, probEstimate — the function the A3
// gradient loop calls 2k³+1 times per response-matrix entry — allocates
// nothing, across arities.
func TestProbEstimateSteadyStateZeroAllocs(t *testing.T) {
	for _, k := range []int{2, 3, 4, 6} {
		counts := synthCounts(k, 5000)
		ws := mat.NewWorkspace()
		// Warm-up: grow every pool to the call's working set.
		ws.Reset()
		if _, err := probEstimate(counts, ws); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			ws.Reset()
			if _, err := probEstimate(counts, ws); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
		})
		if allocs != 0 {
			t.Errorf("k=%d: steady-state probEstimate allocates %.1f times per call, want 0", k, allocs)
		}
	}
}

// TestGradientEntryZeroAllocs exercises the exact shape of the gradient
// loop body: one Reset serving a +ε and a −ε estimate whose results are
// read together. This is the steady state the 2k³ central-difference calls
// run in.
func TestGradientEntryZeroAllocs(t *testing.T) {
	const k = 3
	counts := synthCounts(k, 5000)
	ws := mat.NewWorkspace()
	eps := 0.01
	entry := func() {
		ws.Reset()
		orig := counts.At(1, 2, 3)
		counts.Set(1, 2, 3, orig+eps)
		plus, errP := probEstimate(counts, ws)
		counts.Set(1, 2, 3, orig-eps)
		minus, errM := probEstimate(counts, ws)
		counts.Set(1, 2, 3, orig)
		if errP != nil || errM != nil {
			t.Fatal(errP, errM)
		}
		if plus.v[0].At(0, 0) == minus.v[0].At(0, 0) && plus.v[0].At(0, 0) == 0 {
			t.Fatal("implausible zero estimates")
		}
	}
	entry() // warm-up
	if allocs := testing.AllocsPerRun(20, entry); allocs != 0 {
		t.Errorf("gradient entry allocates %.1f times, want 0", allocs)
	}
}

// TestLemma4QuadZeroAllocs asserts the structured Lemma-4 quadratic form —
// Theorem 1's dᵀΣd on the A2 hot path — is allocation-free.
func TestLemma4QuadZeroAllocs(t *testing.T) {
	cov := buildLemma4(t, 23, 15, 200, 0)
	d := uniformWeights(cov.Dim(), mat.NewWorkspace())
	var sink float64
	if allocs := testing.AllocsPerRun(50, func() {
		sink = cov.Quad(d)
		sink += cov.DiagAbsQuad(d)
	}); allocs != 0 {
		t.Errorf("Lemma-4 quad form allocates %.1f times, want 0", allocs)
	}
	_ = sink
}

// TestAddExistingTaskZeroAllocs asserts that a response to a task that
// already has a column, from a worker whose attendance bitset already
// reaches it, allocates nothing: it sets two bits of the column and bumps
// counters. A cut beforehand checks that the marks it clears keep their
// storage.
func TestAddExistingTaskZeroAllocs(t *testing.T) {
	const runs = 50
	s, err := NewShardedIncremental(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 gives tasks 0…runs a column each; worker 1's bitset reaches
	// past them.
	for task := 0; task <= runs; task++ {
		if err := s.Add(0, task, crowd.Yes); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Add(1, runs+1, crowd.No); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CutStats(0); err != nil {
		t.Fatal(err)
	}
	task := 0 // AllocsPerRun calls once more than runs, so tasks 0…runs
	if allocs := testing.AllocsPerRun(runs, func() {
		if err := s.Add(1, task, crowd.Yes); err != nil {
			t.Fatal(err)
		}
		task++
	}); allocs != 0 {
		t.Errorf("Add into an existing task column allocates %.1f times per call, want 0", allocs)
	}
}
