package core

import (
	"math"
	"testing"

	"crowdassess/internal/mat"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// buildLemma4 assembles the structured Lemma-4 covariance for one worker of
// a simulated binary crowd, exactly as evaluateOne does: form pairs, keep
// the non-degenerate triples, pool the error rate, and register each
// triple's variance and own-pair gradients.
func buildLemma4(t testing.TB, seed int64, workers, tasks, worker int) *Lemma4Cov {
	t.Helper()
	src := randx.NewSource(seed)
	densities := make([]float64, workers)
	for i := range densities {
		densities[i] = 1 - 0.05*float64(i%7)
	}
	ds, _, err := sim.Binary{Tasks: tasks, Workers: workers, Densities: densities}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	cache := newFullStatsCache(ds)
	ws := mat.NewWorkspace()
	pairs := formPairs(cache, workers, worker, GreedyPairing, 1, ws)
	if len(pairs) == 0 {
		t.Fatal("no pairs formed")
	}
	var counts tripleCounts
	counts.init(cache, workers, worker, pairs, triplesAuto, ws)
	type entry struct {
		variance, d1, d2 float64
		j1, j2           int
	}
	var entries []entry
	var pPool float64
	for k := 0; k < len(pairs); k += 2 {
		j1, j2 := pairs[k], pairs[k+1]
		st, err := newTripleStats(cache, worker, j1, j2, counts.common3(j1, j2), mat.New(3, 3))
		if err != nil {
			continue
		}
		de, err := st.estimate(0)
		if err != nil {
			continue
		}
		entries = append(entries, entry{de.Dev * de.Dev, st.grad[0][0], st.grad[0][1], j1, j2})
		pPool += de.Mean
	}
	if len(entries) < 2 {
		t.Fatalf("only %d usable triples", len(entries))
	}
	pPool /= float64(len(entries))
	cov := newLemma4Cov(counts, len(entries), ws)
	cov.pPool = pPool
	for _, e := range entries {
		cov.add(e.variance, e.d1, e.j1, e.d2, e.j2)
	}
	return &cov
}

// TestLemma4QuadMatchesDense is the acceptance check for the structured
// Lemma-4 covariance: the on-the-fly quadratic form and the materialized
// dense path must agree to 1e-12 (relative) across crowd shapes and random
// gradients — the same pattern as the MultinomialCov acceptance test.
func TestLemma4QuadMatchesDense(t *testing.T) {
	src := randx.NewSource(17)
	for trial, cfg := range []struct {
		workers, tasks int
	}{
		{5, 120}, {9, 200}, {15, 150}, {21, 300}, {31, 250},
	} {
		cov := buildLemma4(t, int64(100+trial), cfg.workers, cfg.tasks, trial%3)
		l := cov.Dim()
		dense := mat.New(l, l)
		cov.MaterializeInto(dense)
		for rep := 0; rep < 10; rep++ {
			d := make([]float64, l)
			for i := range d {
				d[i] = 2*src.Float64() - 1
			}
			fast := cov.Quad(d)
			slow := (DenseCov{dense}).Quad(d)
			scale := math.Abs(slow)
			if scale < 1 {
				scale = 1
			}
			if math.Abs(fast-slow) > 1e-12*scale {
				t.Errorf("m=%d l=%d rep %d: structured %v vs dense %v", cfg.workers, l, rep, fast, slow)
			}
			fd, sd := cov.DiagAbsQuad(d), (DenseCov{dense}).DiagAbsQuad(d)
			if math.Abs(fd-sd) > 1e-12*(1+math.Abs(sd)) {
				t.Errorf("m=%d rep %d: diag %v vs dense diag %v", cfg.workers, rep, fd, sd)
			}
		}
	}
}

// TestLemma4OptimalWeightsMatchDense pins the Lemma 5 weight solve through
// the structured covariance to the dense-matrix solve.
func TestLemma4OptimalWeightsMatchDense(t *testing.T) {
	cov := buildLemma4(t, 9, 15, 200, 0)
	l := cov.Dim()
	dense := mat.New(l, l)
	cov.MaterializeInto(dense)
	want, err := optimalWeights(dense)
	if err != nil {
		t.Fatal(err)
	}
	got, err := optimalWeightsCov(cov, mat.NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("weight %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func benchLemma4(b *testing.B, workers int) (*Lemma4Cov, []float64) {
	cov := buildLemma4(b, 23, workers, 300, 0)
	w := uniformWeights(cov.Dim(), mat.NewWorkspace())
	return cov, w
}
