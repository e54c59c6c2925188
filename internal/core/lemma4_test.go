package core

import (
	"fmt"
	"math"
	"testing"

	"crowdassess/internal/crowd"
	"crowdassess/internal/mat"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
	"crowdassess/internal/stat"
)

// optimalWeights is the dense-input form of Lemma 5, for tests that hold
// an explicit covariance matrix. It solves with a fresh workspace and
// returns a copy of the weights.
func optimalWeights(cov *mat.Matrix) ([]float64, error) {
	w, err := solveWeights(cov, mat.NewWorkspace())
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), w...), nil
}

// solveCov assembles worker i's structured Lemma-4 covariance from src
// exactly as solveWorker does, with the triple counts laid out by mode:
// form pairs, keep the non-degenerate triples, register each triple's
// variance and own-pair gradients, and pool the error rate. It rewinds ws.
func solveCov(src agreementSource, m, i int, mode tripleMode, ws *mat.Workspace) Lemma4Cov {
	ws.Reset()
	pairs := formPairs(src, m, i, GreedyPairing, 1, ws)
	var counts tripleCounts
	counts.init(src, m, i, pairs, mode, ws)
	cov := newLemma4Cov(counts, len(pairs)/2, ws)
	tripleCov := ws.Get(3, 3)
	var pPool float64
	for k := 0; k < len(pairs); k += 2 {
		j1, j2 := pairs[k], pairs[k+1]
		st, err := newTripleStats(src, i, j1, j2, counts.common3(j1, j2), tripleCov)
		if err != nil {
			continue
		}
		de, err := st.estimate(0)
		if err != nil {
			continue
		}
		pPool += de.Mean
		cov.add(de.Dev*de.Dev, st.grad[0][0], j1, st.grad[0][1], j2)
	}
	if l := cov.Dim(); l > 0 {
		cov.pPool = stat.Clamp01(pPool / float64(l))
	}
	return cov
}

// buildLemma4 assembles the structured Lemma-4 covariance for one worker of
// a simulated binary crowd, as solveWorker does.
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
	cov := solveCov(datasetStats(ds), workers, worker, triplesAuto, mat.NewWorkspace())
	if cov.Dim() < 2 {
		t.Fatalf("only %d usable triples", cov.Dim())
	}
	return &cov
}

// blockCrowd is a binary crowd whose worker 0 answers all 200 tasks while
// workers 1 and 2 answer only the first 100 and workers 3 and 4 only the
// last 100, each wrong on every tenth of its tasks. Worker 0's triples are
// (0, 1, 2) and (0, 3, 4), so every cross-triple count c_{0,j,j′} is 0
// although each c_{0,j} is 100.
func blockCrowd(t *testing.T) *crowd.Dataset {
	t.Helper()
	ds := crowd.MustNewDataset(5, 200, 2)
	for w := 0; w < 5; w++ {
		for task := 0; task < 200; task++ {
			if w > 0 && (task < 100) != (w <= 2) {
				continue
			}
			r := crowd.Yes
			if (task+3*w)%10 == 0 {
				r = crowd.No
			}
			if err := ds.SetResponse(w, task, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ds
}

// TestLemma4MaterializeBitIdentical pins the fused MaterializeInto to the
// per-entry formula: every off-diagonal entry must have the Float64bits of
// entry (lemma4C per term) and of the reference below, which recomputes
// each C(i, j, j′) from pair lookups and a three-way count over the raw
// attendance bitsets, as the formula reads in Lemma 4. Every worker is
// checked under both triple-count paths, on the batch statistics and on
// ShardedIncremental's merged statistics at 1, 2 and 7 shards, over crowds
// that give one triple, two triples whose cross counts are all zero, and
// many triples of mixed density.
func TestLemma4MaterializeBitIdentical(t *testing.T) {
	mixedDensities := make([]float64, 14)
	for w := range mixedDensities {
		mixedDensities[w] = []float64{0.1, 0.2, 0.5, 0.9}[w%4]
	}
	mixed, _, err := sim.Binary{Tasks: 1200, Workers: 14, Densities: mixedDensities, ErrorRateChoices: []float64{0.1, 0.2}}.Generate(randx.NewSource(31))
	if err != nil {
		t.Fatal(err)
	}
	three, _, err := sim.Binary{Tasks: 150, Workers: 3, Density: 0.9, ErrorRateChoices: []float64{0.1}}.Generate(randx.NewSource(32))
	if err != nil {
		t.Fatal(err)
	}
	dims := map[int]bool{}
	zeroCross := false
	ws := mat.NewWorkspace()
	for _, c := range []struct {
		name string
		ds   *crowd.Dataset
	}{{"three", three}, {"block", blockCrowd(t)}, {"mixed", mixed}} {
		m := c.ds.Workers()
		sources := []struct {
			name string
			src  agreementSource
		}{{"batch", datasetStats(c.ds)}}
		for _, shards := range []int{1, 2, 7} {
			s, _ := NewShardedIncremental(m, shards)
			for _, x := range shuffledStream(t, c.ds, 33) {
				if err := s.Add(x.w, x.t, x.r); err != nil {
					t.Fatal(err)
				}
			}
			sources = append(sources, struct {
				name string
				src  agreementSource
			}{fmt.Sprintf("shards=%d", shards), s.snapshot().stats})
		}
		for _, sc := range sources {
			for i := 0; i < m; i++ {
				for _, mode := range []tripleMode{triplesRestricted, triplesFull} {
					cov := solveCov(sc.src, m, i, mode, ws)
					l := cov.Dim()
					dims[l] = true
					dense := mat.New(l, l)
					cov.MaterializeInto(dense)
					for k1 := 0; k1 < l; k1++ {
						if got, want := dense.At(k1, k1), cov.diag[k1]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s %s worker %d mode %d: Σ[%d][%d] = %v, want %v", c.name, sc.name, i, mode, k1, k1, got, want)
						}
						for k2 := 0; k2 < l; k2++ {
							if k1 == k2 {
								continue
							}
							got := math.Float64bits(dense.At(k1, k2))
							if want := math.Float64bits(cov.entry(k1, k2)); got != want {
								t.Fatalf("%s %s worker %d mode %d: Σ[%d][%d] bits %x, entry %x", c.name, sc.name, i, mode, k1, k2, got, want)
							}
							if want := math.Float64bits(referenceEntry(&cov, sc.src, k1, k2, &zeroCross)); got != want {
								t.Fatalf("%s %s worker %d mode %d: Σ[%d][%d] bits %x, reference %x", c.name, sc.name, i, mode, k1, k2, got, want)
							}
						}
					}
				}
			}
		}
	}
	if !dims[1] || !dims[2] {
		t.Errorf("covered triple counts %v, want 1 and 2 among them", dims)
	}
	if !zeroCross {
		t.Error("no entry had a partner pair with c3 = 0")
	}
}

// referenceEntry recomputes Σ[k1][k2] of cov from src's pair lookups and
// a three-way count over the raw bitsets, summing the four terms in
// entry's order. It sets *zeroCross when some term has c_{i,j} and
// c_{i,j′} nonzero but c_{i,j,j′} = 0.
func referenceEntry(cov *Lemma4Cov, src agreementSource, k1, k2 int, zeroCross *bool) float64 {
	if k1 > k2 {
		k1, k2 = k2, k1
	}
	i, pI := cov.counts.i, cov.pPool
	term := func(j, jp int) float64 {
		cij, cijp := src.pair(i, j).Common, src.pair(i, jp).Common
		if cij == 0 || cijp == 0 {
			return 0
		}
		c3 := and3Count(src.attendance(i), src.attendance(j), src.attendance(jp))
		if c3 == 0 {
			*zeroCross = true
			return 0
		}
		q := src.pair(j, jp).Rate()
		return float64(c3) * pI * (1 - pI) * (2*q - 1) / (float64(cij) * float64(cijp))
	}
	var v float64
	v += cov.d1[k1] * cov.d1[k2] * term(cov.j1[k1], cov.j1[k2])
	v += cov.d1[k1] * cov.d2[k2] * term(cov.j1[k1], cov.j2[k2])
	v += cov.d2[k1] * cov.d1[k2] * term(cov.j2[k1], cov.j1[k2])
	v += cov.d2[k1] * cov.d2[k2] * term(cov.j2[k1], cov.j2[k2])
	return v
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
