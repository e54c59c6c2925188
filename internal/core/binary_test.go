package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"crowdassess/internal/crowd"
	"crowdassess/internal/mat"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// agreementFor returns the expected agreement rate of two workers with
// error rates p1, p2: both right or both wrong.
func agreementFor(p1, p2 float64) float64 {
	return p1*p2 + (1-p1)*(1-p2)
}

func TestFBinaryRecoversErrorRate(t *testing.T) {
	// With all three error rates known, f inverts the agreement equations.
	for _, rates := range [][3]float64{
		{0.2, 0.2, 0.2},
		{0.1, 0.2, 0.3},
		{0.05, 0.4, 0.25},
	} {
		q12 := agreementFor(rates[0], rates[1])
		q13 := agreementFor(rates[0], rates[2])
		q23 := agreementFor(rates[1], rates[2])
		got, err := fBinary(q12, q13, q23)
		if err != nil {
			t.Fatalf("rates %v: %v", rates, err)
		}
		if math.Abs(got-rates[0]) > 1e-12 {
			t.Errorf("rates %v: f = %v, want %v", rates, got, rates[0])
		}
	}
}

func TestFBinaryDegenerate(t *testing.T) {
	cases := [][3]float64{
		{0.5, 0.8, 0.8},
		{0.8, 0.5, 0.8},
		{0.8, 0.8, 0.5},
		{0.3, 0.8, 0.8},
	}
	for _, c := range cases {
		if _, err := fBinary(c[0], c[1], c[2]); !errors.Is(err, ErrDegenerate) {
			t.Errorf("f(%v) err = %v, want ErrDegenerate", c, err)
		}
		if _, _, _, err := fBinaryGrad(c[0], c[1], c[2]); !errors.Is(err, ErrDegenerate) {
			t.Errorf("grad(%v) err = %v, want ErrDegenerate", c, err)
		}
	}
}

// Property: the analytic gradient (Lemma 2) matches central differences.
func TestFBinaryGradMatchesNumeric(t *testing.T) {
	f := func(a8, b8, c8 uint8) bool {
		// Map to agreement rates comfortably above ½.
		a := 0.55 + 0.44*float64(a8)/255
		b := 0.55 + 0.44*float64(b8)/255
		c := 0.55 + 0.44*float64(c8)/255
		da, db, dc, err := fBinaryGrad(a, b, c)
		if err != nil {
			return false
		}
		const h = 1e-6
		num := func(fn func(x float64) (float64, error)) float64 {
			hi, err1 := fn(h)
			lo, err2 := fn(-h)
			if err1 != nil || err2 != nil {
				return math.NaN()
			}
			return (hi - lo) / (2 * h)
		}
		nda := num(func(x float64) (float64, error) { return fBinary(a+x, b, c) })
		ndb := num(func(x float64) (float64, error) { return fBinary(a, b+x, c) })
		ndc := num(func(x float64) (float64, error) { return fBinary(a, b, c+x) })
		tol := 1e-4 * (1 + math.Abs(da) + math.Abs(db) + math.Abs(dc))
		return math.Abs(da-nda) < tol && math.Abs(db-ndb) < tol && math.Abs(dc-ndc) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPairVariance(t *testing.T) {
	if got := pairVariance(0.8, 100); math.Abs(got-0.8*0.2/100) > 1e-15 {
		t.Errorf("pairVariance = %v", got)
	}
	if !math.IsInf(pairVariance(0.8, 0), 1) {
		t.Error("zero common tasks should give infinite variance")
	}
}

// Monte-Carlo check of Lemma 3: the covariance formula for agreement rates
// sharing a worker matches the empirical covariance over many simulations.
func TestLemma3CovarianceMonteCarlo(t *testing.T) {
	const (
		nTasks = 200
		reps   = 3000
	)
	rates := []float64{0.2, 0.25, 0.3}
	var q12s, q13s []float64
	for r := 0; r < reps; r++ {
		src := randx.NewSource(int64(1000 + r))
		ds, _, err := sim.Binary{Tasks: nTasks, Workers: 3, ErrorRates: rates, Density: 0.8}.Generate(src)
		if err != nil {
			t.Fatal(err)
		}
		p12, p13 := ds.Pair(0, 1), ds.Pair(0, 2)
		if p12.Common == 0 || p13.Common == 0 {
			continue
		}
		q12s = append(q12s, p12.Rate())
		q13s = append(q13s, p13.Rate())
	}
	// Empirical covariance of Q12 and Q13 across replicates.
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	m12, m13 := mean(q12s), mean(q13s)
	var emp float64
	for i := range q12s {
		emp += (q12s[i] - m12) * (q13s[i] - m13)
	}
	emp /= float64(len(q12s))
	// Lemma 3 prediction with expected counts: c12 = c13 = n·d², c123 = n·d³.
	d := 0.8
	c12 := int(nTasks * d * d)
	c123 := int(nTasks * d * d * d)
	q23 := agreementFor(rates[1], rates[2])
	pred := pairCovariance(rates[0], q23, c123, c12, c12)
	if emp <= 0 || pred <= 0 {
		t.Fatalf("expected positive covariances, emp=%v pred=%v", emp, pred)
	}
	if ratio := emp / pred; ratio < 0.7 || ratio > 1.4 {
		t.Errorf("Lemma 3 covariance: empirical %v vs predicted %v (ratio %v)", emp, pred, ratio)
	}
}

func TestDeltaMethodLinear(t *testing.T) {
	// Y = 2X₁ − X₂ with Var(X₁)=4, Var(X₂)=1, Cov=1:
	// Var(Y) = 4·4 + 1 − 2·2·1 = 13.
	cov := mat.FromRows([][]float64{{4, 1}, {1, 1}})
	de, err := DeltaMethod(5, []float64{2, -1}, cov)
	if err != nil {
		t.Fatal(err)
	}
	if de.Mean != 5 {
		t.Errorf("Mean = %v", de.Mean)
	}
	if math.Abs(de.Dev-math.Sqrt(13)) > 1e-12 {
		t.Errorf("Dev = %v, want √13", de.Dev)
	}
	iv := de.Interval(0.95)
	if math.Abs(iv.Size()-2*1.959963984540054*math.Sqrt(13)) > 1e-9 {
		t.Errorf("interval size = %v", iv.Size())
	}
}

func TestDeltaMethodShapeMismatch(t *testing.T) {
	cov := mat.New(3, 3)
	if _, err := DeltaMethod(0, []float64{1, 2}, cov); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestDeltaMethodNegativeVariance(t *testing.T) {
	// Tiny negative quadratic form is clamped to zero...
	cov := mat.FromRows([][]float64{{-1e-12}})
	de, err := DeltaMethod(0, []float64{1}, cov)
	if err != nil || de.Dev != 0 {
		t.Errorf("tiny negative variance: dev=%v err=%v", de.Dev, err)
	}
	// ...while a grossly negative one is rejected.
	cov = mat.FromRows([][]float64{{-1}})
	if _, err := DeltaMethod(0, []float64{1}, cov); !errors.Is(err, ErrDegenerate) {
		t.Errorf("gross negative variance err = %v", err)
	}
}

func TestThreeWorkerBinaryPointEstimate(t *testing.T) {
	src := randx.NewSource(5)
	rates := []float64{0.1, 0.2, 0.3}
	ds, _, err := sim.Binary{Tasks: 20000, Workers: 3, ErrorRates: rates}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := ThreeWorkerBinary(ds, [3]int{0, 1, 2}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for w, want := range rates {
		if math.Abs(ivs[w].Mean-want) > 0.02 {
			t.Errorf("worker %d: mean %v, want ≈%v", w, ivs[w].Mean, want)
		}
		if !ivs[w].Contains(want) {
			t.Errorf("worker %d: interval %v misses %v", w, ivs[w], want)
		}
	}
}

func TestThreeWorkerBinaryNonRegular(t *testing.T) {
	src := randx.NewSource(6)
	rates := []float64{0.15, 0.25, 0.2}
	ds, _, err := sim.Binary{Tasks: 5000, Workers: 3, ErrorRates: rates, Density: 0.7}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := ThreeWorkerBinary(ds, [3]int{0, 1, 2}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for w, want := range rates {
		if math.Abs(ivs[w].Mean-want) > 0.04 {
			t.Errorf("worker %d: mean %v, want ≈%v", w, ivs[w].Mean, want)
		}
	}
}

func TestThreeWorkerBinaryCoverage(t *testing.T) {
	// Empirical coverage of the 80% interval across replicates should land
	// near 0.8 (Fig. 2(a) behaviour). Allow a generous band: this is a
	// statistical test with 250 replicates.
	const reps = 250
	const c = 0.8
	hits, total := 0, 0
	for r := 0; r < reps; r++ {
		src := randx.NewSource(int64(40000 + r))
		ds, rates, err := sim.Binary{Tasks: 150, Workers: 3, Density: 0.8}.Generate(src)
		if err != nil {
			t.Fatal(err)
		}
		ivs, err := ThreeWorkerBinary(ds, [3]int{0, 1, 2}, c)
		if err != nil {
			continue // degenerate replicate, as in the paper's harness
		}
		for w := 0; w < 3; w++ {
			total++
			if ivs[w].Contains(rates[w]) {
				hits++
			}
		}
	}
	if total < reps { // nearly all replicates must be usable
		t.Fatalf("only %d usable interval checks", total)
	}
	coverage := float64(hits) / float64(total)
	if coverage < 0.70 || coverage > 0.92 {
		t.Errorf("coverage %v at c=%v", coverage, c)
	}
}

func TestThreeWorkerBinaryErrors(t *testing.T) {
	ds := crowd.MustNewDataset(3, 10, 2)
	// No responses at all → insufficient data.
	if _, err := ThreeWorkerBinary(ds, [3]int{0, 1, 2}, 0.9); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("err = %v, want ErrInsufficientData", err)
	}
	// k-ary dataset rejected.
	ds3 := crowd.MustNewDataset(3, 10, 3)
	if _, err := ThreeWorkerBinary(ds3, [3]int{0, 1, 2}, 0.9); err == nil {
		t.Error("arity-3 dataset accepted")
	}
	// Bad confidence level rejected.
	ds2 := crowd.MustNewDataset(3, 10, 2)
	if _, err := ThreeWorkerBinary(ds2, [3]int{0, 1, 2}, 0); err == nil {
		t.Error("confidence 0 accepted")
	}
	if _, err := ThreeWorkerBinary(ds2, [3]int{0, 1, 2}, 1); err == nil {
		t.Error("confidence 1 accepted")
	}
	// An agreement rate at or below ½ is named in the error: q_ab = 0.3,
	// q_ac = 0.9, q_bc = 0.4 over ten shared tasks.
	dsLow := crowd.MustNewDataset(3, 10, 2)
	for task := 0; task < 10; task++ {
		b, c := crowd.Yes, crowd.Yes
		if task >= 3 {
			b = crowd.No
		}
		if task == 9 {
			c = crowd.No
		}
		for w, r := range []crowd.Response{crowd.Yes, b, c} {
			if err := dsLow.SetResponse(w, task, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, err := ThreeWorkerBinary(dsLow, [3]int{0, 1, 2}, 0.9)
	if want := "core: agreement rate ≤ ½ (q=0.3,0.9,0.4): core: degenerate sample"; err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
	if !errors.Is(err, ErrDegenerate) {
		t.Errorf("err = %v, want ErrDegenerate", err)
	}
}

func TestEvaluateWorkersBasics(t *testing.T) {
	src := randx.NewSource(7)
	ds, rates, err := sim.Binary{Tasks: 400, Workers: 7, Density: 0.8}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	ests, err := EvaluateWorkers(ds, EvalOptions{Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 7 {
		t.Fatalf("%d estimates", len(ests))
	}
	okCount := 0
	for _, e := range ests {
		if e.Err != nil {
			continue
		}
		okCount++
		if e.Triples != 3 {
			t.Errorf("worker %d used %d triples, want 3", e.Worker, e.Triples)
		}
		if math.Abs(e.Interval.Mean-rates[e.Worker]) > 0.15 {
			t.Errorf("worker %d mean %v vs true %v", e.Worker, e.Interval.Mean, rates[e.Worker])
		}
	}
	if okCount < 6 {
		t.Errorf("only %d/7 workers evaluated", okCount)
	}
}

// TestEvaluateWorkersCoverage holds empirical interval coverage near the
// nominal confidence over fixed-seed sweeps. The sparse row runs the
// restricted triple counts (every worker attends ≤¼ of the tasks) at the
// pool's default confidence of 0.90.
func TestEvaluateWorkersCoverage(t *testing.T) {
	cases := []struct {
		name           string
		workers, tasks int
		density, c     float64
		reps           int
		seed           int64
		minPerRep      int // usable intervals required per replicate, on average
		lo, hi         float64
	}{
		{"dense m=7 c=0.8", 7, 120, 0.8, 0.8, 120, 50000, 5, 0.70, 0.92},
		{"sparse m=32 c=0.9", 32, 1500, 0.1, 0.9, 60, 90000, 30, 0.85, 0.95},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hits, total := 0, 0
			for r := 0; r < tc.reps; r++ {
				src := randx.NewSource(tc.seed + int64(r))
				ds, rates, err := sim.Binary{Tasks: tc.tasks, Workers: tc.workers, Density: tc.density}.Generate(src)
				if err != nil {
					t.Fatal(err)
				}
				ests, err := EvaluateWorkers(ds, EvalOptions{Confidence: tc.c})
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range ests {
					if e.Err != nil {
						continue
					}
					total++
					if e.Interval.Contains(rates[e.Worker]) {
						hits++
					}
				}
			}
			if total < tc.reps*tc.minPerRep {
				t.Fatalf("only %d usable intervals", total)
			}
			coverage := float64(hits) / float64(total)
			if coverage < tc.lo || coverage > tc.hi {
				t.Errorf("m-worker coverage %v at c=%v, want [%v, %v]", coverage, tc.c, tc.lo, tc.hi)
			}
		})
	}
}

func TestOptimalWeightsTighterThanUniform(t *testing.T) {
	// Fig. 2(c): heterogeneous densities make optimized weights matter.
	var optSum, uniSum float64
	count := 0
	for r := 0; r < 40; r++ {
		src := randx.NewSource(int64(60000 + r))
		ds, _, err := sim.Binary{
			Tasks:     100,
			Workers:   7,
			Densities: sim.Fig2cDensities(7),
		}.Generate(src)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := EvaluateWorkers(ds, EvalOptions{Confidence: 0.8, Weights: OptimalWeights})
		if err != nil {
			t.Fatal(err)
		}
		uni, err := EvaluateWorkers(ds, EvalOptions{Confidence: 0.8, Weights: UniformWeights})
		if err != nil {
			t.Fatal(err)
		}
		for w := range opt {
			if opt[w].Err != nil || uni[w].Err != nil {
				continue
			}
			optSum += opt[w].Interval.Size()
			uniSum += uni[w].Interval.Size()
			count++
		}
	}
	if count == 0 {
		t.Fatal("no usable estimates")
	}
	if optSum >= uniSum {
		t.Errorf("optimal weights not tighter: opt %v vs uniform %v", optSum/float64(count), uniSum/float64(count))
	}
}

func TestEvaluateWorkersValidation(t *testing.T) {
	ds := crowd.MustNewDataset(2, 5, 2)
	if _, err := EvaluateWorkers(ds, EvalOptions{Confidence: 0.9}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("2 workers: err = %v", err)
	}
	ds3 := crowd.MustNewDataset(3, 5, 3)
	if _, err := EvaluateWorkers(ds3, EvalOptions{Confidence: 0.9}); err == nil {
		t.Error("k-ary dataset accepted")
	}
	dsOK := crowd.MustNewDataset(3, 5, 2)
	if _, err := EvaluateWorkers(dsOK, EvalOptions{Confidence: 2}); err == nil {
		t.Error("confidence 2 accepted")
	}
}

func TestEvaluateWorkersIsolatedWorker(t *testing.T) {
	// Worker 3 shares no tasks with anyone → per-worker error, others fine.
	src := randx.NewSource(8)
	ds, _, err := sim.Binary{Tasks: 300, Workers: 4, Densities: []float64{1, 1, 1, 0}}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	ests, err := EvaluateWorkers(ds, EvalOptions{Confidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if ests[3].Err == nil {
		t.Error("isolated worker got an estimate")
	}
	for w := 0; w < 3; w++ {
		if ests[w].Err != nil {
			t.Errorf("worker %d failed: %v", w, ests[w].Err)
		}
	}
}

func TestFormPairsGreedyPrefersOverlap(t *testing.T) {
	// Workers 1,2 overlap heavily with worker 0; workers 3,4 barely.
	src := randx.NewSource(9)
	ds, _, err := sim.Binary{
		Tasks:     200,
		Workers:   5,
		Densities: []float64{1, 1, 1, 0.3, 0.3},
	}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	pairs := formPairs(datasetStats(ds), 5, 0, GreedyPairing, 1, mat.NewWorkspace())
	if len(pairs) != 4 {
		t.Fatalf("pairs = %v", pairs)
	}
	// First pair should be the two high-overlap workers.
	first := pairs[:2]
	if !((first[0] == 1 && first[1] == 2) || (first[0] == 2 && first[1] == 1)) {
		t.Errorf("greedy first pair = %v, want {1,2}", first)
	}
}

func TestOptimalWeightsLemma5(t *testing.T) {
	// For a diagonal covariance the optimal weights are ∝ 1/σ²_k.
	cov := mat.FromRows([][]float64{{1, 0}, {0, 4}})
	w, err := optimalWeights(cov)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-0.8) > 1e-12 || math.Abs(w[1]-0.2) > 1e-12 {
		t.Errorf("weights = %v, want [0.8 0.2]", w)
	}
	// Weights must always sum to 1.
	var sum float64
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %v", sum)
	}
}

// TestOptimalWeightsMixedSigns pins the normalization by ΣB, not ‖B‖₁: for
// the positive definite C = [[1, 1.5], [1.5, 4]], B = C⁻¹𝟙 ∝ [2.5, −0.5]
// has mixed signs, and the constrained optimum is B/ΣB = [1.25, −0.25],
// which sums to 1 and reaches aᵀCa = 1/ΣB.
func TestOptimalWeightsMixedSigns(t *testing.T) {
	cov := mat.FromRows([][]float64{{1, 1.5}, {1.5, 4}})
	w, err := optimalWeights(cov)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-1.25) > 1e-12 || math.Abs(w[1]+0.25) > 1e-12 {
		t.Errorf("weights = %v, want [1.25 -0.25]", w)
	}
	if sum := w[0] + w[1]; math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %v", sum)
	}
	inv := mat.New(2, 2)
	if err := mat.InverseTo(inv, cov, nil); err != nil {
		t.Fatal(err)
	}
	sumB := inv.At(0, 0) + inv.At(0, 1) + inv.At(1, 0) + inv.At(1, 1) // ΣC⁻¹𝟙
	quad := w[0]*w[0]*cov.At(0, 0) + 2*w[0]*w[1]*cov.At(0, 1) + w[1]*w[1]*cov.At(1, 1)
	if want := 1 / sumB; math.Abs(quad-want) > 1e-12 {
		t.Errorf("aᵀCa = %v, want 1/ΣB = %v", quad, want)
	}
}

// Property: for random PSD covariance matrices, Lemma 5's weights achieve a
// variance no larger than uniform weights.
func TestOptimalWeightsBeatUniformProperty(t *testing.T) {
	f := func(seed int64) bool {
		src := randx.NewSource(seed)
		l := 2 + src.Intn(5)
		// Build a PSD matrix C = GGᵀ + δI.
		g := mat.New(l, l)
		for i := 0; i < l; i++ {
			for j := 0; j < l; j++ {
				g.Set(i, j, src.NormFloat64())
			}
		}
		gt := mat.New(l, l)
		mat.TTo(gt, g)
		cov := mat.New(l, l)
		mat.MulTo(cov, g, gt)
		for i := 0; i < l; i++ {
			cov.Set(i, i, cov.At(i, i)+0.1)
		}
		w, err := optimalWeights(cov)
		if err != nil {
			return true // singular draw: nothing to check
		}
		quad := func(a []float64) float64 {
			var s float64
			for i := range a {
				for j := range a {
					s += a[i] * a[j] * cov.At(i, j)
				}
			}
			return s
		}
		return quad(w) <= quad(uniformWeights(l, mat.NewWorkspace()))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPruneSpammers(t *testing.T) {
	src := randx.NewSource(10)
	// Workers 0-4 decent, workers 5-6 pure spammers (error ≈ 0.5).
	rates := []float64{0.1, 0.15, 0.2, 0.1, 0.25, 0.49, 0.49}
	ds, _, err := sim.Binary{Tasks: 300, Workers: 7, ErrorRates: rates}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	pruned, keep, err := PruneSpammers(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range keep {
		if w == 5 || w == 6 {
			t.Errorf("spammer %d survived", w)
		}
	}
	if pruned.Workers() != len(keep) || pruned.Workers() < 5 {
		t.Errorf("kept %d workers: %v", pruned.Workers(), keep)
	}
}

func TestPruneSpammersTooFew(t *testing.T) {
	src := randx.NewSource(11)
	ds, _, err := sim.Binary{Tasks: 100, Workers: 3, ErrorRates: []float64{0.1, 0.1, 0.1}}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	// Absurd threshold removes everyone.
	if _, _, err := PruneSpammers(ds, 1e-9); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("err = %v, want ErrInsufficientData", err)
	}
}
