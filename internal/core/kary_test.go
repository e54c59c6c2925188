package core

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"crowdassess/internal/crowd"
	"crowdassess/internal/mat"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// exactCounts builds the counts tensor a regular dataset would produce in
// expectation: counts[a][b][c] = n·Σ_t s_t·P1[t,a]·P2[t,b]·P3[t,c].
func exactCounts(n float64, sel []float64, p1, p2, p3 sim.Confusion) *crowd.Tensor3 {
	k := len(sel)
	t3 := crowd.NewTensor3(k)
	for a := 1; a <= k; a++ {
		for b := 1; b <= k; b++ {
			for c := 1; c <= k; c++ {
				var v float64
				for t := 0; t < k; t++ {
					v += sel[t] * p1[t][a-1] * p2[t][b-1] * p3[t][c-1]
				}
				t3.Set(a, b, c, n*v)
			}
		}
	}
	return t3
}

// expectedV returns S^{1/2}·P as a matrix.
func expectedV(sel []float64, p sim.Confusion) *mat.Matrix {
	k := len(sel)
	v := mat.New(k, k)
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			v.Set(a, b, math.Sqrt(sel[a])*p[a][b])
		}
	}
	return v
}

// TestProbEstimateExact feeds ProbEstimate the exact expected counts and
// checks that it recovers S^{1/2}·P_i for all three workers. This pins down
// the reading of Algorithm A3's step 6.c, which the paper's scanned text
// leaves ambiguous: a wrong reading fails this exact-arithmetic check.
func TestProbEstimateExact(t *testing.T) {
	cases := []struct {
		name       string
		sel        []float64
		p1, p2, p3 sim.Confusion
	}{
		{
			name: "arity2-distinct",
			sel:  []float64{0.6, 0.4},
			p1:   sim.PaperMatricesArity2[0],
			p2:   sim.PaperMatricesArity2[1],
			p3:   sim.PaperMatricesArity2[0],
		},
		{
			name: "arity3-paper",
			sel:  []float64{0.3, 0.4, 0.3},
			p1:   sim.PaperMatricesArity3[0],
			p2:   sim.PaperMatricesArity3[1],
			p3:   sim.PaperMatricesArity3[2],
		},
		{
			name: "arity4-paper",
			sel:  []float64{0.25, 0.25, 0.25, 0.25},
			p1:   sim.PaperMatricesArity4[0],
			p2:   sim.PaperMatricesArity4[1],
			p3:   sim.PaperMatricesArity4[2],
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			counts := exactCounts(10000, tc.sel, tc.p1, tc.p2, tc.p3)
			est, err := probEstimate(counts, KAryOptions{Confidence: 0.9}, mat.NewWorkspace())
			if err != nil {
				t.Fatal(err)
			}
			wants := []*mat.Matrix{
				expectedV(tc.sel, tc.p1),
				expectedV(tc.sel, tc.p2),
				expectedV(tc.sel, tc.p3),
			}
			for w := 0; w < 3; w++ {
				if !est.v[w].EqualApprox(wants[w], 1e-6) {
					t.Errorf("worker %d:\ngot\n%v\nwant\n%v", w+1, est.v[w], wants[w])
				}
			}
		})
	}
}

// TestProbEstimateExactRawEigen runs the same exact-arithmetic check through
// the non-symmetrized eigendecomposition path (ablation #3).
func TestProbEstimateExactRawEigen(t *testing.T) {
	sel := []float64{0.5, 0.5}
	p1, p2, p3 := sim.PaperMatricesArity2[0], sim.PaperMatricesArity2[1], sim.PaperMatricesArity2[0]
	counts := exactCounts(5000, sel, p1, p2, p3)
	est, err := probEstimate(counts, KAryOptions{Confidence: 0.9, RawEigen: true}, mat.NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	if !est.v[0].EqualApprox(expectedV(sel, p1), 1e-6) {
		t.Errorf("raw-eigen path:\ngot\n%v\nwant\n%v", est.v[0], expectedV(sel, p1))
	}
}

func TestThreeWorkerKAryPointEstimates(t *testing.T) {
	src := randx.NewSource(42)
	confs := []sim.Confusion{
		sim.PaperMatricesArity3[0],
		sim.PaperMatricesArity3[1],
		sim.PaperMatricesArity3[2],
	}
	ds, _, err := sim.KAry{Tasks: 20000, Workers: 3, Confusions: confs}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	est, err := ThreeWorkerKAry(ds, [3]int{0, 1, 2}, KAryOptions{Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				got := est.Prob[w].At(a, b)
				want := confs[w][a][b]
				// The spectral step amplifies sampling noise; at n=20000 the
				// per-entry spread is ±0.04 (verified empirically, no bias).
				if math.Abs(got-want) > 0.06 {
					t.Errorf("worker %d P(%d,%d) = %v, want ≈%v", w, a, b, got, want)
				}
			}
		}
	}
	// Selectivity should be near uniform.
	for a := 0; a < 3; a++ {
		if math.Abs(est.Selectivity[a]-1.0/3) > 0.05 {
			t.Errorf("selectivity[%d] = %v", a, est.Selectivity[a])
		}
	}
}

func TestThreeWorkerKAryBinary(t *testing.T) {
	src := randx.NewSource(43)
	confs := []sim.Confusion{
		sim.PaperMatricesArity2[0],
		sim.PaperMatricesArity2[1],
		sim.PaperMatricesArity2[2],
	}
	ds, _, err := sim.KAry{Tasks: 4000, Workers: 3, Confusions: confs}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	est, err := ThreeWorkerKAry(ds, [3]int{0, 1, 2}, KAryOptions{Confidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				if math.Abs(est.Prob[w].At(a, b)-confs[w][a][b]) > 0.05 {
					t.Errorf("worker %d P(%d,%d) = %v, want ≈%v",
						w, a, b, est.Prob[w].At(a, b), confs[w][a][b])
				}
			}
		}
	}
}

func TestThreeWorkerKAryIntervalsContainTruthMostly(t *testing.T) {
	// Coverage check at c=0.8 over replicates: Fig. 5(a) reports accuracy at
	// or above the diagonal for the paper's settings, so demand ≥ 0.7.
	const reps = 40
	hits, total := 0, 0
	for r := 0; r < reps; r++ {
		src := randx.NewSource(int64(70000 + r))
		ds, confs, err := sim.KAry{
			Tasks:            500,
			Workers:          3,
			ConfusionChoices: sim.PaperMatricesArity2,
		}.Generate(src)
		if err != nil {
			t.Fatal(err)
		}
		est, err := ThreeWorkerKAry(ds, [3]int{0, 1, 2}, KAryOptions{Confidence: 0.8})
		if err != nil {
			continue
		}
		for w := 0; w < 3; w++ {
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					total++
					if est.Intervals[w][a][b].Contains(confs[w][a][b]) {
						hits++
					}
				}
			}
		}
	}
	if total < reps*6 {
		t.Fatalf("only %d usable intervals", total)
	}
	coverage := float64(hits) / float64(total)
	if coverage < 0.70 {
		t.Errorf("k-ary coverage %v at c=0.8", coverage)
	}
}

func TestThreeWorkerKAryNonRegular(t *testing.T) {
	src := randx.NewSource(44)
	confs := []sim.Confusion{
		sim.PaperMatricesArity2[0],
		sim.PaperMatricesArity2[1],
		sim.PaperMatricesArity2[2],
	}
	ds, _, err := sim.KAry{Tasks: 5000, Workers: 3, Confusions: confs, Density: 0.7}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	est, err := ThreeWorkerKAry(ds, [3]int{0, 1, 2}, KAryOptions{Confidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		for a := 0; a < 2; a++ {
			if math.Abs(est.Prob[w].At(a, a)-confs[w][a][a]) > 0.06 {
				t.Errorf("worker %d diag %d = %v, want ≈%v",
					w, a, est.Prob[w].At(a, a), confs[w][a][a])
			}
		}
	}
}

func TestThreeWorkerKAryErrors(t *testing.T) {
	ds := crowd.MustNewDataset(3, 10, 3)
	// No shared tasks → insufficient data.
	if _, err := ThreeWorkerKAry(ds, [3]int{0, 1, 2}, KAryOptions{Confidence: 0.8}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("err = %v, want ErrInsufficientData", err)
	}
	if _, err := ThreeWorkerKAry(ds, [3]int{0, 1, 2}, KAryOptions{Confidence: 0}); err == nil {
		t.Error("confidence 0 accepted")
	}
	if _, err := ThreeWorkerKAry(ds, [3]int{0, 1, 2}, KAryOptions{Confidence: 0.8, Epsilon: -1}); err == nil {
		t.Error("negative epsilon accepted")
	}
}

// TestKAryEpsilonInvalid: a step that is not a finite number is the
// caller's error, refused before any estimate runs, and not blamed on the
// data as ErrDegenerate. A finite step too large for the counts is a
// perturbed estimate that fails, which is ErrDegenerate.
func TestKAryEpsilonInvalid(t *testing.T) {
	ds, _, err := sim.KAry{Tasks: 500, Workers: 3, ConfusionChoices: sim.PaperMatrices(3)}.Generate(randx.NewSource(63))
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := ThreeWorkerKAry(ds, [3]int{0, 1, 2}, KAryOptions{Confidence: 0.8, Epsilon: eps})
		if err == nil || errors.Is(err, ErrDegenerate) || errors.Is(err, ErrInsufficientData) || !strings.Contains(err.Error(), "epsilon") {
			t.Errorf("epsilon %v: err = %v, want an invalid-option error", eps, err)
		}
	}
	if _, err := ThreeWorkerKAry(ds, [3]int{0, 1, 2}, KAryOptions{Confidence: 0.8, Epsilon: 1e9}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("epsilon 1e9: err = %v, want ErrDegenerate", err)
	}
}

func TestKAryEpsilonStability(t *testing.T) {
	// Ablation #5 (bench_test.go): interval sizes should not blow up as the
	// numeric-derivative step varies across two orders of magnitude.
	src := randx.NewSource(45)
	confs := []sim.Confusion{
		sim.PaperMatricesArity2[0],
		sim.PaperMatricesArity2[1],
		sim.PaperMatricesArity2[2],
	}
	ds, _, err := sim.KAry{Tasks: 1000, Workers: 3, Confusions: confs}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []float64
	for _, eps := range []float64{1e-3, 1e-2, 1e-1} {
		est, err := ThreeWorkerKAry(ds, [3]int{0, 1, 2}, KAryOptions{Confidence: 0.8, Epsilon: eps})
		if err != nil {
			t.Fatalf("eps %v: %v", eps, err)
		}
		var sum float64
		for w := 0; w < 3; w++ {
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					sum += est.Intervals[w][a][b].Size()
				}
			}
		}
		sizes = append(sizes, sum/12)
	}
	for i := 1; i < len(sizes); i++ {
		if ratio := sizes[i] / sizes[0]; ratio > 2 || ratio < 0.5 {
			t.Errorf("interval size unstable across epsilon: %v", sizes)
		}
	}
}

// TestKAryIntervalsIntoMatchesIntervals checks that refilling one
// estimate across confidence levels and arities gives exactly what a fresh
// Intervals call gives, and that a refill in the same shape allocates
// nothing.
func TestKAryIntervalsIntoMatchesIntervals(t *testing.T) {
	var dst KAryEstimate
	for _, k := range []int{3, 2, 4, 3} {
		ds, _, err := sim.KAry{Tasks: 500, Workers: 3, ConfusionChoices: sim.PaperMatrices(k)}.Generate(randx.NewSource(int64(60 + k)))
		if err != nil {
			t.Fatal(err)
		}
		delta, err := new(Solver).ThreeWorkerKAryDelta(ds, [3]int{0, 1, 2}, KAryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []float64{0.05, 0.5, 0.8, 0.95} {
			delta.IntervalsInto(c, &dst)
			want := delta.Intervals(c)
			if !reflect.DeepEqual(&dst, want) {
				t.Errorf("k=%d c=%v: IntervalsInto differs from Intervals", k, c)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { delta.IntervalsInto(0.9, &dst) }); allocs != 0 {
			t.Errorf("k=%d: refill allocates %.1f times per call, want 0", k, allocs)
		}
	}
}

func TestAlignRows(t *testing.T) {
	// Rows are shuffled; alignment must place each dominant element on the
	// diagonal.
	v := mat.FromRows([][]float64{
		{0.1, 0.8, 0.1}, // dominant col 1 → position 1
		{0.7, 0.2, 0.1}, // dominant col 0 → position 0
		{0.2, 0.1, 0.7}, // dominant col 2 → position 2
	})
	got := alignRowsWS(v, mat.NewWorkspace())
	want := mat.FromRows([][]float64{
		{0.7, 0.2, 0.1},
		{0.1, 0.8, 0.1},
		{0.2, 0.1, 0.7},
	})
	if !got.EqualApprox(want, 1e-12) {
		t.Errorf("alignRowsWS:\n%v\nwant\n%v", got, want)
	}
}

func TestAlignRowsConflict(t *testing.T) {
	// Two rows dominant in the same column: greedy assignment must still
	// produce a permutation (each source row used exactly once).
	v := mat.FromRows([][]float64{
		{0.9, 0.1},
		{0.8, 0.2},
	})
	got := alignRowsWS(v, mat.NewWorkspace())
	// Strongest entry 0.9 claims position 0; row 1 is forced to position 1.
	if got.At(0, 0) != 0.9 || got.At(1, 0) != 0.8 {
		t.Errorf("conflict alignment:\n%v", got)
	}
}

func TestNormalizeRows(t *testing.T) {
	n := mat.FromRows([][]float64{{3, 4}, {0, 0}})
	normalizeRowsInPlace(n)
	if math.Abs(n.At(0, 0)-0.6) > 1e-12 || math.Abs(n.At(0, 1)-0.8) > 1e-12 {
		t.Errorf("row 0 = %v %v", n.At(0, 0), n.At(0, 1))
	}
	// Zero rows survive untouched.
	if n.At(1, 0) != 0 || n.At(1, 1) != 0 {
		t.Error("zero row corrupted")
	}
}

func TestClampSpectrum(t *testing.T) {
	vals := []float64{2, 1e-15}
	if err := clampSpectrumInPlace(vals, false); err != nil {
		t.Fatal(err)
	}
	if vals[1] < 1e-10 {
		t.Errorf("tiny eigenvalue not clamped: %v", vals)
	}
	if err := clampSpectrumInPlace([]float64{2, 1e-15}, true); !errors.Is(err, ErrDegenerate) {
		t.Errorf("strict mode err = %v", err)
	}
	if err := clampSpectrumInPlace([]float64{-1, -2}, false); !errors.Is(err, ErrDegenerate) {
		t.Errorf("all-negative spectrum err = %v", err)
	}
}

func TestFixSigns(t *testing.T) {
	v1 := mat.FromRows([][]float64{{-0.5, -0.5}, {0.3, 0.7}})
	u := mat.FromRows([][]float64{{1, 0}, {0, 1}})
	fixSigns(v1, u)
	if v1.At(0, 0) != 0.5 || u.At(0, 0) != -1 {
		t.Errorf("sign fix failed: v1=%v u=%v", v1, u)
	}
	if v1.At(1, 0) != 0.3 || u.At(1, 1) != 1 {
		t.Error("positive row flipped")
	}
}
