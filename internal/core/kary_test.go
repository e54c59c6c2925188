package core

import (
	"errors"
	"math"
	"reflect"
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
			est, err := probEstimate(counts, mat.NewWorkspace())
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
					t.Errorf("worker %d:\ngot\n%v\nwant\n%v", w+1, &est.v[w], wants[w])
				}
			}
		})
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
	est, err := ThreeWorkerKAry(ds, [3]int{0, 1, 2}, 0.9)
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
	est, err := ThreeWorkerKAry(ds, [3]int{0, 1, 2}, 0.8)
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
		est, err := ThreeWorkerKAry(ds, [3]int{0, 1, 2}, 0.8)
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
	est, err := ThreeWorkerKAry(ds, [3]int{0, 1, 2}, 0.8)
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
	if _, err := ThreeWorkerKAry(ds, [3]int{0, 1, 2}, 0.8); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("err = %v, want ErrInsufficientData", err)
	}
	if _, err := ThreeWorkerKAry(ds, [3]int{0, 1, 2}, 0); err == nil {
		t.Error("confidence 0 accepted")
	}
}

// TestKAryEpsilonInvalid: a derivative step too large for the counts makes
// a perturbed estimate fail, which is ErrDegenerate.
func TestKAryEpsilonInvalid(t *testing.T) {
	ds, _, err := sim.KAry{Tasks: 500, Workers: 3, ConfusionChoices: sim.PaperMatrices(3)}.Generate(randx.NewSource(63))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := new(Solver).threeWorkerKAryDelta(ds, [3]int{0, 1, 2}, 1e9); !errors.Is(err, ErrDegenerate) {
		t.Errorf("epsilon 1e9: err = %v, want ErrDegenerate", err)
	}
}

func TestKAryEpsilonStability(t *testing.T) {
	// Interval sizes should not blow up as the numeric-derivative step
	// varies across two orders of magnitude around the paper's 0.01.
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
		delta, err := new(Solver).threeWorkerKAryDelta(ds, [3]int{0, 1, 2}, eps)
		if err != nil {
			t.Fatalf("eps %v: %v", eps, err)
		}
		est := delta.Intervals(0.8)
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
		delta, err := new(Solver).ThreeWorkerKAryDelta(ds, [3]int{0, 1, 2})
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

// TestThreeWorkerKAryDeltaGolden pins Algorithm A3 bit for bit: for each
// arity the Float64bits of every Mean and Dev entry (worker, row, column
// order, Mean before Dev) followed by the Selectivity. A change to the
// spectral step, the derivative step, the Lemma 9 covariance or the mat
// kernels shows up here as a changed bit.
func TestThreeWorkerKAryDeltaGolden(t *testing.T) {
	golden := map[int][]uint64{
		2: {
			0x3fe9fdc8ade09bce, 0x3fa3010fdacbb087, 0x3fc808dd487d90c6, 0x3fa41e45e52f3e15,
			0x3fa9a5027ad4fc61, 0x3f97811532835859, 0x3fee65afd852b03a, 0x3fa14304722c3a9a,
			0x3fec0c10e883f5ce, 0x3fa2499e3a37d0b5, 0x3fbf9f78bbe05197, 0x3fa0a73faf23da0b,
			0x3fbeed8c64c3920d, 0x3fa3525bf8ba0fbd, 0x3fec224e73678dbe, 0x3fa485063ec2cd26,
			0x3feddba4449b5e13, 0x3fa152f9bf63e616, 0x3fb122dddb250f65, 0x3f9abf372f29f8ab,
			0x3fca6fea9ddede54, 0x3fa485fb47638dfb, 0x3fe964055888486b, 0x3fa43dad80fe9365,
			0x3fe0a3aa49b9a637, 0x3fdeb8ab6c8cb393,
		},
		3: {
			0x3fe905acced14113, 0x3fae3f3271f0818c, 0x3fbd235478e12bbd, 0x3faf61f30c6868a9,
			0x3fbaaf451094cba3, 0x3faefab7893f7ba7, 0x3fc63c450e44b8ac, 0x3fb1bd4fea0e8fb4,
			0x3feaa3c0f97d7955, 0x3fb12691940bdf47, 0xbf79691e8753c0c6, 0x3fafb029817dd5be,
			0x3f748e2504d0b686, 0x3fa5297638be157c, 0x3fcc7daae1054f0e, 0x3fafd8599d504155,
			0x3fe8b778fdb50acf, 0x3fab312dc572d8d6, 0x3feb6b2a4970a5cd, 0x3fab4a2b3b193d92,
			0x3fafe592949e9cc2, 0x3fae0eba0ad74dd3, 0x3fb4b3e46a2b8338, 0x3fab3b0336762706,
			0x3fbfa37aaa86909c, 0x3fb1ffc9c5e3ece2, 0x3fece7927c69a0b3, 0x3fae323c3939b7e0,
			0xbf9b803a374e58da, 0x3fa9a94c6b37e865, 0x3f8b8ff5a1c16810, 0x3fb0931389f5eaae,
			0x3fc6ea7f1ebf902f, 0x3fb4c96491bff255, 0x3fe9d72061c91655, 0x3fac460f29707526,
			0x3fe27c13afa765c1, 0x3fa93e102a9344f6, 0x3fd5a7b7a8e7737a, 0x3fad87f46fe5cc7b,
			0x3fb58083df27040f, 0x3fa5fbbd0780b1db, 0x3fb10e824654e3bc, 0x3fa6e05c02f23968,
			0x3fe333e6753e6651, 0x3fb196645114ae11, 0x3fd5549283edfa6f, 0x3faf48ffa8082304,
			0x3fd12ef68bd870bd, 0x3fa9f82a39538f51, 0x3fb5930919a1d610, 0x3fae1119b7489a6d,
			0x3fe4b62396df8cdf, 0x3fa94d2d8d804723, 0x3fd6cae946e07a48, 0x3fd458eaedf5cda4,
			0x3fd4dc2bcb29b814,
		},
		4: {
			0x3fe22efc9e4c6953, 0x3fcb0f66c312190a, 0x3fa37ef96a2f9713, 0x3fe5a50cd9fcfe33,
			0x3fb6bd384d0be6af, 0x3fd3a4a295e59c9e, 0x3fd382d982de40cc, 0x3fc31f4cd00c4621,
			0xbfa3543ce7968885, 0x3fefdd82b0a6d2fc, 0x3fe904b1d5ac26f4, 0x3fe52daf5947f2d7,
			0x3fcd867f4806a529, 0x3feaf0462c1e7ae1, 0x3f99de44d973093d, 0x3fe6ccd2f9b183ee,
			0xbfa4cbb35e31d994, 0x3fba3497e84944b7, 0xbfbd3b3b4600dbfd, 0x3fda9a19fa7872c1,
			0x3ff2d9cff9330d7c, 0x3fdae7a10369a197, 0xbf97efaa785c3bf2, 0x3fc27ce4b062ade1,
			0x3fd07daa4eed565d, 0x3fc92279f3615183, 0x3fb830114b16982f, 0x3fc56332474c9968,
			0xbf9bf7aeb1f47c79, 0x3fc0c3509cd74cc7, 0x3fe59ae624b625b0, 0x3fc1d52611643641,
			0x3fe1760956102c3a, 0x3fd6f3c69ed28d11, 0x3fc3c6084f49b690, 0x3fe29d8eaeda5136,
			0x3fc5deae1fb27e7b, 0x3fdb07b286613e29, 0x3fc0832438c31a09, 0x3fcb88452f8b07fb,
			0x3fc42be5bb98badb, 0x3fe51813cac78291, 0x3fdbb3f1d41735b9, 0x3fdae0f713f73279,
			0x3fd35a3ab93d4b93, 0x3fdc7e68d0e1d1e0, 0x3fbb6f82537c8522, 0x3fca26886f6d40d9,
			0xbf89e51a74118561, 0x3fc3f5f10282fe3c, 0x3fb667a980dd8800, 0x3fdace193d85da26,
			0x3fea94ae004d340d, 0x3fd7c11e41a2ad11, 0x3fb82f89cb3b0846, 0x3fc5531d16e4ba0d,
			0x3fb10bd292a2cc28, 0x3fc2e9f4221e8d19, 0x3fb391a385cd40da, 0x3fc613110dfa9f43,
			0x3f9b73d02cb95dc9, 0x3fc2ee9039b433fd, 0x3fea90b2bb8c3372, 0x3fba066178666097,
			0x3fe17415379aae3a, 0x3fd0f6b9784f1b11, 0x3fc2ac82bb12c957, 0x3fe5894f80e68b0f,
			0x3fc469535b4d3ba6, 0x3fd24e38f5cdaf18, 0x3fc319d50b35421a, 0x3fd675d039807f76,
			0x3fa898ef6755782d, 0x3fe45c1f8669168c, 0x3fe086ebcc9d8b76, 0x3fdf5236ad1ee546,
			0x3fc809db9a139547, 0x3fda4b21da350c6c, 0x3fcfb43959a0ded7, 0x3fd392314fead602,
			0x3f9b0b34bb4f97b1, 0x3fb6eca553fbbfbb, 0x3f936e4d8b37af88, 0x3fe0022754fae573,
			0x3fef887caedde2cb, 0x3fd3e66c96e772d4, 0xbf9f89182243a0a6, 0x3fd1bdc4a263842f,
			0x3fb5c42ea33f9aea, 0x3fc580488548d141, 0xbfaa22e0707ec035, 0x3fcb550459c50de8,
			0x3fb27a683cd8e39c, 0x3fc112b916070773, 0x3fec9a5b2b04dc33, 0x3fc1768ced9ca41c,
			0x3fd4bad4448ef05d, 0x3fd67c9f2e31b33e, 0x3fc37b1a4bd05826, 0x3fc615feceae60a4,
		},
	}
	for _, k := range []int{2, 3, 4} {
		checkKAryDeltaBits(t, sim.KAry{Tasks: 400, Workers: 3, Density: 0.9, ConfusionChoices: sim.PaperMatrices(k)}, int64(370+k), golden[k])
	}
}

// TestThreeWorkerKAryDeltaNoisyGolden pins Algorithm A3 bit for bit, as
// TestThreeWorkerKAryDeltaGolden does, on sparse noisy triples: 500 tasks
// at density 0.5, the low end of Figure 5(b). The seeds are ones whose
// solve succeeds although some of its ProbEstimate calls skip a j₃
// because B has a complex eigenvalue pair (55 such skips at k = 3, 258 at
// k = 4) and others because B's spectrum is degenerate (43 and 113): the
// shifted QR's complex-pair exits and the spectrumDegenerate test are
// pinned along with the converging paths.
func TestThreeWorkerKAryDeltaNoisyGolden(t *testing.T) {
	golden := map[int][]uint64{
		3: {
			0x3fedbdfb02f0b4a8, 0x3fb91553a924d2c4, 0x3fb2ccaa2d694cdb, 0x3faf19b6480c1d2d,
			0xbf6790489dde4382, 0x3fc21bc75ab3f690, 0x3fdd25319611986c, 0x3fd687617c926e8a,
			0x3feaf91ec4af423b, 0x3fc4f8f601be2ff1, 0xbfd3176f1f701ce1, 0x3fd063a0798bc182,
			0x3fcf571c59fc690b, 0x3fd316a68e3f314d, 0x3fccde9b4f125c5a, 0x3fbc41cf787d9309,
			0x3fe0f29215bc4ea7, 0x3fb022b36f7714f0, 0x3ff174308a25edb1, 0x3fe0455e48f90e01,
			0x3fbf9a7f21f9775b, 0x3fdcc521f0fe176e, 0xbfcb6ec3e22c2936, 0x3fe9aa2df2402227,
			0xbfa87c1a0f29a4f2, 0x3fd130f5a233f635, 0x3ff5c497bd1b89ac, 0x3fd88726ce5252ec,
			0xbfd402dbb288f213, 0x3fe37ee794644546, 0x3fd097038afe0e51, 0x3fae1f5a46fc37dd,
			0x3fce88ffb26200a9, 0x3fb4521036829552, 0x3fe0123e4de878ad, 0x3fa6fef221443c93,
			0x400230c11070c5b7, 0x3fda25f946bf6815, 0xbfe822e779a91434, 0x3feb15f075a6444e,
			0xbfe0a01cc81a02a8, 0x3fe626b7aa5c3254, 0x3fc68758f40ac2db, 0x3fc0db94eed858ca,
			0x3fed58634c0b7996, 0x3fd1cabdd1cd39a0, 0xbfb7d1cc4871526d, 0x3fc8c1e580095caf,
			0x3fc5ca003332fd27, 0x3fb8773a2ba179d2, 0x3fdb4d18c545aab3, 0x3fc42bb8f1deea53,
			0x3fd9cde72120d6b9, 0x3fa70976f8ae9826, 0x3fc3a2380af6b908, 0x3fc2ea46f716ed44,
			0x3fe65ce03f7c966d,
		},
		4: {
			0x3fd20a586cde9d25, 0x3fd516a2f558c0e9, 0x3fc58423a49e0341, 0x3fcab2928894e6e6,
			0x3fd952b538626129, 0x3fe2cbf69d27df24, 0x3fc3c1c110e00023, 0x3fd38d9d6a4dc122,
			0x3fbd81a2facd1d17, 0x3fdc56e80db280bf, 0x3fee53228164e3cd, 0x3fc0de1e991c6a4b,
			0xbfe25594745335b8, 0x3ff1b9105d92e941, 0x3fe0523d9394ae48, 0x3fe4735602f1e102,
			0x3fb322894fb4015c, 0x3fe4605475d3006f, 0xbfcbd6fecda6642a, 0x3fd83dd0a04e6ec6,
			0x3ff8583490a344e0, 0x4001b9299ff83a1d, 0xbfd83df52fa6e1c1, 0x3fffa1061b6b0903,
			0x3fdf671de5dbdbe7, 0x3fe2e06b4c89f80f, 0x3fd034fe0c73b57c, 0x3fdc332423da6953,
			0xbff3d1c682503520, 0x400329186c869f2f, 0x3ff7eabf85bc50c7, 0x3fed3c451c6cdee4,
			0x3ff4d625ac87f7a0, 0x401cc9db97bde316, 0x3fba3fedc935c9ab, 0x3ff5561b305c0872,
			0xbfda217ec29da6af, 0x4016d6a976573256, 0x3f6c764f182ae33a, 0x3fffa9c4764bad9e,
			0xbfe100b26af1ae61, 0x4015163438021479, 0x3fef624da7d882fb, 0x3fec74cf4c7674fc,
			0x3fd507d6befd5fd9, 0x400e6d171b677cec, 0x3fcc69e58e69ede3, 0x3ff41ee702a2aec0,
			0xbfe3870b661321e1, 0x401ea332d73b2924, 0x3fcf4612a864ecaa, 0x3ff28e2ebfc193cd,
			0x3fee00e57f623fe4, 0x401602ee75977179, 0x3fdb6942792f4da4, 0x3ffe69cb9b31db6f,
			0xbfd774dc6247fead, 0x40177b4ce5884e7e, 0xbfb4332cb4e9b270, 0x3feb1966dbf87262,
			0x3feb7a0664ec7492, 0x40147aab27baa087, 0x3fe2c6cd62d4c112, 0x3ffbc0754dcebdf8,
			0x3ff2fac4921ade31, 0x401ff71527e5861c, 0x3fc089a56ccb82f0, 0x3fdec1e28c64e7af,
			0x3fb6de4572464189, 0x3fe15cd5e9a103a4, 0xbfd9e7765b62caa2, 0x4013b4ebe61a2da8,
			0xbffd9901be110ddb, 0x402ef719622a14ae, 0x3ffd535abb1b1273, 0x3feaa0ccc6a70af4,
			0xbfabb46be1770aa7, 0x3fe9252e0f6dea31, 0x3ff1234a6201b3bd, 0x40220ee186906a5e,
			0xc01717392ba03840, 0x404ad04878fc64b4, 0x3fe83180af5ea9c4, 0x40021d37706eb0ce,
			0x3ff52fa482291956, 0x4005c93d26f8a688, 0x4012c51ff52a1cb2, 0x404044f7aa608d90,
			0xbfee519374fdc5e0, 0x402a46e63f73249c, 0xbfd07739f4f9a834, 0x3fe310e3ee71e648,
			0x3fdd31e45f539015, 0x3ff3c7cf10e81bfd, 0x3ffbfa1f1fe868f8, 0x402042373fd8ad2e,
			0x3fe141ce94894fd0, 0x3fc1e7b9c9871a12, 0x3fc924a24065b3a0, 0x3fbfd8d347dbe614,
		},
	}
	for _, c := range []struct {
		k    int
		seed int64
	}{{3, 366}, {4, 10}} {
		checkKAryDeltaBits(t, sim.KAry{Tasks: 500, Workers: 3, Density: 0.5, ConfusionChoices: sim.PaperMatrices(c.k)}, c.seed, golden[c.k])
	}
}

// checkKAryDeltaBits solves workers 0, 1, 2 of the crowd cfg simulates
// from seed and requires the Float64bits of every Mean and Dev entry
// (worker, row, column order, Mean before Dev) followed by the
// Selectivity to equal want.
func checkKAryDeltaBits(t *testing.T, cfg sim.KAry, seed int64, want []uint64) {
	t.Helper()
	k := len(cfg.ConfusionChoices[0])
	ds, _, err := cfg.Generate(randx.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	d, err := new(Solver).ThreeWorkerKAryDelta(ds, [3]int{0, 1, 2})
	if err != nil {
		t.Fatalf("k=%d: %v", k, err)
	}
	var got []float64
	for w := 0; w < 3; w++ {
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				got = append(got, d.Mean[w].At(a, b), d.Dev[w].At(a, b))
			}
		}
	}
	got = append(got, d.Selectivity...)
	if len(got) != len(want) {
		t.Fatalf("k=%d: %d values, want %d", k, len(got), len(want))
	}
	for i, v := range got {
		if math.Float64bits(v) != want[i] {
			t.Errorf("k=%d value %d: %v (bits %#016x), want bits %#016x", k, i, v, math.Float64bits(v), want[i])
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
	got := mat.New(3, 3)
	alignRows(got, v)
	want := mat.FromRows([][]float64{
		{0.7, 0.2, 0.1},
		{0.1, 0.8, 0.1},
		{0.2, 0.1, 0.7},
	})
	if !got.EqualApprox(want, 1e-12) {
		t.Errorf("alignRows:\n%v\nwant\n%v", got, want)
	}
}

func TestAlignRowsConflict(t *testing.T) {
	// Two rows dominant in the same column: greedy assignment must still
	// produce a permutation (each source row used exactly once).
	v := mat.FromRows([][]float64{
		{0.9, 0.1},
		{0.8, 0.2},
	})
	got := mat.New(2, 2)
	alignRows(got, v)
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
	if err := clampSpectrumInPlace(vals); err != nil {
		t.Fatal(err)
	}
	if vals[1] < 1e-10 {
		t.Errorf("tiny eigenvalue not clamped: %v", vals)
	}
	if err := clampSpectrumInPlace([]float64{-1, -2}); !errors.Is(err, ErrDegenerate) {
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
