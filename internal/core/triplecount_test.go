package core

import (
	"fmt"
	"math/bits"
	"testing"

	"crowdassess/internal/crowd"
	"crowdassess/internal/mat"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// bitsetSource is an agreementSource over hand-built attendance bitsets;
// only the attendance part is meaningful.
type bitsetSource [][]uint64

func (b bitsetSource) pair(i, j int) crowd.PairStats        { return crowd.PairStats{} }
func (b bitsetSource) counters(w int) (agree, common []int) { return nil, nil }
func (b bitsetSource) attendance(w int) []uint64            { return b[w] }

// randomAttendance draws one bitset per worker over horizon tasks at the
// given density. Each worker's bitset ends at a random word at or before
// the horizon, as streaming bitsets end at their worker's last task;
// worker 0 attended nothing with a zero-length bitset and worker 1
// attended nothing with a full-length one.
func randomAttendance(src *randx.Source, workers, horizon int, density float64) bitsetSource {
	words := (horizon + 63) / 64
	att := make(bitsetSource, workers)
	att[1] = make([]uint64, words)
	for w := 2; w < workers; w++ {
		n := words
		if w%3 != 0 {
			n = 1 + src.Intn(words)
		}
		b := make([]uint64, n)
		for t := 0; t < min(horizon, 64*n); t++ {
			if src.Float64() < density {
				b[t/64] |= 1 << (t % 64)
			}
		}
		att[w] = b
	}
	return att
}

// TestRestrictedTripleCountsExact pins the gathered counts to the
// full-horizon three-way count: for every evaluated worker i and every
// pair of partners (j, k), the two-way popcount over the packed rows must
// equal and3Count over the raw bitsets, and both countRow over the
// word-major block putLane builds and common3Block over pairRows and row
// must return common3's four counts on both paths — across densities,
// ragged bitset lengths, and workers with no tasks. It also pins where
// triplesAuto switches paths.
func TestRestrictedTripleCountsExact(t *testing.T) {
	const workers, horizon = 14, 64*23 + 17
	autoPaths := map[bool]int{}
	for _, density := range []float64{0.02, 0.1, 0.22, 0.28, 0.8} {
		t.Run(fmt.Sprintf("density=%.2f", density), func(t *testing.T) {
			att := randomAttendance(randx.NewSource(int64(1000*density)), workers, horizon, density)
			ws := mat.NewWorkspace()
			for i := 0; i < workers; i++ {
				partners := make([]int, 0, workers-1)
				for j := 0; j < workers; j++ {
					if j != i {
						partners = append(partners, j)
					}
				}
				ws.Reset()
				var restricted, full, auto tripleCounts
				restricted.init(att, workers, i, partners, triplesRestricted, ws)
				full.init(att, workers, i, partners, triplesFull, ws)
				auto.init(att, workers, i, partners, triplesAuto, ws)
				n := 0
				for _, word := range att[i] {
					n += bits.OnesCount64(word)
				}
				if wantPacked := restricts(n, len(att[i]), len(partners)); auto.packed != wantPacked {
					t.Errorf("worker %d (%d of %d bits, %d partners): auto packed=%v, want %v", i, n, 64*len(att[i]), len(partners), auto.packed, wantPacked)
				}
				if n > 0 {
					autoPaths[auto.packed]++
				}
				for _, j := range partners {
					for _, k := range partners {
						want := and3Count(att[i], att[j], att[k])
						if got := restricted.common3(j, k); got != want {
							t.Fatalf("c(%d,%d,%d): restricted %d, full horizon %d", i, j, k, got, want)
						}
						if got := auto.common3(j, k); got != want {
							t.Fatalf("c(%d,%d,%d): auto %d, full horizon %d", i, j, k, got, want)
						}
					}
				}
				j1, j2 := pairsOf(partners)
				masks := make([]uint64, 2*len(att[i]))
				for _, tc := range []*tripleCounts{&restricted, &full} {
					checkCountRows(t, tc, j1, j2)
					for q, a := range partners {
						b := partners[(q+5)%len(partners)]
						x, y := partners[(3*q+1)%len(partners)], partners[(q+2)%len(partners)]
						ra, rb := tc.pairRows(a, b, masks)
						ax, ay, bx, by := common3Block(ra, rb, tc.row(x), tc.row(y))
						if ax != tc.common3(a, x) || ay != tc.common3(a, y) || bx != tc.common3(b, x) || by != tc.common3(b, y) {
							t.Fatalf("worker %d block (%d,%d)×(%d,%d) packed=%v: %d %d %d %d", i, a, b, x, y, tc.packed, ax, ay, bx, by)
						}
					}
				}
			}
		})
	}
	if autoPaths[true] == 0 || autoPaths[false] == 0 {
		t.Errorf("auto took the restricted path for %d workers with tasks and the full one for %d; the cases must cover both", autoPaths[true], autoPaths[false])
	}
	// Each constant must put BenchmarkEvaluateSparse's crossovers, as
	// measured with the gather it is chosen for, on the side they were
	// measured on.
	const k, g = sparsePartnersPEXT, sparsePartnersGo
	for _, c := range []struct {
		per, partners int
		density       float64
		packed        bool
	}{
		{k, 126, 0.80, true}, {k, 62, 0.60, true}, {k, 62, 0.70, false}, {k, 30, 0.30, true}, {k, 30, 0.80, false}, {k, 20, 0.20, true}, {k, 20, 0.80, false},
		{g, 126, 0.25, true}, {g, 126, 0.35, false}, {g, 62, 0.10, true}, {g, 62, 0.18, false}, {g, 30, 0.04, true}, {g, 30, 0.10, false},
	} {
		if got := restrictsAt(c.per, int(c.density*64*100), 100, c.partners); got != c.packed {
			t.Errorf("sparsePartners %d, %d partners, density %.2f: packed=%v, want %v", c.per, c.partners, c.density, got, c.packed)
		}
	}
}

// fullHorizonEstimates is the reference the restricted path is held to:
// every worker solved with the full-horizon triple counts.
func fullHorizonEstimates(src agreementSource, workers int, opts EvalOptions) []WorkerEstimate {
	ws := mat.NewWorkspace()
	out := make([]WorkerEstimate, workers)
	for w := range out {
		out[w] = finishEstimate(solveWorker(src, workers, w, opts, 1, triplesFull, ws), opts.Confidence)
	}
	return out
}

// TestEvaluateAllMatchesFullHorizon holds every streaming evaluator to the
// full-horizon reference, solved on the batch dataset's own statistics, at
// Float64bits granularity on a crowd that mixes sparse workers (restricted
// counts) with dense ones (full-horizon counts): ShardedIncremental at 1,
// 2 and 7 shards, and a StatsAccumulator built from deltas alone.
func TestEvaluateAllMatchesFullHorizon(t *testing.T) {
	const workers = 40
	densities := make([]float64, workers)
	for w := range densities {
		densities[w] = []float64{0.05, 0.1, 0.2, 0.6}[w%4]
	}
	ds, _, err := sim.Binary{Tasks: 1500, Workers: workers, Densities: densities, ErrorRateChoices: []float64{0.1, 0.2}}.Generate(randx.NewSource(21))
	if err != nil {
		t.Fatal(err)
	}
	subs := shuffledStream(t, ds, 21)
	opts := EvalOptions{Confidence: 0.9}

	acc, _ := NewStatsAccumulator(workers)
	feeder, _ := NewShardedIncremental(workers, 3)
	cut, err := feeder.CutStats(0)
	if err != nil {
		t.Fatal(err)
	}
	cursor := cut.Digest
	for n, x := range subs {
		if err := feeder.Add(x.w, x.t, x.r); err != nil {
			t.Fatal(err)
		}
		if n%97 == 0 || n == len(subs)-1 {
			cut, err := feeder.CutStats(cursor)
			if err != nil {
				t.Fatal(err)
			}
			if err := acc.ApplyDelta(cut.Delta); err != nil {
				t.Fatal(err)
			}
			cursor = cut.Digest
		}
	}
	batch := datasetStats(ds)
	want := fullHorizonEstimates(batch, workers, opts)
	solved := 0
	for _, e := range want {
		if e.Err == nil {
			solved++
		}
	}
	if solved < workers-2 {
		t.Fatalf("only %d of %d workers have an estimate", solved, workers)
	}
	packed := 0
	ws := mat.NewWorkspace()
	for w := 0; w < workers; w++ {
		ws.Reset()
		var c tripleCounts
		c.init(batch, workers, w, formPairs(batch, workers, w, opts.Pairing, 1, ws), triplesAuto, ws)
		if c.packed {
			packed++
		}
	}
	if packed == 0 || packed == workers {
		t.Fatalf("%d of %d workers take the restricted path; the crowd must exercise both", packed, workers)
	}

	for _, shards := range []int{1, 2, 7} {
		s, _ := NewShardedIncremental(workers, shards)
		for _, x := range subs {
			if err := s.Add(x.w, x.t, x.r); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.EvaluateAll(opts)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("ShardedIncremental(%d)", shards), got, want)
	}
	got, err := acc.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "StatsAccumulator via ApplyDelta", got, want)
}

// TestSparseEvaluateOneZeroAllocs asserts the A2 solve of a sparse worker
// allocates nothing once a Solver has served it: pairing, the gathered
// rows, the per-triple statistics, the Lemma 4 covariance and the Lemma 5
// solve all run in the solver's workspace.
func TestSparseEvaluateOneZeroAllocs(t *testing.T) {
	const workers = 64
	ds, _, err := sim.Binary{Tasks: 6000, Workers: workers, Density: 0.1, ErrorRateChoices: []float64{0.1}}.Generate(randx.NewSource(4))
	if err != nil {
		t.Fatal(err)
	}
	inc, _ := NewShardedIncremental(workers, 1)
	for _, x := range shuffledStream(t, ds, 4) {
		if err := inc.Add(x.w, x.t, x.r); err != nil {
			t.Fatal(err)
		}
	}
	st := inc.snapshot().stats
	opts := EvalOptions{Confidence: 0.9}
	ws := mat.NewWorkspace()
	const worker = 5
	var c tripleCounts
	c.init(st, workers, worker, formPairs(st, workers, worker, opts.Pairing, 1, ws), triplesAuto, ws)
	if !c.packed {
		t.Fatal("worker is not sparse enough for the restricted path")
	}
	var s Solver
	d := s.solveWorker(st, workers, worker, opts) // warm-up
	if d.Err != nil || d.Triples < 2 {
		t.Fatalf("warm-up solve: %d triples, err %v", d.Triples, d.Err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		d = s.solveWorker(st, workers, worker, opts)
	}); allocs != 0 {
		t.Errorf("a warmed solver's repeat sparse solve allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkEvaluateSparse is the evidence for sparsePartners: one A2
// solve per iteration (cycling through the workers) with the triple
// counts restricted to the evaluated worker's tasks or read over the full
// horizon, across attendance densities, for two shapes: 128 workers over
// 24 000 tasks (review_sparse) and 64 over 108 000 (ingest_http). On a
// 2-vCPU Intel Xeon VM with AVX-512 VPOPCNTDQ and BMI2 (Go 1.24, GOMAXPROCS
// 1, medians of three -benchtime=128x runs per side; runs there vary by
// up to 30%), with the PEXT gather and the count and entry kernels:
//
//	         128 × 24 000                   64 × 108 000
//	density  restricted  full     full/r    restricted  full     full/r
//	0.05     0.29 ms     0.86 ms  2.93×     0.28 ms     0.86 ms  3.05×
//	0.10     0.25 ms     0.72 ms  2.85×     0.33 ms     0.87 ms  2.62×
//	0.15     0.30 ms     0.75 ms  2.54×     0.36 ms     0.90 ms  2.47×
//	0.20     0.32 ms     0.76 ms  2.42×     0.40 ms     0.90 ms  2.22×
//	0.25     0.34 ms     0.72 ms  2.10×     0.44 ms     0.87 ms  1.98×
//	0.30     0.38 ms     0.71 ms  1.86×     0.49 ms     0.85 ms  1.75×
//	0.40     0.48 ms     0.78 ms  1.63×     0.58 ms     0.92 ms  1.57×
//	0.50     0.51 ms     0.73 ms  1.42×     0.79 ms     0.90 ms  1.14×
//	0.60     0.61 ms     0.76 ms  1.24×     0.83 ms     0.87 ms  1.05×
//	0.70     0.70 ms     0.91 ms  1.31×     0.91 ms     0.88 ms  0.97×
//	0.80     0.73 ms     0.72 ms  0.99×     0.97 ms     0.89 ms  0.92×
//
// The same VM stood in for two other CPUs, with internal/cpufeat's flags
// cleared in a copy of the tree. Without AVX-512 (the per-entry POPCNT
// counts, the AVX2 entries), with the PEXT gather:
//
//	         128 × 24 000                   64 × 108 000
//	density  restricted  full     full/r    restricted  full     full/r
//	0.05     0.41 ms     1.69 ms  4.12×     0.38 ms     1.72 ms  4.53×
//	0.10     0.37 ms     1.50 ms  4.03×     0.46 ms     1.71 ms  3.68×
//	0.20     0.58 ms     1.56 ms  2.67×     0.59 ms     1.65 ms  2.80×
//	0.30     0.63 ms     1.45 ms  2.30×     0.81 ms     2.02 ms  2.50×
//	0.40     0.76 ms     1.43 ms  1.90×     0.82 ms     1.74 ms  2.13×
//	0.50     0.88 ms     1.45 ms  1.65×     0.97 ms     1.69 ms  1.74×
//	0.60     1.06 ms     1.46 ms  1.38×     1.28 ms     1.69 ms  1.33×
//	0.70     1.11 ms     1.43 ms  1.28×     1.24 ms     1.74 ms  1.40×
//	0.80     1.34 ms     1.52 ms  1.14×     1.56 ms     1.78 ms  1.14×
//
// and also without fast PEXT (the Go gather, as on AMD before Zen 3):
//
//	         128 × 24 000                   64 × 108 000
//	density  restricted  full     full/r    restricted  full     full/r
//	0.05     0.43 ms     1.50 ms  3.49×     0.59 ms     1.73 ms  2.96×
//	0.10     0.76 ms     1.55 ms  2.05×     1.26 ms     1.73 ms  1.37×
//	0.15     1.03 ms     1.50 ms  1.46×     1.69 ms     1.74 ms  1.02×
//	0.20     1.23 ms     1.48 ms  1.20×     2.16 ms     1.75 ms  0.81×
//	0.25     1.77 ms     1.64 ms  0.93×     2.60 ms     1.75 ms  0.67×
//	0.30     1.90 ms     1.86 ms  0.98×     3.70 ms     2.25 ms  0.61×
//	0.40     2.35 ms     1.62 ms  0.69×     5.23 ms     2.26 ms  0.43×
//	0.80     6.45 ms     1.61 ms  0.25×     15.26 ms     1.78 ms  0.12×
//
// So the PEXT gather moves the crossover to 0.65 or past 0.8, whichever
// counts run (sparsePartnersPEXT; at 64 workers and density 0.7–0.8 the
// switch forgoes the restricted count's 1.1–1.4× with the per-entry
// counts), and the Go gather keeps it near 0.3 at 128 workers and 0.15 at
// 64 (sparsePartnersGo). The switch is per worker, so a crowd's solves
// can take both paths.
func BenchmarkEvaluateSparse(b *testing.B) {
	for _, shape := range []struct{ workers, tasks int }{{128, 24000}, {64, 108000}} {
		for _, density := range []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8} {
			b.Run(fmt.Sprintf("m=%d/tasks=%d/density=%.2f", shape.workers, shape.tasks, density), func(b *testing.B) {
				workers := shape.workers
				ds, _, err := sim.Binary{Tasks: shape.tasks, Workers: workers, Density: density, ErrorRateChoices: []float64{0.1, 0.2}}.Generate(randx.NewSource(7))
				if err != nil {
					b.Fatal(err)
				}
				cache := datasetStats(ds)
				for _, mode := range []struct {
					name string
					mode tripleMode
				}{{"restricted", triplesRestricted}, {"full", triplesFull}} {
					b.Run(mode.name, func(b *testing.B) {
						ws := mat.NewWorkspace()
						opts := EvalOptions{Confidence: 0.9}
						b.ReportAllocs()
						for n := 0; n < b.N; n++ {
							if d := solveWorker(cache, workers, n%workers, opts, 1, mode.mode, ws); d.Err != nil {
								b.Fatal(d.Err)
							}
						}
					})
				}
			})
		}
	}
}

// BenchmarkEvaluateWorkersEmulated is the per-kernel measure of the A2
// solve the paper's real-data figures run: one Solver.EvaluateWorkersDelta
// per iteration over every worker of the emulated IC, RTE and TEM crowds
// (seed 1), the dataset's statistics included, on one solver as a figure
// goroutine keeps it. Run it with -benchmem: a steady-state solve
// allocates only the dataset's attendance index and the result slice, so
// allocations per op track the per-worker overhead.
func BenchmarkEvaluateWorkersEmulated(b *testing.B) {
	for _, c := range []struct {
		name    string
		emulate func(*randx.Source) (*crowd.Dataset, error)
	}{{"IC", sim.EmulateIC}, {"RTE", sim.EmulateRTE}, {"TEM", sim.EmulateTEM}} {
		b.Run(c.name, func(b *testing.B) {
			ds, err := c.emulate(randx.NewSource(1))
			if err != nil {
				b.Fatal(err)
			}
			opts := EvalOptions{Confidence: 0.9}
			var s Solver
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := s.EvaluateWorkersDelta(ds, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
