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
// only the attendance half is meaningful.
type bitsetSource [][]uint64

func (b bitsetSource) pair(i, j int) crowd.PairStats { return crowd.PairStats{} }
func (b bitsetSource) attendance(w int) []uint64     { return b[w] }

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
// equal and3Count over the raw bitsets — across densities on both sides of
// the crossover, ragged bitset lengths, and workers with no tasks. It also
// pins where triplesAuto switches paths.
func TestRestrictedTripleCountsExact(t *testing.T) {
	const workers, horizon = 14, 64*23 + 17
	crossover := 1 / float64(sparseAttendance)
	for _, density := range []float64{0.02, 0.1, crossover - 0.03, crossover + 0.03, 0.8} {
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
				var restricted, auto tripleCounts
				restricted.init(att, workers, i, partners, triplesRestricted, ws)
				auto.init(att, workers, i, partners, triplesAuto, ws)
				n := 0
				for _, word := range att[i] {
					n += bits.OnesCount64(word)
				}
				if wantPacked := sparseAttendance*n <= 64*len(att[i]); auto.packed != wantPacked {
					t.Errorf("worker %d (%d of %d bits): auto packed=%v, want %v", i, n, 64*len(att[i]), auto.packed, wantPacked)
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
			}
		})
	}
	// The densities straddling the crossover must land on either side of
	// it for a full-length bitset, or the cases above test one path twice.
	for _, c := range []struct {
		density float64
		packed  bool
	}{{crossover - 0.03, true}, {crossover + 0.03, false}} {
		n := int(c.density * 64 * 100)
		if got := sparseAttendance*n <= 64*100; got != c.packed {
			t.Errorf("density %.2f: packed=%v, want %v", c.density, got, c.packed)
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
	const workers = 20
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
	cursor := feeder.CutStats(0, false).Digest
	for n, x := range subs {
		if err := feeder.Add(x.w, x.t, x.r); err != nil {
			t.Fatal(err)
		}
		if n%97 == 0 || n == len(subs)-1 {
			cut := feeder.CutStats(cursor, true)
			if err := acc.ApplyDelta(cut.Delta); err != nil {
				t.Fatal(err)
			}
			cursor = cut.Digest
		}
	}
	batch := newFullStatsCache(ds)
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
		var c tripleCounts
		c.init(batch, workers, w, nil, triplesAuto, ws)
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
// allocates nothing once its goroutine's workspace has served it: pairing,
// the gathered rows, the per-triple statistics, the Lemma 4 covariance and
// the Lemma 5 solve all run in workspace scratch.
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
	c.init(st, workers, worker, nil, triplesAuto, ws)
	if !c.packed {
		t.Fatal("worker is not sparse enough for the restricted path")
	}
	var d WorkerDelta
	d = evaluateOne(st, workers, worker, opts, 1, ws) // warm-up
	if d.Err != nil || d.Triples < 2 {
		t.Fatalf("warm-up solve: %d triples, err %v", d.Triples, d.Err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		d = evaluateOne(st, workers, worker, opts, 1, ws)
	}); allocs != 0 {
		t.Errorf("steady-state sparse evaluateOne allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkEvaluateSparse is the evidence for sparseAttendance: one A2
// solve per iteration (cycling through the workers) of a 128-worker crowd
// over 24 000 tasks, the review_sparse shape, with the triple counts
// restricted to the evaluated worker's tasks or read over the full
// horizon, across attendance densities. On a 2-vCPU Intel Xeon VM (Go
// 1.24, -benchtime=384x; runs there vary by up to 30%):
//
//	density  restricted  full     full/restricted
//	0.05     0.69 ms     3.35 ms  4.9×
//	0.10     1.13 ms     4.65 ms  4.1×
//	0.25     1.90 ms     3.17 ms  1.7×
//	0.40     2.90 ms     4.18 ms  1.4×
//	0.80     9.19 ms     4.24 ms  0.46×
//
// The restricted solve falls behind between 0.4 and 0.8. The same sweep at
// m = 21 over 2 000 tasks, where the O(m) gather weighs more against the
// O(m²) saving, has the restricted solve slower already at 0.1 (17 µs
// against 16 µs) and half the speed at 0.4; density at most 1/4 keeps
// large sparse crowds on the restricted path and every crowd of density
// 0.4 or more, like the paper's figure 3 and 4 sweeps, on the full one.
func BenchmarkEvaluateSparse(b *testing.B) {
	const workers, tasks = 128, 24000
	for _, density := range []float64{0.05, 0.1, 0.25, 0.4, 0.8} {
		b.Run(fmt.Sprintf("density=%.2f", density), func(b *testing.B) {
			ds, _, err := sim.Binary{Tasks: tasks, Workers: workers, Density: density, ErrorRateChoices: []float64{0.1, 0.2}}.Generate(randx.NewSource(7))
			if err != nil {
				b.Fatal(err)
			}
			cache := newFullStatsCache(ds)
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
