// Benchmark harness: one benchmark per paper figure plus ablations of the
// choices this reproduction makes where the paper leaves room (#2 pairing
// strategy, #4 prune threshold). Each figure benchmark runs a scaled-down
// replicate count per iteration (the crowdbench CLI runs the full
// paper-scale sweeps) and reports the figure's headline quantity as a
// custom metric, so `go test -bench=. -benchmem` doubles as a smoke
// reproduction of every figure.
package crowdassess_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"crowdassess"
	"crowdassess/internal/core"
	"crowdassess/internal/eval"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// yAt returns series si's y value at x. A missing grid point is a harness
// bug (a refactor shifted a grid), not a zero metric, so it fails the
// benchmark rather than silently reporting 0.
func yAt(b *testing.B, res *eval.Result, si int, x float64) float64 {
	b.Helper()
	if si >= len(res.Series) {
		b.Fatalf("%s: series %d out of range (%d series)", res.Name, si, len(res.Series))
	}
	for _, pt := range res.Series[si].Points {
		if pt.X > x-1e-9 && pt.X < x+1e-9 {
			return pt.Y
		}
	}
	b.Fatalf("%s: series %q has no point at x=%v", res.Name, res.Series[si].Label, x)
	return 0
}

func BenchmarkFig1(b *testing.B) {
	var newSize, oldSize float64
	for i := 0; i < b.N; i++ {
		res, err := eval.Fig1(eval.Params{Replicates: 3, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		newSize = yAt(b, res, 0, 0.5) // new technique, 3 workers
		oldSize = yAt(b, res, 1, 0.5) // old technique, 3 workers
	}
	b.ReportMetric(newSize, "newSize@c0.5")
	b.ReportMetric(oldSize, "oldSize@c0.5")
	if oldSize > 0 {
		b.ReportMetric(newSize/oldSize, "sizeRatio")
	}
}

func BenchmarkFig2a(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := eval.Fig2a(eval.Params{Replicates: 5, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		acc = yAt(b, res, 3, 0.8) // 7 workers, 300 tasks
	}
	b.ReportMetric(acc, "accuracy@c0.8")
}

func BenchmarkFig2b(b *testing.B) {
	var size float64
	for i := 0; i < b.N; i++ {
		res, err := eval.Fig2b(eval.Params{Replicates: 3, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		size = yAt(b, res, 2, 0.8) // 7 workers, 300 tasks at density 0.8
	}
	b.ReportMetric(size, "size@d0.8")
}

func BenchmarkFig2c(b *testing.B) {
	var opt, uni float64
	for i := 0; i < b.N; i++ {
		res, err := eval.Fig2c(eval.Params{Replicates: 3, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		uni = yAt(b, res, 0, 0.5)
		opt = yAt(b, res, 1, 0.5)
	}
	b.ReportMetric(uni, "uniform@c0.5")
	b.ReportMetric(opt, "optimal@c0.5")
	if opt > 0 {
		b.ReportMetric(uni/opt, "improvement")
	}
}

func BenchmarkFig3(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := eval.Fig3(eval.Params{Replicates: 1, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		acc = yAt(b, res, 0, 0.8) // Image Comparison
	}
	b.ReportMetric(acc, "IC-accuracy@c0.8")
}

func BenchmarkFig4(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := eval.Fig4(eval.Params{Replicates: 1, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		acc = yAt(b, res, 1, 0.9) // RTE after pruning, high confidence
	}
	b.ReportMetric(acc, "RTE-accuracy@c0.9")
}

func BenchmarkFig5a(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := eval.Fig5a(eval.Params{Replicates: 2, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		acc = yAt(b, res, 1, 0.8) // arity 2, 1000 tasks
	}
	b.ReportMetric(acc, "accuracy@c0.8")
}

func BenchmarkFig5b(b *testing.B) {
	var a2, a4 float64
	for i := 0; i < b.N; i++ {
		res, err := eval.Fig5b(eval.Params{Replicates: 1, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		a2 = yAt(b, res, 0, 0.8)
		a4 = yAt(b, res, 2, 0.8)
	}
	b.ReportMetric(a2, "arity2-size@d0.8")
	b.ReportMetric(a4, "arity4-size@d0.8")
}

func BenchmarkFig5c(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := eval.Fig5c(eval.Params{Replicates: 1, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		acc = yAt(b, res, 0, 0.9) // MOOC at high confidence
	}
	b.ReportMetric(acc, "MOOC-accuracy@c0.9")
}

// BenchmarkFigParallel runs representative figures, each of whose
// (point, replicate) cells run from one queue over GOMAXPROCS goroutines.
// fig3 and fig5c run at 5 replicates, the shape crowdperf's paper_sweep
// runs them at. Run it under -cpu 1,2,… to read the scaling: the series are
// byte-identical at every GOMAXPROCS (asserted in internal/eval's
// TestFiguresParallelMatchesSerial).
func BenchmarkFigParallel(b *testing.B) {
	for _, cfg := range []struct {
		name string
		run  func(eval.Params) (*eval.Result, error)
		reps int
	}{
		{"fig2a", eval.Fig2a, 8},
		{"fig5b", eval.Fig5b, 2},
		{"fig3", eval.Fig3, 5},
		{"fig5c", eval.Fig5c, 5},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cfg.run(eval.Params{Replicates: cfg.reps, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations: each runs one design choice against its alternative ---

// BenchmarkAblationPairing compares the paper's greedy common-task pairing
// against arbitrary index-order pairing (ablation #2).
func BenchmarkAblationPairing(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		pairing core.PairingStrategy
	}{
		{"greedy", core.GreedyPairing},
		{"arbitrary", core.ArbitraryPairing},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var total, count float64
			for i := 0; i < b.N; i++ {
				src := randx.NewSource(int64(i))
				ds, _, err := sim.Binary{
					Tasks:     150,
					Workers:   9,
					Densities: []float64{1, 1, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3},
				}.Generate(src)
				if err != nil {
					b.Fatal(err)
				}
				ests, err := core.EvaluateWorkers(ds, core.EvalOptions{
					Confidence: 0.8, Pairing: cfg.pairing,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range ests {
					if e.Err == nil {
						total += e.Interval.Size()
						count++
					}
				}
			}
			if count > 0 {
				b.ReportMetric(total/count, "meanSize@c0.8")
			}
		})
	}
}

// BenchmarkAblationPruneThreshold sweeps the spammer cutoff around the
// paper's 0.4 on an RTE-shaped crowd (ablation #4).
func BenchmarkAblationPruneThreshold(b *testing.B) {
	for _, thr := range []float64{0.30, 0.40, 0.45} {
		b.Run(fmt.Sprintf("%.2f", thr), func(b *testing.B) {
			hit, total := 0, 0
			for i := 0; i < b.N; i++ {
				src := randx.NewSource(int64(i))
				ds, err := sim.EmulateRTE(src)
				if err != nil {
					b.Fatal(err)
				}
				pruned, _, err := core.PruneSpammers(ds, thr)
				if err != nil {
					continue
				}
				ests, err := core.EvaluateWorkers(pruned, core.EvalOptions{Confidence: 0.9})
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range ests {
					if e.Err != nil {
						continue
					}
					rate, err := pruned.TrueErrorRate(e.Worker)
					if err != nil {
						continue
					}
					total++
					if e.Interval.Contains(rate) {
						hit++
					}
				}
			}
			if total > 0 {
				b.ReportMetric(float64(hit)/float64(total), "accuracy@c0.9")
			}
		})
	}
}

// --- Core micro-benchmarks through the public API ---

func BenchmarkEvaluateTriple(b *testing.B) {
	src := crowdassess.NewSimSource(1)
	ds, _, err := crowdassess.BinarySim{Tasks: 300, Workers: 3, Density: 0.8}.Generate(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crowdassess.EvaluateTriple(ds, [3]int{0, 1, 2}, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateWorkers times the public batch entry, which fans the
// workers out over GOMAXPROCS goroutines: run it with -cpu 1,2 to read the
// fan-out's speedup.
func BenchmarkEvaluateWorkers(b *testing.B) {
	for _, m := range []int{7, 21, 51} {
		b.Run("m"+itoa(m), func(b *testing.B) {
			src := crowdassess.NewSimSource(2)
			ds, _, err := crowdassess.BinarySim{Tasks: 300, Workers: m, Density: 0.7}.Generate(src)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := crowdassess.EvaluateWorkers(ds, crowdassess.Options{Confidence: 0.9}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEstimateResponseMatrices(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		b.Run("arity"+itoa(k), func(b *testing.B) {
			src := crowdassess.NewSimSource(3)
			ds, _, err := crowdassess.KArySim{
				Tasks:            500,
				Workers:          3,
				ConfusionChoices: crowdassess.PaperConfusionMatrices(k),
			}.Generate(src)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := crowdassess.EstimateResponseMatrices(ds, [3]int{0, 1, 2}, 0.9); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGoldVsAgreement quantifies the cost of not having gold answers:
// the ratio between agreement-based and gold-standard interval sizes at the
// same confidence level.
func BenchmarkGoldVsAgreement(b *testing.B) {
	src := crowdassess.NewSimSource(5)
	ds, _, err := crowdassess.BinarySim{Tasks: 300, Workers: 7}.Generate(src)
	if err != nil {
		b.Fatal(err)
	}
	var goldSize, agreeSize float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gold, err := crowdassess.GoldStandardIntervals(ds, 0.9, crowdassess.GoldWilson)
		if err != nil {
			b.Fatal(err)
		}
		agree, err := crowdassess.EvaluateWorkers(ds, crowdassess.Options{Confidence: 0.9})
		if err != nil {
			b.Fatal(err)
		}
		goldSize, agreeSize = 0, 0
		n := 0
		for w := range gold {
			if gold[w].Err != nil || agree[w].Err != nil {
				continue
			}
			goldSize += gold[w].Interval.Size()
			agreeSize += agree[w].Interval.Size()
			n++
		}
		goldSize /= float64(n)
		agreeSize /= float64(n)
	}
	b.ReportMetric(goldSize, "goldSize@c0.9")
	b.ReportMetric(agreeSize, "agreeSize@c0.9")
	if goldSize > 0 {
		b.ReportMetric(agreeSize/goldSize, "noGoldCost")
	}
}

// BenchmarkIncrementalAdd measures the streaming evaluator's per-response
// update cost (the whole point of the incremental form: no rescans) from
// one goroutine into one shard, lock included.
func BenchmarkIncrementalAdd(b *testing.B) {
	src := crowdassess.NewSimSource(6)
	ds, _, err := crowdassess.BinarySim{Tasks: 1000, Workers: 10}.Generate(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var inc *crowdassess.ShardedIncremental
	for i := 0; i < b.N; i++ {
		if i%(1000*10) == 0 {
			inc, err = crowdassess.NewShardedIncremental(10, 1)
			if err != nil {
				b.Fatal(err)
			}
		}
		w := i % 10
		t := (i / 10) % 1000
		r := ds.Response(w, t)
		if inc.Add(w, t, r) != nil {
			b.Fatal("add failed")
		}
	}
}

// BenchmarkIncrementalEvaluate measures on-demand interval recomputation
// from accumulated statistics.
func BenchmarkIncrementalEvaluate(b *testing.B) {
	src := crowdassess.NewSimSource(7)
	ds, _, err := crowdassess.BinarySim{Tasks: 500, Workers: 10}.Generate(src)
	if err != nil {
		b.Fatal(err)
	}
	inc, err := crowdassess.NewShardedIncremental(10, 1)
	if err != nil {
		b.Fatal(err)
	}
	for t := 0; t < 500; t++ {
		for w := 0; w < 10; w++ {
			if err := inc.Add(w, t, ds.Response(w, t)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inc.Evaluate(i%10, crowdassess.Options{Confidence: 0.9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedIncrementalAdd measures the concurrent evaluator's
// per-response cost under parallel submitters, the regime it exists for —
// comparable against BenchmarkIncrementalAdd's single-goroutine path
// because the workload matches it: 10 workers answering every task, so
// each Add pays the same pairwise-counter accumulation against up to 9
// prior responders. A global counter makes every (worker, task) pair
// unique so every Add is accepted.
func BenchmarkShardedIncrementalAdd(b *testing.B) {
	// dense64 is the replica's ingest: a dense 64-worker crowd arriving
	// in shuffled order, recorded in 128-response batches on 2 shards, so
	// each response pairs with the task's earlier responders. One op is
	// one batch; ns/response is the cost of one response.
	b.Run("dense64", func(b *testing.B) {
		const workers, batch = 64, 128
		ds, _, err := sim.Binary{Tasks: 2000, Workers: workers, Density: 0.8}.Generate(randx.NewSource(17))
		if err != nil {
			b.Fatal(err)
		}
		var stream []core.Response
		for w := 0; w < workers; w++ {
			for t := 0; t < ds.Tasks(); t++ {
				if ds.Attempted(w, t) {
					stream = append(stream, core.Response{Worker: w, Task: t, Answer: ds.Response(w, t)})
				}
			}
		}
		randx.NewSource(17).Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		var inc *core.ShardedIncremental
		next := len(stream)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if next+batch > len(stream) {
				b.StopTimer()
				if inc, err = core.NewShardedIncremental(workers, 2); err != nil {
					b.Fatal(err)
				}
				next = 0
				b.StartTimer()
			}
			if err := inc.AddBatch(stream[next : next+batch]); err != nil {
				b.Fatal(err)
			}
			next += batch
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/response")
	})
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			inc, err := crowdassess.NewShardedIncremental(10, shards)
			if err != nil {
				b.Fatal(err)
			}
			var ctr atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(ctr.Add(1)) - 1
					// b.Error, not b.Fatal: RunParallel bodies run off the
					// benchmark goroutine, where FailNow is not allowed.
					if inc.Add(i%10, i/10, crowdassess.Yes) != nil {
						b.Error("add failed")
						return
					}
				}
			})
		})
	}
}

func BenchmarkDawidSkene(b *testing.B) {
	src := crowdassess.NewSimSource(4)
	ds, _, err := crowdassess.BinarySim{Tasks: 500, Workers: 10, Density: 0.6}.Generate(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (crowdassess.DawidSkene{}).Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
