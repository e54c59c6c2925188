package crowdassess_test

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"crowdassess"
)

// buildCrowd simulates a small binary crowd through the public API only.
func buildCrowd(t *testing.T, seed int64, workers, tasks int, density float64) (*crowdassess.Dataset, []float64) {
	t.Helper()
	src := crowdassess.NewSimSource(seed)
	ds, rates, err := crowdassess.BinarySim{
		Tasks:   tasks,
		Workers: workers,
		Density: density,
	}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	return ds, rates
}

func TestPublicEvaluateWorkers(t *testing.T) {
	ds, rates := buildCrowd(t, 1, 7, 300, 0.8)
	ests, err := crowdassess.EvaluateWorkers(ds, crowdassess.Options{Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	contained := 0
	for _, e := range ests {
		if e.Err != nil {
			continue
		}
		if e.Interval.Contains(rates[e.Worker]) {
			contained++
		}
	}
	if contained < 5 {
		t.Errorf("only %d/7 intervals contain the truth", contained)
	}
}

func TestPublicEvaluateTriple(t *testing.T) {
	ds, rates := buildCrowd(t, 2, 3, 2000, 1)
	ivs, err := crowdassess.EvaluateTriple(ds, [3]int{0, 1, 2}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		if math.Abs(ivs[w].Mean-rates[w]) > 0.06 {
			t.Errorf("worker %d mean %v vs true %v", w, ivs[w].Mean, rates[w])
		}
	}
}

func TestPublicKAry(t *testing.T) {
	src := crowdassess.NewSimSource(3)
	confs := crowdassess.PaperConfusionMatrices(3)
	ds, workerConfs, err := crowdassess.KArySim{
		Tasks:            3000,
		Workers:          3,
		ConfusionChoices: confs,
	}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	est, err := crowdassess.EstimateResponseMatrices(ds, [3]int{0, 1, 2}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		for a := 0; a < 3; a++ {
			if math.Abs(est.Prob[w].At(a, a)-workerConfs[w][a][a]) > 0.12 {
				t.Errorf("worker %d diagonal %d: %v vs %v",
					w, a, est.Prob[w].At(a, a), workerConfs[w][a][a])
			}
		}
	}
}

func TestPublicPruneAndMajority(t *testing.T) {
	src := crowdassess.NewSimSource(4)
	ds, _, err := crowdassess.BinarySim{
		Tasks:      300,
		Workers:    6,
		ErrorRates: []float64{0.1, 0.1, 0.15, 0.2, 0.49, 0.5},
	}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	pruned, keep, err := crowdassess.PruneSpammers(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Workers() >= 6 {
		t.Error("no spammer pruned")
	}
	for _, w := range keep {
		if w >= 4 {
			t.Errorf("spammer %d kept", w)
		}
	}
	maj := crowdassess.MajorityVote(ds)
	correct := 0
	for task, v := range maj {
		if v == ds.Truth(task) {
			correct++
		}
	}
	if float64(correct)/float64(len(maj)) < 0.9 {
		t.Errorf("majority accuracy %v", float64(correct)/float64(len(maj)))
	}
}

func TestPublicBaselines(t *testing.T) {
	ds, rates := buildCrowd(t, 5, 5, 400, 1)
	res, err := crowdassess.DawidSkene{}.Fit(ds)
	if err != nil {
		t.Fatal(err)
	}
	for w, want := range rates {
		if math.Abs(res.ErrorRate[w]-want) > 0.08 {
			t.Errorf("EM worker %d: %v vs %v", w, res.ErrorRate[w], want)
		}
	}
	ivs, err := crowdassess.OldTechnique{Confidence: 0.9}.Evaluate(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 5 {
		t.Fatalf("%d old-technique intervals", len(ivs))
	}
}

func TestPublicExperiments(t *testing.T) {
	names := crowdassess.ExperimentNames()
	if len(names) != 11 { // nine paper figures + two extension experiments
		t.Fatalf("%d experiments", len(names))
	}
	res, err := crowdassess.RunExperiment("fig2c", crowdassess.ExperimentParams{Replicates: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "fig2c" || len(res.Series) != 2 {
		t.Errorf("unexpected result %q with %d series", res.Name, len(res.Series))
	}
}

// TestPublicSweepParallelIdentical: the public sweep entry point returns
// the same Result at GOMAXPROCS 2 and 8 as at 1.
func TestPublicSweepParallelIdentical(t *testing.T) {
	spec := crowdassess.SweepSpec{Kernel: crowdassess.SweepWidth, Workers: 5, Tasks: 50, Replicates: 6, Seed: 3}
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	want, err := crowdassess.RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := crowdassess.RunSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS=%d: sweep differs from GOMAXPROCS=1:\n got %+v\nwant %+v", procs, got, want)
		}
	}
}

func TestPublicDatasetRoundTrip(t *testing.T) {
	ds, _ := buildCrowd(t, 6, 3, 20, 0.7)
	// SelectWorkers + JSON round trip through the facade aliases.
	sub, err := ds.SelectWorkers([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Workers() != 2 {
		t.Fatalf("workers = %d", sub.Workers())
	}
}
