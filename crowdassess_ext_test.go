package crowdassess_test

import (
	"math"
	"strings"
	"sync"
	"testing"

	"crowdassess"
)

func TestPublicReadDatasetCSV(t *testing.T) {
	in := strings.NewReader("worker,task,response,truth\nann,t1,1,1\nbob,t1,2,1\nann,t2,2,\n")
	ds, workers, tasks, err := crowdassess.ReadDatasetCSV(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(workers) != 2 || len(tasks) != 2 {
		t.Fatalf("%d workers, %d tasks", len(workers), len(tasks))
	}
	if ds.Response(0, 0) != crowdassess.Yes || ds.Response(1, 0) != crowdassess.No {
		t.Error("responses misplaced")
	}
	if ds.Truth(0) != crowdassess.Yes {
		t.Error("truth lost")
	}
}

func TestPublicIncremental(t *testing.T) {
	ds, rates := buildCrowd(t, 30, 5, 200, 1)
	inc, err := crowdassess.NewShardedIncremental(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < ds.Tasks(); task++ {
		for w := 0; w < 5; w++ {
			if err := inc.Add(w, task, ds.Response(w, task)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ests, err := inc.EvaluateAll(crowdassess.Options{Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ests {
		if e.Err != nil {
			t.Errorf("worker %d: %v", e.Worker, e.Err)
			continue
		}
		if math.Abs(e.Interval.Mean-rates[e.Worker]) > 0.12 {
			t.Errorf("worker %d: mean %v vs true %v", e.Worker, e.Interval.Mean, rates[e.Worker])
		}
	}
}

// TestPublicShardedIncremental drives the concurrent evaluator through the
// facade: parallel ingestion, then intervals identical to the batch
// algorithm's on the same responses.
func TestPublicShardedIncremental(t *testing.T) {
	ds, _ := buildCrowd(t, 30, 5, 200, 1)
	var sharded crowdassess.StreamingEvaluator
	sharded, err := crowdassess.NewShardedIncremental(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 5; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for task := 0; task < ds.Tasks(); task++ {
				if err := sharded.Add(w, task, ds.Response(w, task)); err != nil {
					t.Errorf("worker %d task %d: %v", w, task, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	opts := crowdassess.Options{Confidence: 0.9}
	want, err := crowdassess.EvaluateWorkers(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	for w := range want {
		if (want[w].Err == nil) != (got[w].Err == nil) || got[w].Interval != want[w].Interval {
			t.Errorf("worker %d: sharded %+v vs batch %+v", w, got[w], want[w])
		}
	}
}

func TestPublicPool(t *testing.T) {
	src := crowdassess.NewSimSource(31)
	rates := []float64{0.05, 0.1, 0.15, 0.48}
	ds, _, err := crowdassess.BinarySim{Tasks: 300, Workers: 4, ErrorRates: rates}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := crowdassess.NewShardedIncremental(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := crowdassess.NewPool(ev, crowdassess.DefaultPoolPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < 300; task++ {
		for w := 0; w < 4; w++ {
			if p.State(w) == crowdassess.Fired {
				continue
			}
			if err := p.Record(w, task, ds.Response(w, task)); err != nil {
				t.Fatal(err)
			}
		}
		if task%50 == 49 {
			if _, err := p.Review(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if p.State(3) != crowdassess.Fired {
		t.Errorf("spammer state = %v", p.State(3))
	}
	for w := 0; w < 3; w++ {
		if p.State(w) == crowdassess.Fired {
			t.Errorf("good worker %d fired", w)
		}
	}
}

func TestPublicAggregation(t *testing.T) {
	ds, rates := buildCrowd(t, 32, 5, 300, 1)
	ests, err := crowdassess.EvaluateWorkers(ds, crowdassess.Options{Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	useRates := make([]float64, len(rates))
	for _, e := range ests {
		if e.Err == nil {
			useRates[e.Worker] = e.Interval.Mean
		} else {
			useRates[e.Worker] = 0.49
		}
	}
	weighted, err := crowdassess.WeightedBinaryAnswers(ds, useRates)
	if err != nil {
		t.Fatal(err)
	}
	wAcc, n := crowdassess.AnswerAccuracy(ds, weighted)
	if n != 300 {
		t.Fatalf("scored %d tasks", n)
	}
	mAcc, _ := crowdassess.AnswerAccuracy(ds, crowdassess.MajorityAnswers(ds))
	if wAcc < mAcc-0.02 {
		t.Errorf("weighted %v well below majority %v", wAcc, mAcc)
	}
	if wAcc < 0.9 {
		t.Errorf("weighted accuracy %v", wAcc)
	}
}

func TestPublicKAryPanel(t *testing.T) {
	src := crowdassess.NewSimSource(33)
	ds, confs, err := crowdassess.KArySim{
		Tasks:            2500,
		Workers:          5,
		ConfusionChoices: crowdassess.PaperConfusionMatrices(2),
	}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	ests, err := crowdassess.EvaluateWorkersKAry(ds, crowdassess.KAryPanelOptions{Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ests {
		if e.Err != nil {
			t.Errorf("worker %d: %v", e.Worker, e.Err)
			continue
		}
		for a := 0; a < 2; a++ {
			if math.Abs(e.Mean.At(a, a)-confs[e.Worker][a][a]) > 0.08 {
				t.Errorf("worker %d diag %d: %v vs %v",
					e.Worker, a, e.Mean.At(a, a), confs[e.Worker][a][a])
			}
		}
	}
}
