package eval

import (
	"crowdassess/internal/core"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// XNoGold is an extension experiment beyond the paper's figures: it
// quantifies the cost of not having gold-standard answers by comparing the
// average size of agreement-based intervals (Algorithm A2) against
// gold-standard Wilson intervals on the same data, as the number of tasks
// grows. The paper's introduction frames gold standards as expensive and
// collusion-prone; this curve shows how little interval width the
// agreement-based method gives up in exchange.
func XNoGold(p Params) (*Result, error) {
	res := &Result{
		Name:   "xnogold",
		Title:  "Interval size: agreement-based vs gold-standard (c=0.9, 7 workers)",
		XLabel: "Tasks",
		YLabel: "Average Size of Interval",
	}
	const c = 0.9
	const m = 7
	taskGrid := []int{50, 100, 200, 400, 800}
	agreeSeries := Series{Label: "agreement-based (no gold)"}
	goldSeries := Series{Label: "gold-standard (Wilson)"}
	ratioSeries := Series{Label: "size ratio"}
	type rep struct {
		agreeSizes, goldSizes []float64
		failures              int
	}
	results, err := runGrid(p.Seed, len(taskGrid), p.replicates(), func(pt int, src *randx.Source, s *core.Solver) (rep, error) {
		var out rep
		ds, _, err := sim.Binary{Tasks: taskGrid[pt], Workers: m}.Generate(src)
		if err != nil {
			return rep{}, err
		}
		agree, err := s.EvaluateWorkersDelta(ds, core.EvalOptions{})
		if err != nil {
			return rep{}, err
		}
		gold, err := core.GoldStandardIntervals(ds, c, core.GoldWilson)
		if err != nil {
			return rep{}, err
		}
		for w := range agree {
			if agree[w].Err != nil || gold[w].Err != nil {
				out.failures++
				continue
			}
			out.agreeSizes = append(out.agreeSizes, agree[w].Est.Interval(c).ClampTo(0, 1).Size())
			out.goldSizes = append(out.goldSizes, gold[w].Interval.Size())
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for pt, n := range taskGrid {
		var agreeSizes, goldSizes []float64
		for _, r := range results[pt] {
			res.Failures += r.failures
			agreeSizes = append(agreeSizes, r.agreeSizes...)
			goldSizes = append(goldSizes, r.goldSizes...)
		}
		a, g := meanOf(agreeSizes), meanOf(goldSizes)
		agreeSeries.Points = append(agreeSeries.Points, Point{X: float64(n), Y: a})
		goldSeries.Points = append(goldSeries.Points, Point{X: float64(n), Y: g})
		ratio := 0.0
		if g > 0 {
			ratio = a / g
		}
		ratioSeries.Points = append(ratioSeries.Points, Point{X: float64(n), Y: ratio})
	}
	res.Series = append(res.Series, agreeSeries, goldSeries, ratioSeries)
	return res, nil
}

// XMinCommon is an extension experiment documenting a sensitivity the paper
// does not study: on very sparse crowds (the RTE shape), triples whose
// members share only a handful of tasks feed the delta method agreement
// rates whose normal approximation has not kicked in, which costs interval
// coverage. Requiring a minimum pairwise overlap (EvalOptions.MinCommon)
// restores coverage at the price of skipping the most weakly connected
// workers. The paper's protocol corresponds to MinCommon = 1.
func XMinCommon(p Params) (*Result, error) {
	res := &Result{
		Name:   "xmincommon",
		Title:  "Interval accuracy and worker coverage vs minimum triple overlap (RTE shape, c=0.9)",
		XLabel: "MinCommon",
		YLabel: "Fraction",
	}
	const c = 0.9
	grid := []int{1, 3, 5, 10, 20}
	reps := p.Replicates
	if reps <= 0 {
		reps = 10
	}
	accSeries := Series{Label: "interval accuracy"}
	evalSeries := Series{Label: "workers evaluable"}
	tripleSeries := Series{Label: "mean triples per worker (/10)"}
	type rep struct {
		hits, totals                int
		evaluable, workers, triples int
	}
	results, err := runGrid(p.Seed, len(grid), reps, func(pt int, src *randx.Source, s *core.Solver) (rep, error) {
		var out rep
		ds, err := sim.EmulateRTE(src)
		if err != nil {
			return rep{}, err
		}
		deltas, err := s.EvaluateWorkersDelta(ds, core.EvalOptions{MinCommon: grid[pt]})
		if err != nil {
			return rep{}, err
		}
		for _, d := range deltas {
			out.workers++
			if d.Err != nil {
				continue
			}
			out.evaluable++
			out.triples += d.Triples
			rate, err := ds.TrueErrorRate(d.Worker)
			if err != nil {
				continue
			}
			out.totals++
			if d.Est.Interval(c).ClampTo(0, 1).Contains(rate) {
				out.hits++
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for pt, mc := range grid {
		hits, totals := 0, 0
		evaluable, workers, triples := 0, 0, 0
		for _, r := range results[pt] {
			hits += r.hits
			totals += r.totals
			evaluable += r.evaluable
			workers += r.workers
			triples += r.triples
		}
		acc := 0.0
		if totals > 0 {
			acc = float64(hits) / float64(totals)
		}
		accSeries.Points = append(accSeries.Points, Point{X: float64(mc), Y: acc})
		evalSeries.Points = append(evalSeries.Points, Point{X: float64(mc), Y: float64(evaluable) / float64(workers)})
		meanTriples := 0.0
		if evaluable > 0 {
			meanTriples = float64(triples) / float64(evaluable)
		}
		// Scaled by 1/10 so all three series share the plot's unit axis.
		tripleSeries.Points = append(tripleSeries.Points, Point{X: float64(mc), Y: meanTriples / 10})
	}
	res.Series = append(res.Series, accSeries, evalSeries, tripleSeries)
	return res, nil
}
