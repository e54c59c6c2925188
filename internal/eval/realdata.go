package eval

import (
	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// realBinaryAccuracy runs the Fig. 3/4 protocol over the emulated IC, RTE
// and TEM datasets: compute worker error-rate intervals with the m-worker
// binary non-regular method (optionally after spammer pruning), then measure
// interval accuracy against the gold-derived error rates.
//
// The paper evaluates once on each fixed dataset; with emulators we average
// over Replicates regenerated datasets, which only tightens the measurement.
func realBinaryAccuracy(p Params, name, title string, prune bool) (*Result, error) {
	res := &Result{
		Name:   name,
		Title:  title,
		XLabel: "Confidence Level",
		YLabel: "Accuracy",
	}
	cases := []struct {
		label string
		gen   func(*randx.Source) (*crowd.Dataset, error)
	}{
		{"Image Comparison", sim.EmulateIC},
		{"RTE", sim.EmulateRTE},
		{"Temporal", sim.EmulateTEM},
	}
	confs := Confidences()
	// The emulated datasets are far larger than the synthetic grids, so a
	// handful of replicates already covers hundreds of intervals.
	reps := p.Replicates
	if reps <= 0 {
		reps = 20
	}
	results, err := runGrid(p.Seed, len(cases), reps, func(pt int, src *randx.Source, s *core.Solver) (tally, error) {
		out := newTally(len(confs))
		ds, err := cases[pt].gen(src)
		if err != nil {
			return tally{}, err
		}
		if prune {
			pruned, _, err := core.PruneSpammers(ds, core.DefaultPruneThreshold)
			if err != nil {
				out.failures++
				return out, nil
			}
			ds = pruned
		}
		deltas, err := s.EvaluateWorkersDelta(ds, core.EvalOptions{})
		if err != nil {
			return tally{}, err
		}
		for _, d := range deltas {
			if d.Err != nil {
				out.failures++
				continue
			}
			trueRate, err := ds.TrueErrorRate(d.Worker)
			if err != nil {
				continue // worker answered no gold-labelled tasks
			}
			for ci, c := range confs {
				out.record(ci, d.Est.Interval(c).ClampTo(0, 1).Contains(trueRate))
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for pt, cs := range cases {
		res.Series = append(res.Series, accuracySeries(res, cs.label, confs, results[pt]))
	}
	return res, nil
}
