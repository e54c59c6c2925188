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
	for _, cs := range cases {
		type rep struct {
			hits, totals []int
			failures     int
		}
		results, err := runReplicates(p.Seed, reps, func(src *randx.Source) (rep, error) {
			out := rep{hits: make([]int, len(confs)), totals: make([]int, len(confs))}
			ds, err := cs.gen(src)
			if err != nil {
				return rep{}, err
			}
			if prune {
				pruned, _, err := core.PruneSpammers(ds, core.DefaultPruneThreshold)
				if err != nil {
					out.failures++
					return out, nil
				}
				ds = pruned
			}
			deltas, err := core.EvaluateWorkersDelta(ds, core.EvalOptions{})
			if err != nil {
				return rep{}, err
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
					out.totals[ci]++
					if d.Est.Interval(c).ClampTo(0, 1).Contains(trueRate) {
						out.hits[ci]++
					}
				}
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		hits := make([]int, len(confs))
		totals := make([]int, len(confs))
		for _, r := range results {
			res.Failures += r.failures
			for ci := range confs {
				hits[ci] += r.hits[ci]
				totals[ci] += r.totals[ci]
			}
		}
		s := Series{Label: cs.label}
		for ci, c := range confs {
			y := 0.0
			if totals[ci] > 0 {
				y = float64(hits[ci]) / float64(totals[ci])
			}
			s.Points = append(s.Points, Point{X: c, Y: y})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}
