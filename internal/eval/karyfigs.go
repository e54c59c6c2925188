package eval

import (
	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// Fig5a regenerates Figure 5(a): interval accuracy vs confidence for the
// 3-worker k-ary method, k ∈ {2,3,4} and n ∈ {100,1000}, with each worker
// assigned one of the paper's response-probability matrices at random.
func Fig5a(p Params) (*Result, error) {
	res := &Result{
		Name:   "fig5a",
		Title:  "Accuracy of confidence interval vs confidence level",
		XLabel: "Confidence Level",
		YLabel: "Accuracy",
	}
	confs := Confidences()
	configs := []struct{ k, n int }{{2, 100}, {2, 1000}, {3, 100}, {3, 1000}, {4, 100}, {4, 1000}}
	results, err := runGrid(p.Seed, len(configs), p.replicates(), func(pt int, src *randx.Source, s *core.Solver) (tally, error) {
		k, n := configs[pt].k, configs[pt].n
		out := newTally(len(confs))
		ds, workerConfs, err := sim.KAry{
			Tasks:            n,
			Workers:          3,
			ConfusionChoices: sim.PaperMatrices(k),
		}.Generate(src)
		if err != nil {
			return tally{}, err
		}
		delta, err := s.ThreeWorkerKAryDelta(ds, [3]int{0, 1, 2})
		if err != nil {
			out.failures++
			return out, nil
		}
		var est core.KAryEstimate
		for ci, c := range confs {
			delta.IntervalsInto(c, &est)
			for w := 0; w < 3; w++ {
				for a := 0; a < k; a++ {
					for b := 0; b < k; b++ {
						out.record(ci, est.Intervals[w][a][b].Contains(workerConfs[w][a][b]))
					}
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for pt, cfg := range configs {
		label := "arity " + itoa(cfg.k) + ", " + itoa(cfg.n) + " tasks"
		res.Series = append(res.Series, accuracySeries(res, label, confs, results[pt]))
	}
	return res, nil
}

// Fig5b regenerates Figure 5(b): average interval size vs density at
// c = 0.8 with n = 500 tasks, for arity 2, 3 and 4.
func Fig5b(p Params) (*Result, error) {
	res := &Result{
		Name:   "fig5b",
		Title:  "Average size of confidence interval vs density",
		XLabel: "Density",
		YLabel: "Average Size of Interval",
	}
	const c = 0.8
	const n = 500
	arities := []int{2, 3, 4}
	densities := Densities()
	type rep struct {
		sizes    []float64
		failures int
	}
	// Point pt is arity arities[pt/len(densities)] at density
	// densities[pt%len(densities)].
	results, err := runGrid(p.Seed, len(arities)*len(densities), p.replicates(), func(pt int, src *randx.Source, s *core.Solver) (rep, error) {
		k, d := arities[pt/len(densities)], densities[pt%len(densities)]
		var out rep
		ds, _, err := sim.KAry{
			Tasks:            n,
			Workers:          3,
			ConfusionChoices: sim.PaperMatrices(k),
			Density:          d,
		}.Generate(src)
		if err != nil {
			return rep{}, err
		}
		delta, err := s.ThreeWorkerKAryDelta(ds, [3]int{0, 1, 2})
		if err != nil {
			out.failures++
			return out, nil
		}
		est := delta.Intervals(c)
		for w := 0; w < 3; w++ {
			for a := 0; a < k; a++ {
				for b := 0; b < k; b++ {
					out.sizes = append(out.sizes, est.Intervals[w][a][b].Size())
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range arities {
		s := Series{Label: "Arity " + itoa(k)}
		for di, d := range densities {
			var sizes []float64
			for _, r := range results[ki*len(densities)+di] {
				res.Failures += r.failures
				sizes = append(sizes, r.sizes...)
			}
			s.Points = append(s.Points, Point{X: d, Y: meanOf(sizes)})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig5c regenerates Figure 5(c): interval accuracy vs confidence on the
// emulated MOOC (3-ary), WSD (2-ary) and WS (2-ary) datasets. Following the
// paper's protocol, up to 50 random worker triples with at least t common
// tasks are evaluated per dataset (t = 60, 100, 30 respectively).
func Fig5c(p Params) (*Result, error) {
	res := &Result{
		Name:   "fig5c",
		Title:  "Accuracy of confidence interval vs confidence level (real data)",
		XLabel: "Confidence Level",
		YLabel: "Accuracy",
	}
	cases := []struct {
		label     string
		gen       func(*randx.Source) (*crowd.Dataset, error)
		threshold int
	}{
		{"MOOC arity 3", sim.EmulateMOOC, 60},
		{"WSD arity 2", sim.EmulateWSD, 100},
		{"Wordsim arity 2", sim.EmulateWS, 30},
	}
	confs := Confidences()
	// One emulated dataset per replicate; the paper samples 50 triples from
	// one fixed dataset, so even Replicates=1 follows the protocol.
	reps := p.Replicates
	if reps <= 0 {
		reps = 5
	}
	results, err := runGrid(p.Seed, len(cases), reps, func(pt int, src *randx.Source, s *core.Solver) (tally, error) {
		cs := cases[pt]
		out := newTally(len(confs))
		ds, err := cs.gen(src)
		if err != nil {
			return tally{}, err
		}
		triples := eligibleTriples(ds, cs.threshold)
		src.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })
		if len(triples) > 50 {
			triples = triples[:50]
		}
		k := ds.Arity()
		var est core.KAryEstimate
		for _, tr := range triples {
			delta, err := s.ThreeWorkerKAryDelta(ds, tr)
			if err != nil {
				out.failures++
				continue
			}
			// Gold-derived proxy for each worker's true response matrix.
			var proxies [3][][]float64
			var proxyRows [3][]bool
			usable := true
			for w := 0; w < 3; w++ {
				conf, hasRow, err := ds.TrueConfusion(tr[w])
				if err != nil {
					usable = false
					break
				}
				proxies[w] = conf
				proxyRows[w] = hasRow
			}
			if !usable {
				out.failures++
				continue
			}
			for ci, c := range confs {
				delta.IntervalsInto(c, &est)
				for w := 0; w < 3; w++ {
					for a := 0; a < k; a++ {
						if !proxyRows[w][a] {
							continue // no gold observation for this row
						}
						for b := 0; b < k; b++ {
							out.record(ci, est.Intervals[w][a][b].Contains(proxies[w][a][b]))
						}
					}
				}
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

// eligibleTriples returns every worker triple sharing at least threshold
// common tasks, in deterministic index order. c_{i,j,k} is at most each
// of c_{i,j}, c_{i,k} and c_{j,k}, so only the triples whose three pairs
// pass (the candidates) get a three-way count. The counts are kept as one
// flag per candidate, so the output is allocated once, at its length.
func eligibleTriples(ds *crowd.Dataset, threshold int) [][3]int {
	att := ds.Attendance()
	m := ds.Workers()
	pairOK := make([]bool, m*m)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			pairOK[i*m+j] = att.Common2(i, j) >= threshold
		}
	}
	candidates := func(f func(i, j, k int)) {
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				if !pairOK[i*m+j] {
					continue
				}
				for k := j + 1; k < m; k++ {
					if pairOK[i*m+k] && pairOK[j*m+k] {
						f(i, j, k)
					}
				}
			}
		}
	}
	var keep []bool
	n := 0
	candidates(func(i, j, k int) {
		ok := att.Common3(i, j, k) >= threshold
		keep = append(keep, ok)
		if ok {
			n++
		}
	})
	out := make([][3]int, 0, n)
	c := 0
	candidates(func(i, j, k int) {
		if keep[c] {
			out = append(out, [3]int{i, j, k})
		}
		c++
	})
	return out
}
