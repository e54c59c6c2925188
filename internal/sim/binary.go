// Package sim generates the synthetic crowds used throughout the paper's
// evaluation: binary workers with fixed error rates (Section III), k-ary
// workers with confusion matrices (Section IV), and seeded emulators for the
// six real datasets the paper evaluates on (IC, RTE, TEM, MOOC, WSD, WS),
// which stand in for the originals because those are not available offline.
package sim

import (
	"fmt"

	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
)

// DefaultErrorRateChoices is the paper's worker-quality mix: each worker's
// error rate is drawn uniformly from {0.1, 0.2, 0.3}.
var DefaultErrorRateChoices = []float64{0.1, 0.2, 0.3}

// Binary configures a synthetic binary-task crowd (Section III experiments).
type Binary struct {
	Tasks   int // number of tasks n
	Workers int // number of workers m

	// ErrorRates fixes each worker's error rate. When nil, each worker draws
	// uniformly from ErrorRateChoices (or DefaultErrorRateChoices when that
	// is nil too).
	ErrorRates       []float64
	ErrorRateChoices []float64

	// Densities gives each worker's per-task attempt probability. When nil,
	// Density applies to every worker; a zero Density means 1 (regular data).
	Densities []float64
	Density   float64

	// Selectivity is the prior probability that a task's true answer is Yes.
	// Zero means 0.5.
	Selectivity float64

	// DifficultyStdDev adds a per-task difficulty shift to every worker's
	// error rate (clamped to [0.01, 0.49] per attempt). Nonzero values break
	// the independence assumption the same way real tasks do (Section III-E).
	DifficultyStdDev float64
}

// Generate draws a dataset from the configuration. It returns the dataset
// (with gold answers populated) and the per-worker true error rates used.
func (b Binary) Generate(src *randx.Source) (*crowd.Dataset, []float64, error) {
	if b.Tasks <= 0 || b.Workers <= 0 {
		return nil, nil, fmt.Errorf("sim: invalid shape %d workers × %d tasks", b.Workers, b.Tasks)
	}
	rates := b.ErrorRates
	if rates == nil {
		choices := b.ErrorRateChoices
		if choices == nil {
			choices = DefaultErrorRateChoices
		}
		rates = make([]float64, b.Workers)
		for i := range rates {
			rates[i] = src.Choice(choices)
		}
	} else if len(rates) != b.Workers {
		return nil, nil, fmt.Errorf("sim: %d error rates for %d workers", len(rates), b.Workers)
	}
	densities := b.Densities
	if densities == nil {
		d := b.Density
		if d == 0 {
			d = 1
		}
		densities = make([]float64, b.Workers)
		for i := range densities {
			densities[i] = d
		}
	} else if len(densities) != b.Workers {
		return nil, nil, fmt.Errorf("sim: %d densities for %d workers", len(densities), b.Workers)
	}
	sel := b.Selectivity
	if sel == 0 {
		sel = 0.5
	}

	ds, err := crowd.NewDataset(b.Workers, b.Tasks, 2)
	if err != nil {
		return nil, nil, err
	}
	difficulty := make([]float64, b.Tasks)
	if b.DifficultyStdDev > 0 {
		for t := range difficulty {
			difficulty[t] = src.NormFloat64() * b.DifficultyStdDev
		}
	}
	for t := 0; t < b.Tasks; t++ {
		truth := crowd.No
		if src.Bernoulli(sel) {
			truth = crowd.Yes
		}
		if err := ds.SetTruth(t, truth); err != nil {
			return nil, nil, err
		}
		for w := 0; w < b.Workers; w++ {
			if !src.Bernoulli(densities[w]) {
				continue
			}
			p := clampRate(rates[w] + difficulty[t])
			r := truth
			if src.Bernoulli(p) {
				r = flip(truth)
			}
			if err := ds.SetResponse(w, t, r); err != nil {
				return nil, nil, err
			}
		}
	}
	rcopy := make([]float64, len(rates))
	copy(rcopy, rates)
	return ds, rcopy, nil
}

func flip(r crowd.Response) crowd.Response {
	if r == crowd.Yes {
		return crowd.No
	}
	return crowd.Yes
}

func clampRate(p float64) float64 {
	if p < 0.01 {
		return 0.01
	}
	if p > 0.49 {
		return 0.49
	}
	return p
}

// Fig2cDensities returns the per-worker densities of the paper's weight
// optimization experiment (Section III-D3): dᵢ = (0.5·i + (m − i))/m for
// i = 1…m, so different workers attempt very different numbers of tasks.
func Fig2cDensities(m int) []float64 {
	out := make([]float64, m)
	for i := 1; i <= m; i++ {
		out[i-1] = (0.5*float64(i) + float64(m-i)) / float64(m)
	}
	return out
}
