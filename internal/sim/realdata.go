package sim

import (
	"math"

	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
)

// This file emulates the six real datasets of the paper's evaluation.
// The originals (Mechanical Turk collections and a MOOC peer-grading dump)
// are not available offline, so each emulator regenerates a crowd with the
// same shape, sparsity, arity reduction, worker-quality mix and — crucially —
// task-difficulty variation, which is the mechanism the paper identifies for
// real data violating the worker-independence assumption. Emulated figures
// therefore match the paper's trends, not its exact numbers.

// EmulateIC regenerates the Image Comparison dataset of [2]: 48 binary tasks
// × 19 workers, originally regular, with 20% of responses removed uniformly
// at random exactly as the paper does before its non-regular experiments.
func EmulateIC(src *randx.Source) (*crowd.Dataset, error) {
	const tasks, workers = 48, 19
	rates := make([]float64, workers)
	for i := range rates {
		switch {
		case i < 2:
			// A couple of near-spammers exist in the real pool.
			rates[i] = 0.38 + 0.06*src.Float64()
		default:
			rates[i] = 0.05 + 0.25*src.Float64()
		}
	}
	ds, _, err := Binary{
		Tasks:            tasks,
		Workers:          workers,
		ErrorRates:       rates,
		Density:          1, // regular before removal
		DifficultyStdDev: 0.08,
	}.Generate(src)
	if err != nil {
		return nil, err
	}
	removeFraction(ds, 0.20, src)
	return ds, nil
}

// EmulateRTE regenerates the Snow et al. textual-entailment dataset: 800
// binary tasks, 164 workers, very sparse with heavy-tailed worker
// participation and a visible spammer fraction (which is what makes the
// paper's Fig. 4 pruning step matter).
func EmulateRTE(src *randx.Source) (*crowd.Dataset, error) {
	return emulateSnowBinary(src, 800, 164)
}

// EmulateTEM regenerates the Snow et al. temporal-ordering dataset: 462
// binary tasks, 76 workers, sparse and heavy-tailed like RTE.
func EmulateTEM(src *randx.Source) (*crowd.Dataset, error) {
	return emulateSnowBinary(src, 462, 76)
}

// emulateSnowBinary builds a sparse binary AMT-style dataset with a
// heavy-tailed participation profile: a small prolific core answers most
// tasks while the long tail contributes a handful of labels each, plus
// ~12% spammers answering near-randomly.
func emulateSnowBinary(src *randx.Source, tasks, workers int) (*crowd.Dataset, error) {
	rates := make([]float64, workers)
	densities := make([]float64, workers)
	for i := range rates {
		if src.Bernoulli(0.15) {
			rates[i] = 0.45 + 0.05*src.Float64() // spammer: ≈ coin flips
		} else {
			rates[i] = 0.05 + 0.28*src.Float64()
		}
		// Heavy tail: squaring a uniform pushes mass toward small densities
		// (the long tail of casual workers); the floor keeps pairwise
		// overlaps above the handful-of-tasks regime where the delta
		// method's normal approximation has nothing to work with, matching
		// the prolific-core structure of the real AMT collections.
		u := src.Float64()
		densities[i] = 0.10 + 0.65*u*u
	}
	ds, _, err := Binary{
		Tasks:            tasks,
		Workers:          workers,
		ErrorRates:       rates,
		Densities:        densities,
		DifficultyStdDev: 0.05,
	}.Generate(src)
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// EmulateMOOC regenerates the peer-grading dataset: graders assign 6-ary
// grades with adjacent-grade confusion, and the dataset is collapsed to
// 3-ary via g ↦ ⌈g/2⌉ exactly as the paper does. The output guarantees
// enough worker triples with ≥60 common tasks for the Fig. 5(c) protocol.
func EmulateMOOC(src *randx.Source) (*crowd.Dataset, error) {
	const tasks, workers, arity = 220, 24, 6
	confs := make([]Confusion, workers)
	for i := range confs {
		confs[i] = adjacentConfusion(arity, 0.55+0.3*src.Float64(), src)
	}
	// Grades skew toward the upper-middle of the scale, as real peer grades do.
	sel := []float64{0.05, 0.10, 0.15, 0.25, 0.30, 0.15}
	ds, _, err := KAry{
		Tasks:       tasks,
		Workers:     workers,
		Confusions:  confs,
		Selectivity: sel,
		Density:     0.75,
	}.Generate(src)
	if err != nil {
		return nil, err
	}
	// The paper's reduction: grade g (1…6 here) → ⌈g/2⌉ ∈ {1,2,3}.
	return ds.CollapseArity(3, func(r crowd.Response) crowd.Response { return (r + 1) / 2 })
}

// EmulateWSD regenerates the word-sense-disambiguation dataset: 3-ary with
// class 2 almost absent (which makes the 3-ary spectral step singular), so
// the paper — and this emulator — collapse it to binary by merging classes
// 2 and 3.
func EmulateWSD(src *randx.Source) (*crowd.Dataset, error) {
	const tasks, workers = 320, 22
	confs := make([]Confusion, workers)
	for i := range confs {
		good := 0.70 + 0.25*src.Float64()
		rest := 1 - good
		confs[i] = MustConfusion([][]float64{
			{good, 0.02, rest - 0.02},
			{rest / 2, good, rest / 2},
			{rest - 0.02, 0.02, good},
		})
	}
	// Class 2 essentially never occurs, matching the paper's observation.
	sel := []float64{0.72, 0.005, 0.275}
	ds, _, err := KAry{
		Tasks:       tasks,
		Workers:     workers,
		Confusions:  confs,
		Selectivity: sel,
		Density:     0.8,
	}.Generate(src)
	if err != nil {
		return nil, err
	}
	// Merge senses 2 and 3, as the paper does to avoid the singular row.
	return ds.CollapseArity(2, func(r crowd.Response) crowd.Response {
		if r == 1 {
			return 1
		}
		return 2
	})
}

// EmulateWS regenerates the word-similarity dataset: 0–10 ratings (encoded
// as classes 1…11) collapsed to binary by thresholding at rating 6, with
// extreme sparsity so that worker triples share at most ≈30 tasks, matching
// the paper's t=30 protocol.
func EmulateWS(src *randx.Source) (*crowd.Dataset, error) {
	const tasks, workers, arity = 300, 36, 11
	confs := make([]Confusion, workers)
	for i := range confs {
		confs[i] = bandedConfusion(arity, 1.2+1.3*src.Float64())
	}
	sel := make([]float64, arity)
	for i := range sel {
		sel[i] = 1 / float64(arity)
	}
	ds, _, err := KAry{
		Tasks:       tasks,
		Workers:     workers,
		Confusions:  confs,
		Selectivity: sel,
		Density:     0.42,
	}.Generate(src)
	if err != nil {
		return nil, err
	}
	// Rating g = class−1 ∈ 0…10; low ratings (≤5) → class 1, high → class 2.
	return ds.CollapseArity(2, func(r crowd.Response) crowd.Response {
		if r <= 6 {
			return 1
		}
		return 2
	})
}

// adjacentConfusion builds a k×k grading matrix where the correct grade gets
// probability ≈ diag and errors fall mostly on adjacent grades — the typical
// peer-grading noise profile.
func adjacentConfusion(k int, diag float64, src *randx.Source) Confusion {
	rows := make([][]float64, k)
	for j1 := 0; j1 < k; j1++ {
		row := make([]float64, k)
		row[j1] = diag
		rest := 1 - diag
		// 80% of the residual mass to neighbours, the rest spread uniformly.
		neighbours := []int{}
		if j1 > 0 {
			neighbours = append(neighbours, j1-1)
		}
		if j1 < k-1 {
			neighbours = append(neighbours, j1+1)
		}
		for _, nb := range neighbours {
			row[nb] += 0.8 * rest / float64(len(neighbours))
		}
		far := 0.2 * rest / float64(k-1)
		for j2 := 0; j2 < k; j2++ {
			if j2 != j1 {
				row[j2] += far
			}
		}
		// Renormalize away rounding residue.
		var sum float64
		for _, v := range row {
			sum += v
		}
		for j2 := range row {
			row[j2] /= sum
		}
		rows[j1] = row
	}
	return MustConfusion(rows)
}

// bandedConfusion builds a k×k rating matrix with geometric decay away from
// the true rating: P(j2|j1) ∝ exp(−|j1−j2|/width).
func bandedConfusion(k int, width float64) Confusion {
	rows := make([][]float64, k)
	for j1 := 0; j1 < k; j1++ {
		row := make([]float64, k)
		var sum float64
		for j2 := 0; j2 < k; j2++ {
			d := float64(j1 - j2)
			if d < 0 {
				d = -d
			}
			row[j2] = math.Exp(-d / width)
			sum += row[j2]
		}
		for j2 := range row {
			row[j2] /= sum
		}
		rows[j1] = row
	}
	return MustConfusion(rows)
}

// removeFraction deletes the given fraction of existing responses uniformly
// at random, as the paper does to de-regularize the IC dataset.
func removeFraction(ds *crowd.Dataset, frac float64, src *randx.Source) {
	type wt struct{ w, t int }
	var cells []wt
	for w := 0; w < ds.Workers(); w++ {
		for t := 0; t < ds.Tasks(); t++ {
			if ds.Attempted(w, t) {
				cells = append(cells, wt{w, t})
			}
		}
	}
	remove := int(frac * float64(len(cells)))
	for _, idx := range src.SampleWithoutReplacement(len(cells), remove) {
		c := cells[idx]
		_ = ds.SetResponse(c.w, c.t, crowd.None)
	}
}
