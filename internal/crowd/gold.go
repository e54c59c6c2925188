package crowd

import (
	"errors"
	"fmt"
)

// ErrNoGold is returned by evaluation helpers when the dataset lacks the
// gold answers they need.
var ErrNoGold = errors.New("crowd: dataset has no gold-standard answers")

// TrueErrorRate returns the fraction of worker w's answered gold-labelled
// tasks that were answered incorrectly. The paper uses this as the proxy for
// the worker's true error rate on real datasets. Tasks without gold answers
// are skipped; an error is returned when none remain.
func (d *Dataset) TrueErrorRate(w int) (float64, error) {
	attempted, wrong := 0, 0
	for t, r := range d.row(w) {
		g := d.truth[t]
		if r == None || g == None {
			continue
		}
		attempted++
		if r != g {
			wrong++
		}
	}
	if attempted == 0 {
		return 0, fmt.Errorf("worker %d: %w", w, ErrNoGold)
	}
	return float64(wrong) / float64(attempted), nil
}

// TrueConfusion returns the empirical k×k response-probability matrix of
// worker w: entry [j1][j2] is the fraction of gold-j1 tasks the worker
// answered with j2 (the paper's proxy for P_i(j1, j2) on real data).
// Rows with no observations are returned as all-zero; hasRow reports which
// rows are backed by at least one observation.
func (d *Dataset) TrueConfusion(w int) (conf [][]float64, hasRow []bool, err error) {
	k := d.arity
	counts := make([][]int, k)
	rowTotals := make([]int, k)
	for i := range counts {
		counts[i] = make([]int, k)
	}
	seen := false
	for t, r := range d.row(w) {
		g := d.truth[t]
		if r == None || g == None {
			continue
		}
		seen = true
		counts[g-1][r-1]++
		rowTotals[g-1]++
	}
	if !seen {
		return nil, nil, fmt.Errorf("worker %d: %w", w, ErrNoGold)
	}
	conf = make([][]float64, k)
	hasRow = make([]bool, k)
	for j1 := 0; j1 < k; j1++ {
		conf[j1] = make([]float64, k)
		if rowTotals[j1] == 0 {
			continue
		}
		hasRow[j1] = true
		for j2 := 0; j2 < k; j2++ {
			conf[j1][j2] = float64(counts[j1][j2]) / float64(rowTotals[j1])
		}
	}
	return conf, hasRow, nil
}

// GoldSelectivity returns the empirical prior over true classes among tasks
// with gold answers: entry j is the fraction of gold answers equal to j+1.
func (d *Dataset) GoldSelectivity() ([]float64, error) {
	counts := make([]int, d.arity)
	total := 0
	for _, g := range d.truth {
		if g == None {
			continue
		}
		counts[g-1]++
		total++
	}
	if total == 0 {
		return nil, ErrNoGold
	}
	out := make([]float64, d.arity)
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out, nil
}

// CollapseArity returns a copy of the dataset with responses and gold
// answers remapped through classOf, which must map 1…arity onto 1…newArity.
// The paper applies such reductions to MOOC (6→3 via ⌈g/2⌉), WS (11→2) and
// WSD (3→2).
func (d *Dataset) CollapseArity(newArity int, classOf func(Response) Response) (*Dataset, error) {
	if newArity < 2 {
		return nil, fmt.Errorf("crowd: new arity %d: %w", newArity, ErrArity)
	}
	out, err := NewDataset(d.numWorkers, d.numTasks, newArity)
	if err != nil {
		return nil, err
	}
	remap := func(r Response) (Response, error) {
		if r == None {
			return None, nil
		}
		nr := classOf(r)
		if nr < 1 || int(nr) > newArity {
			return None, fmt.Errorf("crowd: classOf(%d) = %d outside 1…%d: %w", r, nr, newArity, ErrArity)
		}
		return nr, nil
	}
	for w := 0; w < d.numWorkers; w++ {
		for t := 0; t < d.numTasks; t++ {
			nr, err := remap(d.Response(w, t))
			if err != nil {
				return nil, err
			}
			if err := out.SetResponse(w, t, nr); err != nil {
				return nil, err
			}
		}
	}
	for t := 0; t < d.numTasks; t++ {
		nr, err := remap(d.truth[t])
		if err != nil {
			return nil, err
		}
		if err := out.SetTruth(t, nr); err != nil {
			return nil, err
		}
	}
	return out, nil
}
