package eval

import (
	"fmt"

	"crowdassess/internal/core"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// Replicate sweeps.
//
// A sweep runs one kernel over many replicates of a synthetic binary
// workload. Every replicate reduces to a fixed-length float64 vector of
// sufficient statistics (sums and counts, no means), replicate r is seeded
// Seed+r, and the final reduction folds the vectors in replicate order, so
// a serial and a parallel run return the same Result bit for bit.

// Sweep kernels.
const (
	// SweepWidth measures mean interval size per confidence level
	// (the Fig. 1/2b protocol).
	SweepWidth = "width"
	// SweepCoverage measures interval accuracy — the fraction of intervals
	// containing the true error rate — per confidence level (the Fig. 2a
	// protocol).
	SweepCoverage = "coverage"
)

// SweepKernels lists the available sweep kernels.
func SweepKernels() []string { return []string{SweepWidth, SweepCoverage} }

// SweepSpec describes one replicate sweep: a kernel applied to
// a synthetic binary workload. The zero values of Workers/Tasks/Replicates
// select 7 workers, 100 tasks and the paper's 500 replicates.
type SweepSpec struct {
	// Kernel selects the per-replicate statistic (SweepWidth or
	// SweepCoverage).
	Kernel string
	// Workers is the synthetic crowd size (default 7).
	Workers int
	// Tasks is the synthetic task count (default 100).
	Tasks int
	// Density is the per-worker attempt probability in (0, 1]. The zero
	// value selects 0.8 — a sweep over literally-zero density is not
	// expressible (and would be degenerate anyway).
	Density float64
	// Replicates is the total number of replicates (default 500).
	Replicates int
	// Seed anchors replicate r's source at Seed+r, serial or parallel.
	Seed int64
}

// WithDefaults resolves the zero values.
func (s SweepSpec) WithDefaults() SweepSpec {
	if s.Workers == 0 {
		s.Workers = 7
	}
	if s.Tasks == 0 {
		s.Tasks = 100
	}
	if s.Density == 0 {
		s.Density = 0.8
	}
	if s.Replicates == 0 {
		s.Replicates = 500
	}
	return s
}

// Validate rejects specs a sweep cannot run.
func (s SweepSpec) Validate() error {
	s = s.WithDefaults()
	switch s.Kernel {
	case SweepWidth, SweepCoverage:
	default:
		return fmt.Errorf("eval: unknown sweep kernel %q (known: %v)", s.Kernel, SweepKernels())
	}
	if s.Workers < 3 {
		return fmt.Errorf("eval: sweep needs at least 3 workers, has %d", s.Workers)
	}
	if s.Tasks < 1 {
		return fmt.Errorf("eval: sweep needs at least 1 task, has %d", s.Tasks)
	}
	// The inverted comparison rejects NaN too: NaN fails every ordered
	// comparison, so a plain "< 0 || > 1" check would wave it through into
	// the simulator.
	if !(s.Density > 0 && s.Density <= 1) {
		return fmt.Errorf("eval: sweep density %v outside (0, 1]", s.Density)
	}
	if s.Replicates < 1 {
		return fmt.Errorf("eval: sweep needs at least 1 replicate, has %d", s.Replicates)
	}
	return nil
}

// sweepVectorLen is the fixed per-replicate vector length: two accumulator
// slots (sum/count or hits/totals) per confidence level, plus a failure
// count in the last slot.
func sweepVectorLen() int { return 2*len(Confidences()) + 1 }

// sweepReplicate computes one replicate's statistic vector.
func sweepReplicate(s SweepSpec, src *randx.Source) ([]float64, error) {
	confs := Confidences()
	vec := make([]float64, sweepVectorLen())
	ds, rates, err := sim.Binary{Tasks: s.Tasks, Workers: s.Workers, Density: s.Density}.Generate(src)
	if err != nil {
		return nil, err
	}
	deltas, err := core.EvaluateWorkersDelta(ds, core.EvalOptions{})
	if err != nil {
		return nil, err
	}
	for _, d := range deltas {
		if d.Err != nil {
			vec[len(vec)-1]++
			continue
		}
		for ci, c := range confs {
			iv := d.Est.Interval(c).ClampTo(0, 1)
			switch s.Kernel {
			case SweepWidth:
				vec[2*ci] += iv.Size()
				vec[2*ci+1]++
			case SweepCoverage:
				if iv.Contains(rates[d.Worker]) {
					vec[2*ci]++
				}
				vec[2*ci+1]++
			}
		}
	}
	return vec, nil
}

// RunSweep runs every replicate of a sweep in this process, then folds the
// vectors in replicate order into the sweep's Result. With parallel=true the
// replicates fan out over GOMAXPROCS goroutines through the same
// deterministic engine the figure runners use; the Result is bit-identical
// to a serial run.
func RunSweep(s SweepSpec, parallel bool) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = s.WithDefaults()
	vectors, err := runReplicates(parallel, s.Seed, s.Replicates, func(src *randx.Source) ([]float64, error) {
		return sweepReplicate(s, src)
	})
	if err != nil {
		return nil, err
	}
	total := make([]float64, sweepVectorLen())
	for _, vec := range vectors {
		for i, v := range vec {
			total[i] += v
		}
	}
	confs := Confidences()
	res := &Result{
		Name:     "sweep/" + s.Kernel,
		XLabel:   "Confidence Level",
		Failures: int(total[len(total)-1]),
	}
	switch s.Kernel {
	case SweepWidth:
		res.Title = "Mean interval size vs. confidence"
		res.YLabel = "Size of Interval"
	case SweepCoverage:
		res.Title = "Interval accuracy vs. confidence"
		res.YLabel = "Accuracy"
	}
	series := Series{Label: fmt.Sprintf("%d workers, %d tasks, density %g", s.Workers, s.Tasks, s.Density)}
	for ci, c := range confs {
		y := 0.0
		if total[2*ci+1] > 0 {
			y = total[2*ci] / total[2*ci+1]
		}
		series.Points = append(series.Points, Point{X: c, Y: y})
	}
	res.Series = append(res.Series, series)
	return res, nil
}
