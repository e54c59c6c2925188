// Package crowd defines the data model shared by every algorithm in the
// reproduction: a sparse worker×task response matrix with optional gold
// answers, pairwise/triple agreement statistics, and the 3-dimensional
// response-count tensor consumed by the k-ary algorithm (A3).
//
// Conventions follow the paper: tasks have k possible responses r1…rk,
// encoded 1…k; the value 0 (None) is the paper's null response r0 and means
// "worker did not attempt the task". Binary datasets use arity 2 with
// responses 1 (Yes) and 2 (No).
package crowd

import (
	"errors"
	"fmt"
)

// Response is a single worker answer: 0 (None) when the task was not
// attempted, otherwise a class index in 1…arity.
type Response int

// None is the null response r0: the worker did not attempt the task.
const None Response = 0

// Binary response values. Binary datasets are arity-2 with Yes/No classes.
const (
	Yes Response = 1
	No  Response = 2
)

// ErrArity is returned when a response is outside 0…arity or an arity is
// below 2.
var ErrArity = errors.New("crowd: response outside dataset arity")

// Dataset is a sparse collection of worker responses on tasks, with optional
// gold-standard answers used only for evaluation (never by the estimation
// algorithms themselves).
type Dataset struct {
	numWorkers int
	numTasks   int
	arity      int
	resp       []Response // [worker*numTasks + task], None = not attempted
	truth      []Response // per task, None = unknown
}

// NewDataset returns an empty dataset for the given shape. Arity must be at
// least 2; workers and tasks must be positive.
func NewDataset(workers, tasks, arity int) (*Dataset, error) {
	if workers <= 0 || tasks <= 0 {
		return nil, fmt.Errorf("crowd: invalid shape %d workers × %d tasks", workers, tasks)
	}
	if arity < 2 {
		return nil, fmt.Errorf("crowd: arity %d: %w", arity, ErrArity)
	}
	return &Dataset{
		numWorkers: workers,
		numTasks:   tasks,
		arity:      arity,
		resp:       make([]Response, workers*tasks),
		truth:      make([]Response, tasks),
	}, nil
}

// MustNewDataset is NewDataset panicking on error, for tests and examples.
func MustNewDataset(workers, tasks, arity int) *Dataset {
	d, err := NewDataset(workers, tasks, arity)
	if err != nil {
		panic(err)
	}
	return d
}

// Workers returns the number of workers.
func (d *Dataset) Workers() int { return d.numWorkers }

// Tasks returns the number of tasks.
func (d *Dataset) Tasks() int { return d.numTasks }

// Arity returns the number of possible responses k.
func (d *Dataset) Arity() int { return d.arity }

// SetResponse records worker w's response r on task t. Setting None removes
// a response. It returns ErrArity for out-of-range responses.
func (d *Dataset) SetResponse(w, t int, r Response) error {
	if err := d.checkWT(w, t); err != nil {
		return err
	}
	if r < 0 || int(r) > d.arity {
		return fmt.Errorf("crowd: response %d with arity %d: %w", r, d.arity, ErrArity)
	}
	d.resp[w*d.numTasks+t] = r
	return nil
}

// Response returns worker w's response on task t (None if unattempted).
func (d *Dataset) Response(w, t int) Response {
	if err := d.checkWT(w, t); err != nil {
		panic(err)
	}
	return d.resp[w*d.numTasks+t]
}

// row returns worker w's responses, task by task, aliasing the dataset.
// It panics as Response does when w is out of range.
func (d *Dataset) row(w int) []Response {
	if err := d.checkWT(w, 0); err != nil {
		panic(err)
	}
	return d.resp[w*d.numTasks:][:d.numTasks]
}

// Attempted reports whether worker w answered task t.
func (d *Dataset) Attempted(w, t int) bool { return d.Response(w, t) != None }

// SetTruth records the gold-standard answer for task t (None = unknown).
func (d *Dataset) SetTruth(t int, r Response) error {
	if t < 0 || t >= d.numTasks {
		return fmt.Errorf("crowd: task %d out of range", t)
	}
	if r < 0 || int(r) > d.arity {
		return fmt.Errorf("crowd: truth %d with arity %d: %w", r, d.arity, ErrArity)
	}
	d.truth[t] = r
	return nil
}

// Truth returns the gold answer for task t (None if unknown).
func (d *Dataset) Truth(t int) Response {
	if t < 0 || t >= d.numTasks {
		panic(fmt.Sprintf("crowd: task %d out of range", t))
	}
	return d.truth[t]
}

// HasTruth reports whether every task has a gold answer.
func (d *Dataset) HasTruth() bool {
	for _, r := range d.truth {
		if r == None {
			return false
		}
	}
	return true
}

func (d *Dataset) checkWT(w, t int) error {
	if w < 0 || w >= d.numWorkers || t < 0 || t >= d.numTasks {
		return fmt.Errorf("crowd: (worker %d, task %d) out of range for %d×%d", w, t, d.numWorkers, d.numTasks)
	}
	return nil
}

// ResponseCount returns the number of tasks worker w attempted.
func (d *Dataset) ResponseCount(w int) int {
	n := 0
	for t := 0; t < d.numTasks; t++ {
		if d.resp[w*d.numTasks+t] != None {
			n++
		}
	}
	return n
}

// Density returns the fraction of worker-task pairs with a response.
func (d *Dataset) Density() float64 {
	n := 0
	for _, r := range d.resp {
		if r != None {
			n++
		}
	}
	return float64(n) / float64(len(d.resp))
}

// IsRegular reports whether every worker attempted every task.
func (d *Dataset) IsRegular() bool {
	for _, r := range d.resp {
		if r == None {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{
		numWorkers: d.numWorkers,
		numTasks:   d.numTasks,
		arity:      d.arity,
		resp:       make([]Response, len(d.resp)),
		truth:      make([]Response, len(d.truth)),
	}
	copy(c.resp, d.resp)
	copy(c.truth, d.truth)
	return c
}

// SelectWorkers returns a new dataset containing only the given workers (in
// the given order), preserving all tasks and gold answers. Worker indices in
// the result are positions in the workers slice.
func (d *Dataset) SelectWorkers(workers []int) (*Dataset, error) {
	if len(workers) == 0 {
		return nil, errors.New("crowd: SelectWorkers with empty worker list")
	}
	out, err := NewDataset(len(workers), d.numTasks, d.arity)
	if err != nil {
		return nil, err
	}
	for newW, oldW := range workers {
		if oldW < 0 || oldW >= d.numWorkers {
			return nil, fmt.Errorf("crowd: worker %d out of range", oldW)
		}
		copy(out.resp[newW*d.numTasks:(newW+1)*d.numTasks], d.resp[oldW*d.numTasks:(oldW+1)*d.numTasks])
	}
	copy(out.truth, d.truth)
	return out, nil
}

// Validate checks internal consistency: every stored response and truth
// value must be within 0…arity.
func (d *Dataset) Validate() error {
	for i, r := range d.resp {
		if r < 0 || int(r) > d.arity {
			return fmt.Errorf("crowd: response[%d] = %d outside arity %d: %w", i, r, d.arity, ErrArity)
		}
	}
	for t, r := range d.truth {
		if r < 0 || int(r) > d.arity {
			return fmt.Errorf("crowd: truth[%d] = %d outside arity %d: %w", t, r, d.arity, ErrArity)
		}
	}
	return nil
}
