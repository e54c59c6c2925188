// Package pool manages a crowd-worker pool through its hiring lifecycle
// using confidence intervals — the application the paper's introduction
// motivates: "if we're going to fire a worker for having a high estimated
// error rate, then it is important to be sufficiently confident that the
// worker has low ability."
//
// Workers move through states on interval evidence, never on bare point
// estimates:
//
//	Probation → Active      when the interval's upper end clears the bar
//	Probation/Active → Fired when the interval's lower end breaches the bar
//	anything  → Fired        when the majority screen flags a pure spammer
//
// Responses stream in via Record or RecordBatch; Review applies the
// policy to the current statistics. The estimator is any core.StreamingEvaluator — the local
// core.ShardedIncremental or a cluster via dist.NewClusterEvaluator —
// handed to NewManagerWith.
package pool

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/obs"
	"crowdassess/internal/stat"
)

// State is a worker's position in the pool lifecycle.
type State int

const (
	// Probation is the initial state: the worker's quality is unproven.
	Probation State = iota
	// Active workers have demonstrated acceptable quality with confidence.
	Active
	// Fired workers are out of the pool; their responses are retained for
	// evaluating others but they receive no further tasks.
	Fired
)

// String renders the state for logs and reports.
func (s State) String() string {
	switch s {
	case Probation:
		return "probation"
	case Active:
		return "active"
	case Fired:
		return "fired"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Policy sets the decision bars. The zero value is not valid; use
// DefaultPolicy as a starting point.
type Policy struct {
	// Confidence for the intervals feeding decisions (e.g. 0.9).
	Confidence float64
	// FireAbove fires a worker once the interval's lower end exceeds it:
	// even the optimistic reading of the evidence is unacceptable.
	FireAbove float64
	// PromoteBelow promotes a probation worker once the interval's upper
	// end falls below it: even the pessimistic reading is acceptable.
	PromoteBelow float64
	// SpammerDisagreement fires on the majority screen regardless of
	// intervals (the paper's 0.4 cutoff; pure spammers sit on the
	// estimator's singularity and never produce usable intervals).
	SpammerDisagreement float64
	// MinResponses defers any decision on a worker until this many of their
	// responses have been recorded.
	MinResponses int
}

// DefaultPolicy mirrors the thresholds used across the paper's scenarios.
func DefaultPolicy() Policy {
	return Policy{
		Confidence:          0.90,
		FireAbove:           0.30,
		PromoteBelow:        0.20,
		SpammerDisagreement: core.DefaultPruneThreshold,
		MinResponses:        20,
	}
}

func (p Policy) validate() error {
	if !(p.Confidence > 0 && p.Confidence < 1) {
		return fmt.Errorf("pool: confidence %v outside (0,1)", p.Confidence)
	}
	if p.FireAbove <= 0 || p.FireAbove >= 0.5 {
		return fmt.Errorf("pool: FireAbove %v outside (0, 0.5)", p.FireAbove)
	}
	if p.PromoteBelow <= 0 || p.PromoteBelow > p.FireAbove+0.25 {
		return fmt.Errorf("pool: PromoteBelow %v implausible against FireAbove %v", p.PromoteBelow, p.FireAbove)
	}
	if p.SpammerDisagreement <= 0 || p.SpammerDisagreement >= 1 {
		return fmt.Errorf("pool: SpammerDisagreement %v outside (0,1)", p.SpammerDisagreement)
	}
	if p.MinResponses < 0 {
		return fmt.Errorf("pool: negative MinResponses %d", p.MinResponses)
	}
	return nil
}

// Action is a state transition produced by Review.
type Action int

const (
	// NoChange: the evidence does not yet justify a transition.
	NoChange Action = iota
	// Promote: probation → active.
	Promote
	// Fire: removed from the pool.
	Fire
)

// String renders the action.
func (a Action) String() string {
	switch a {
	case NoChange:
		return "no-change"
	case Promote:
		return "promote"
	case Fire:
		return "fire"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Decision reports the outcome of Review for one worker.
type Decision struct {
	Worker   int
	Action   Action
	State    State         // state after the action
	Interval stat.Interval // evidence (zero when no estimate exists yet)
	Reason   string
}

// Manager tracks the pool. It is built over core.StreamingEvaluator, so
// the same lifecycle logic runs on a local core.ShardedIncremental and on
// a cluster.
//
// Concurrency: Record is safe from any number of goroutines. Review and
// Estimates serialize against each other — and against Record, which
// blocks on the state lock for the duration of the call (merge plus
// covariance solves), so call Review at batch boundaries, not per
// response; that stall is the price of decisions computed against one
// consistent state. A Record racing a Review that fires the same worker
// may land one last response for that worker — statistically harmless
// (the estimator retains fired workers' responses anyway) and inherent to
// concurrent ingestion.
type Manager struct {
	policy Policy
	inc    core.StreamingEvaluator

	// mu guards states; responses are per-worker atomics so concurrent
	// Records for the same worker don't contend on it.
	mu        sync.RWMutex
	states    []State
	responses []atomic.Int64

	// obs, when set by Instrument, receives review/decision counters.
	// Guarded by mu.
	obs *obs.Registry
}

// ErrFired is returned when a response is recorded for a fired worker.
var ErrFired = errors.New("pool: worker is fired")

// NewManagerWith creates a pool over a streaming evaluator: a local
// core.NewShardedIncremental, or the coordinator-backed adapter
// dist.NewClusterEvaluator, through which Review pulls merged statistics
// from every node. The decisions are identical either way on the same
// responses, because the merge is exact and the solves run the same code
// path. The pool starts every worker on probation. An evaluator that
// already holds responses — a cluster rebuilt from its slice stores after a
// restart — counts toward MinResponses when it reports them per worker
// (both evaluators above do).
func NewManagerWith(inc core.StreamingEvaluator, policy Policy) (*Manager, error) {
	if err := policy.validate(); err != nil {
		return nil, err
	}
	workers := inc.Workers()
	m := &Manager{
		policy:    policy,
		inc:       inc,
		states:    make([]State, workers),
		responses: make([]atomic.Int64, workers),
	}
	if rc, ok := inc.(workerResponder); ok {
		counts, err := rc.WorkerResponses()
		if err == nil && len(counts) != workers {
			err = fmt.Errorf("pool: evaluator reports %d workers' responses, want %d", len(counts), workers)
		}
		if err != nil {
			return nil, err
		}
		for w, n := range counts {
			m.responses[w].Store(int64(n))
		}
	}
	return m, nil
}

// workerResponder is an evaluator that reports how many responses each
// worker has recorded.
type workerResponder interface {
	WorkerResponses() ([]int, error)
}

// Workers returns the pool size (including fired workers).
func (m *Manager) Workers() int { return len(m.states) }

// State returns worker w's current state.
func (m *Manager) State(w int) State {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.states[w]
}

// ActiveWorkers returns the indices of workers eligible for new tasks
// (probation and active).
func (m *Manager) ActiveWorkers() []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []int
	for w, s := range m.states {
		if s != Fired {
			out = append(out, w)
		}
	}
	return out
}

// Record stores worker w's response on task t. Responses from fired workers
// are rejected with ErrFired. It is safe to call concurrently.
func (m *Manager) Record(w, t int, r crowd.Response) error {
	if w < 0 || w >= len(m.states) {
		return fmt.Errorf("pool: worker %d out of range", w)
	}
	m.mu.RLock()
	fired := m.states[w] == Fired
	m.mu.RUnlock()
	if fired {
		return fmt.Errorf("pool: worker %d: %w", w, ErrFired)
	}
	if err := m.inc.Add(w, t, r); err != nil {
		return err
	}
	m.responses[w].Add(1)
	return nil
}

// RecordBatch stores a batch of responses as Record would one at a time,
// and returns how many it recorded and how many it rejected because their
// worker is fired; a fired worker's response is skipped, not an error. On
// an evaluator with a batch path (core.ShardedIncremental.AddBatch) the
// rest go in as one batch, which the evaluator checks whole and refuses,
// recording nothing, when a response is one it already holds; on any
// other evaluator they go in one Add at a time, and a refusal stops the
// batch with the responses before it recorded. Like Record, it is safe
// to call concurrently.
func (m *Manager) RecordBatch(rs []core.Response) (recorded, rejected int, err error) {
	for _, x := range rs {
		if x.Worker < 0 || x.Worker >= len(m.states) {
			return 0, 0, fmt.Errorf("pool: worker %d out of range", x.Worker)
		}
	}
	live := rs
	m.mu.RLock()
	for i, x := range rs {
		switch {
		case m.states[x.Worker] == Fired:
			if rejected == 0 {
				live = slices.Clone(rs[:i])
			}
			rejected++
		case rejected > 0:
			live = append(live, x)
		}
	}
	m.mu.RUnlock()
	if b, ok := m.inc.(batchAdder); ok {
		if err := b.AddBatch(live); err != nil {
			return 0, rejected, err
		}
		recorded = len(live)
	} else {
		for _, x := range live {
			if err = m.inc.Add(x.Worker, x.Task, x.Answer); err != nil {
				break
			}
			recorded++
		}
	}
	for _, x := range live[:recorded] {
		m.responses[x.Worker].Add(1)
	}
	return recorded, rejected, err
}

// batchAdder is an evaluator that records a batch of responses at once.
type batchAdder interface {
	AddBatch(rs []core.Response) error
}

// Review applies the policy to the current statistics and returns one
// decision per non-fired worker with enough responses. State transitions
// are applied before returning. Review holds the state lock for its
// duration, so concurrent Reviews serialize and Record sees transitions
// atomically.
func (m *Manager) Review() ([]Decision, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Decision
	// Load every response counter once: a concurrent Record pushing a
	// worker across MinResponses mid-Review must not let it reach the
	// interval loop without having faced the spammer screen below.
	counts := make([]int64, len(m.states))
	for w := range counts {
		counts[w] = m.responses[w].Load()
	}
	eligible := func(w int) bool {
		return m.states[w] != Fired && counts[w] >= int64(m.policy.MinResponses)
	}
	// Spammer screen first: it also protects the interval estimates of the
	// remaining workers (Section III-E). The fires it implies are only
	// collected here; no state changes until the evaluation below has
	// succeeded, so a failed Review (possible with a cluster-backed
	// evaluator) leaves the pool untouched and the retry re-emits every
	// decision instead of silently swallowing the fires.
	dis := m.inc.MajorityDisagreement()
	spamFired := make([]bool, len(m.states))
	for w := range m.states {
		if eligible(w) && dis[w] > m.policy.SpammerDisagreement {
			spamFired[w] = true
		}
	}
	// One EvaluateSubset call over the still-eligible workers: the
	// evaluator merges once and fans the solves out across cores, and
	// nobody pays for fired or below-threshold workers' estimates.
	var workers []int
	for w := range m.states {
		if eligible(w) && !spamFired[w] {
			workers = append(workers, w)
		}
	}
	ests, err := m.inc.EvaluateSubset(workers, core.EvalOptions{Confidence: m.policy.Confidence})
	if err != nil {
		return nil, err
	}
	for w := range m.states {
		if spamFired[w] {
			m.states[w] = Fired
			out = append(out, Decision{
				Worker: w, Action: Fire, State: Fired,
				Reason: fmt.Sprintf("majority disagreement %.2f above %.2f",
					dis[w], m.policy.SpammerDisagreement),
			})
		}
	}
	for i, w := range workers {
		s := m.states[w]
		est := ests[i]
		if est.Err != nil {
			out = append(out, Decision{Worker: w, Action: NoChange, State: s,
				Reason: "no usable estimate yet"})
			continue
		}
		iv := est.Interval
		switch {
		case iv.Lo > m.policy.FireAbove:
			m.states[w] = Fired
			out = append(out, Decision{Worker: w, Action: Fire, State: Fired, Interval: iv,
				Reason: fmt.Sprintf("interval lower bound %.3f above %.2f", iv.Lo, m.policy.FireAbove)})
		case s == Probation && iv.Hi < m.policy.PromoteBelow:
			m.states[w] = Active
			out = append(out, Decision{Worker: w, Action: Promote, State: Active, Interval: iv,
				Reason: fmt.Sprintf("interval upper bound %.3f below %.2f", iv.Hi, m.policy.PromoteBelow)})
		default:
			out = append(out, Decision{Worker: w, Action: NoChange, State: s, Interval: iv,
				Reason: "interval straddles the decision bars"})
		}
	}
	m.noteReviewLocked(out)
	return out, nil
}

// WorkerInfo is one worker's full quality record: lifecycle state,
// recorded-response count and — once the policy's MinResponses bar is
// met and a usable estimate exists — the current error-rate interval.
type WorkerInfo struct {
	// Worker is the worker's index in the pool.
	Worker int
	// State is the worker's current lifecycle state.
	State State
	// Responses is how many of the worker's responses have been recorded.
	Responses int
	// Estimate is the worker's current interval estimate, or nil when the
	// worker is fired, below MinResponses, or has no usable estimate yet.
	Estimate *core.WorkerEstimate
}

// WorkerInfo returns worker w's quality record. It is the single-worker
// read behind the gateway's GET /v1/workers/{id}: cheap when the worker
// has no estimate yet, one subset evaluation when it does.
func (m *Manager) WorkerInfo(w int) (WorkerInfo, error) {
	if w < 0 || w >= len(m.states) {
		return WorkerInfo{}, fmt.Errorf("pool: worker %d out of range", w)
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	var info [1]WorkerInfo
	if err := m.fillInfosLocked(info[:], w); err != nil {
		return WorkerInfo{}, err
	}
	return info[0], nil
}

// WorkerInfos returns every worker's quality record, indexed by worker:
// the read behind the gateway's GET /v1/workers. All records come from one
// state under one lock, with one subset evaluation over the workers that
// qualify for an estimate, so no Review can land between two of them.
func (m *Manager) WorkerInfos() ([]WorkerInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	infos := make([]WorkerInfo, len(m.states))
	if err := m.fillInfosLocked(infos, 0); err != nil {
		return nil, err
	}
	return infos, nil
}

// fillInfosLocked writes the records of workers lo, lo+1, … into infos,
// estimating the non-fired ones with MinResponses in a single
// EvaluateSubset call. The caller holds m.mu.
func (m *Manager) fillInfosLocked(infos []WorkerInfo, lo int) error {
	var workers []int
	for i := range infos {
		w := lo + i
		infos[i] = WorkerInfo{Worker: w, State: m.states[w], Responses: int(m.responses[w].Load())}
		if infos[i].State != Fired && infos[i].Responses >= m.policy.MinResponses {
			workers = append(workers, w)
		}
	}
	if len(workers) == 0 {
		return nil
	}
	ests, err := m.inc.EvaluateSubset(workers, core.EvalOptions{Confidence: m.policy.Confidence})
	if err != nil {
		return err
	}
	if len(ests) != len(workers) {
		return fmt.Errorf("pool: evaluator returned %d estimates for %d workers", len(ests), len(workers))
	}
	for i, w := range workers {
		if est := ests[i]; est.Err == nil {
			infos[w-lo].Estimate = &est
		}
	}
	return nil
}

// Estimates returns the current interval for every non-fired worker with
// enough responses, without applying any policy action.
func (m *Manager) Estimates() ([]core.WorkerEstimate, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var workers []int
	for w, s := range m.states {
		if s == Fired || m.responses[w].Load() < int64(m.policy.MinResponses) {
			continue
		}
		workers = append(workers, w)
	}
	return m.inc.EvaluateSubset(workers, core.EvalOptions{Confidence: m.policy.Confidence})
}
