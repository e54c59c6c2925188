package pool

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// newLocalManager builds a pool over a local evaluator with the given
// shard count.
func newLocalManager(workers, shards int, policy Policy) (*Manager, error) {
	ev, err := core.NewShardedIncremental(workers, shards)
	if err != nil {
		return nil, err
	}
	return NewManagerWith(ev, policy)
}

// runCrowd streams a simulated crowd into a manager, reviewing after every
// reviewEvery tasks. It returns the manager and the simulated true rates.
func runCrowd(t *testing.T, seed int64, rates []float64, tasks, reviewEvery int, policy Policy) (*Manager, []float64) {
	t.Helper()
	src := randx.NewSource(seed)
	ds, _, err := sim.Binary{Tasks: tasks, Workers: len(rates), ErrorRates: rates}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newLocalManager(len(rates), 1, policy)
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < tasks; task++ {
		for w := 0; w < len(rates); w++ {
			if m.State(w) == Fired {
				continue
			}
			if err := m.Record(w, task, ds.Response(w, task)); err != nil {
				t.Fatal(err)
			}
		}
		if (task+1)%reviewEvery == 0 {
			if _, err := m.Review(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m, rates
}

func TestPolicyValidation(t *testing.T) {
	cases := []Policy{
		{},
		{Confidence: 1.2, FireAbove: 0.3, PromoteBelow: 0.2, SpammerDisagreement: 0.4},
		{Confidence: 0.9, FireAbove: 0.6, PromoteBelow: 0.2, SpammerDisagreement: 0.4},
		{Confidence: 0.9, FireAbove: 0.3, PromoteBelow: 0, SpammerDisagreement: 0.4},
		{Confidence: 0.9, FireAbove: 0.3, PromoteBelow: 0.2, SpammerDisagreement: 2},
		{Confidence: 0.9, FireAbove: 0.3, PromoteBelow: 0.2, SpammerDisagreement: 0.4, MinResponses: -1},
	}
	for i, p := range cases {
		if _, err := newLocalManager(5, 1, p); err == nil {
			t.Errorf("case %d: invalid policy accepted: %+v", i, p)
		}
	}
	if _, err := newLocalManager(5, 1, DefaultPolicy()); err != nil {
		t.Errorf("default policy rejected: %v", err)
	}
	if _, err := newLocalManager(2, 1, DefaultPolicy()); err == nil {
		t.Error("2-worker pool accepted")
	}
}

func TestLifecycleSeparatesWorkers(t *testing.T) {
	rates := []float64{0.05, 0.08, 0.10, 0.12, 0.40, 0.48}
	m, _ := runCrowd(t, 1, rates, 400, 50, DefaultPolicy())

	// Good workers must not be fired; the two bad workers must be.
	for w := 0; w < 4; w++ {
		if m.State(w) == Fired {
			t.Errorf("good worker %d (rate %v) fired", w, rates[w])
		}
	}
	for w := 4; w < 6; w++ {
		if m.State(w) != Fired {
			t.Errorf("bad worker %d (rate %v) not fired, state %v", w, rates[w], m.State(w))
		}
	}
	// At least some good workers earn promotion with 400 tasks of evidence.
	promoted := 0
	for w := 0; w < 4; w++ {
		if m.State(w) == Active {
			promoted++
		}
	}
	if promoted == 0 {
		t.Error("no good worker promoted")
	}
}

func TestFiredWorkersRejectResponses(t *testing.T) {
	rates := []float64{0.05, 0.05, 0.05, 0.49}
	m, _ := runCrowd(t, 2, rates, 300, 50, DefaultPolicy())
	if m.State(3) != Fired {
		t.Fatalf("spammer not fired (state %v)", m.State(3))
	}
	if err := m.Record(3, 9999, crowd.Yes); !errors.Is(err, ErrFired) {
		t.Errorf("err = %v, want ErrFired", err)
	}
	active := m.ActiveWorkers()
	if len(active) != 3 {
		t.Errorf("active workers = %v", active)
	}
}

// addOnly hides an evaluator's batch path, so a manager over it records
// batches one Add at a time.
type addOnly struct{ core.StreamingEvaluator }

// TestRecordBatch pins RecordBatch to Record: on the evaluator's batch
// path and on the one-Add-at-a-time fallback, a batch mixing fired and
// live workers records the live responses and rejects the fired ones,
// leaving the same counts and estimates as Record one at a time. A batch
// repeating a recorded response is refused: whole on the batch path, after
// the responses before the repeat on the fallback.
func TestRecordBatch(t *testing.T) {
	rates := []float64{0.05, 0.05, 0.05, 0.49}
	batch := []core.Response{
		{Worker: 0, Task: 9000, Answer: crowd.Yes},
		{Worker: 3, Task: 9000, Answer: crowd.Yes},
		{Worker: 1, Task: 9000, Answer: crowd.No},
		{Worker: 3, Task: 9001, Answer: crowd.No},
		{Worker: 2, Task: 9001, Answer: crowd.Yes},
	}
	// pools returns a manager fed a crowd until the spammer, worker 3, is
	// fired, and a second manager in the same state over the same
	// evaluator with its batch path hidden.
	pools := func(t *testing.T) (batched, oneByOne *Manager) {
		m, _ := runCrowd(t, 2, rates, 300, 50, DefaultPolicy())
		if m.State(3) != Fired {
			t.Fatalf("spammer not fired (state %v)", m.State(3))
		}
		hidden, err := NewManagerWith(addOnly{m.inc}, DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		copy(hidden.states, m.states)
		for w := range rates {
			hidden.responses[w].Store(m.responses[w].Load())
		}
		return m, hidden
	}
	counts := func(m *Manager) []int {
		var out []int
		for w := range rates {
			info, err := m.WorkerInfo(w)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, info.Responses)
		}
		return out
	}
	for _, path := range []string{"batch", "fallback"} {
		t.Run(path, func(t *testing.T) {
			batched, hidden := pools(t)
			m := batched
			if path == "fallback" {
				m = hidden
			}
			before := counts(m)
			recorded, rejected, err := m.RecordBatch(batch)
			if err != nil || recorded != 3 || rejected != 2 {
				t.Fatalf("RecordBatch = %d, %d, %v; want 3 recorded, 2 rejected", recorded, rejected, err)
			}
			want, _ := pools(t)
			for _, x := range batch {
				if err := want.Record(x.Worker, x.Task, x.Answer); err != nil && !errors.Is(err, ErrFired) {
					t.Fatal(err)
				}
			}
			if got, w := counts(m), counts(want); !reflect.DeepEqual(got, w) || reflect.DeepEqual(got, before) {
				t.Errorf("responses %v after the batch, want %v (before %v)", got, w, before)
			}
			got, err := m.Estimates()
			if err != nil {
				t.Fatal(err)
			}
			exp, err := want.Estimates()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, exp) {
				t.Errorf("estimates %+v, want %+v", got, exp)
			}

			again := []core.Response{{Worker: 0, Task: 9002, Answer: crowd.Yes}, batch[2]}
			before = counts(m)
			recorded, _, err = m.RecordBatch(again)
			if err == nil {
				t.Fatal("a recorded response was accepted again")
			}
			wantRecorded := 0
			if path == "fallback" {
				wantRecorded = 1
			}
			if recorded != wantRecorded {
				t.Errorf("refused batch recorded %d, want %d", recorded, wantRecorded)
			}
			after := counts(m)
			if after[0]-before[0] != wantRecorded {
				t.Errorf("worker 0 responses %d → %d, want %d more", before[0], after[0], wantRecorded)
			}
			if _, _, err := m.RecordBatch([]core.Response{{Worker: len(rates), Task: 1, Answer: crowd.Yes}}); err == nil {
				t.Error("out-of-range worker accepted")
			}
		})
	}
}

// TestManagerCountsResponsesAlreadyHeld: a manager built over an
// evaluator that already holds responses — a restarted head's restored
// cluster, here a local evaluator — starts from the evaluator's
// per-worker counts, so those responses count toward MinResponses and the
// worker records match a manager that recorded them itself.
func TestManagerCountsResponsesAlreadyHeld(t *testing.T) {
	rates := []float64{0.05, 0.1, 0.2, 0.45}
	src := randx.NewSource(11)
	ds, _, err := sim.Binary{Tasks: 60, Workers: len(rates), ErrorRates: rates, Density: 0.7}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := newLocalManager(len(rates), 2, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	held, err := core.NewShardedIncremental(len(rates), 3)
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < ds.Tasks(); task++ {
		for w := range rates {
			if !ds.Attempted(w, task) {
				continue
			}
			if err := recorded.Record(w, task, ds.Response(w, task)); err != nil {
				t.Fatal(err)
			}
			if err := held.Add(w, task, ds.Response(w, task)); err != nil {
				t.Fatal(err)
			}
		}
	}
	restored, err := NewManagerWith(held, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for w := range rates {
		want, err := recorded.WorkerInfo(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.WorkerInfo(w)
		if err != nil {
			t.Fatal(err)
		}
		if want.Responses == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("worker %d: restored manager reports %+v, want %+v", w, got, want)
		}
	}
}

func TestMinResponsesDefersDecisions(t *testing.T) {
	policy := DefaultPolicy()
	policy.MinResponses = 1000 // never enough
	rates := []float64{0.05, 0.05, 0.49}
	m, _ := runCrowd(t, 3, rates, 200, 50, policy)
	for w := range rates {
		if m.State(w) != Probation {
			t.Errorf("worker %d transitioned despite MinResponses: %v", w, m.State(w))
		}
	}
}

func TestNoGoodWorkerFiredAcrossSeeds(t *testing.T) {
	// The paper's core promise: interval-based firing protects good workers
	// from unlucky streaks. Run several seeds and demand zero false firings.
	for seed := int64(10); seed < 18; seed++ {
		rates := []float64{0.08, 0.12, 0.15, 0.20, 0.25, 0.45}
		m, _ := runCrowd(t, seed, rates, 300, 50, DefaultPolicy())
		for w := 0; w < 5; w++ {
			if m.State(w) == Fired {
				t.Errorf("seed %d: worker %d with rate %v fired", seed, w, rates[w])
			}
		}
	}
}

func TestReviewDecisionsCarryEvidence(t *testing.T) {
	rates := []float64{0.05, 0.05, 0.05, 0.05, 0.45}
	src := randx.NewSource(20)
	ds, _, err := sim.Binary{Tasks: 200, Workers: 5, ErrorRates: rates}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newLocalManager(5, 1, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < 200; task++ {
		for w := 0; w < 5; w++ {
			if err := m.Record(w, task, ds.Response(w, task)); err != nil {
				t.Fatal(err)
			}
		}
	}
	decisions, err := m.Review()
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) == 0 {
		t.Fatal("no decisions")
	}
	for _, d := range decisions {
		if d.Reason == "" {
			t.Errorf("decision for worker %d lacks a reason", d.Worker)
		}
		if d.Action == Promote && !(d.Interval.Hi < DefaultPolicy().PromoteBelow) {
			t.Errorf("promotion without evidence: %+v", d)
		}
	}
}

func TestEstimates(t *testing.T) {
	rates := []float64{0.1, 0.1, 0.1, 0.1}
	m, _ := runCrowd(t, 21, rates, 100, 100, DefaultPolicy())
	ests, err := m.Estimates()
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 4 {
		t.Fatalf("%d estimates", len(ests))
	}
	for _, e := range ests {
		if e.Err == nil && !e.Interval.IsValid() {
			t.Errorf("worker %d: invalid interval", e.Worker)
		}
	}
}

// TestShardedManagerMatchesSingleShard feeds the same stream through a
// one-shard and a four-shard manager and demands identical decisions at
// every review point — the pool-level face of the sharded evaluator's
// bit-identity guarantee.
func TestShardedManagerMatchesSingleShard(t *testing.T) {
	rates := []float64{0.05, 0.08, 0.10, 0.12, 0.40, 0.48}
	src := randx.NewSource(31)
	ds, _, err := sim.Binary{Tasks: 300, Workers: len(rates), ErrorRates: rates}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	single, err := newLocalManager(len(rates), 1, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := newLocalManager(len(rates), 4, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < 300; task++ {
		for w := range rates {
			if single.State(w) == Fired {
				continue
			}
			if err := single.Record(w, task, ds.Response(w, task)); err != nil {
				t.Fatal(err)
			}
			if err := sharded.Record(w, task, ds.Response(w, task)); err != nil {
				t.Fatal(err)
			}
		}
		if (task+1)%50 == 0 {
			ds1, err := single.Review()
			if err != nil {
				t.Fatal(err)
			}
			ds2, err := sharded.Review()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ds1, ds2) {
				t.Fatalf("task %d: decisions diverge:\nsingle  %+v\nsharded %+v", task, ds1, ds2)
			}
		}
	}
	for w := range rates {
		if single.State(w) != sharded.State(w) {
			t.Errorf("worker %d: state %v vs %v", w, single.State(w), sharded.State(w))
		}
	}
}

// TestShardedManagerConcurrentRecord hammers Record from many goroutines
// (one per worker) with periodic Reviews from another — the deployment
// shape the sharded manager exists for. Run under -race.
func TestShardedManagerConcurrentRecord(t *testing.T) {
	const workers, tasks = 6, 240
	rates := []float64{0.05, 0.10, 0.15, 0.20, 0.30, 0.45}
	src := randx.NewSource(47)
	ds, _, err := sim.Binary{Tasks: tasks, Workers: workers, ErrorRates: rates}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newLocalManager(workers, 4, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for task := 0; task < tasks; task++ {
				err := m.Record(w, task, ds.Response(w, task))
				if err != nil && !errors.Is(err, ErrFired) {
					t.Errorf("worker %d task %d: %v", w, task, err)
					return
				}
				if errors.Is(err, ErrFired) {
					return
				}
			}
		}(w)
	}
	reviews := make(chan struct{})
	go func() {
		defer close(reviews)
		for i := 0; i < 4; i++ {
			if _, err := m.Review(); err != nil {
				t.Errorf("concurrent Review: %v", err)
				return
			}
			m.ActiveWorkers()
			if _, err := m.Estimates(); err != nil {
				t.Errorf("concurrent Estimates: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-reviews
	if _, err := m.Review(); err != nil {
		t.Fatal(err)
	}
	// The obvious spammer must be gone once all the evidence is in.
	if m.State(5) != Fired {
		t.Errorf("spammer state %v after full stream", m.State(5))
	}
}

func TestStateAndActionStrings(t *testing.T) {
	if Probation.String() != "probation" || Active.String() != "active" || Fired.String() != "fired" {
		t.Error("state strings wrong")
	}
	if NoChange.String() != "no-change" || Promote.String() != "promote" || Fire.String() != "fire" {
		t.Error("action strings wrong")
	}
	if State(9).String() == "" || Action(9).String() == "" {
		t.Error("unknown values render empty")
	}
}

// countingEvaluator counts the EvaluateSubset calls reaching the evaluator
// it wraps.
type countingEvaluator struct {
	core.StreamingEvaluator
	subsets atomic.Int64
}

func (c *countingEvaluator) EvaluateSubset(workers []int, opts core.EvalOptions) ([]core.WorkerEstimate, error) {
	c.subsets.Add(1)
	return c.StreamingEvaluator.EvaluateSubset(workers, opts)
}

// TestWorkerInfosOneEvaluation reads a 16-worker pool holding fired,
// below-MinResponses and estimated workers: WorkerInfos must cost exactly
// one EvaluateSubset call and return, bit for bit, what 16 WorkerInfo
// reads return.
func TestWorkerInfosOneEvaluation(t *testing.T) {
	rates := []float64{0.1, 0.15, 0.2, 0.05, 0.1, 0.25, 0.1, 0.3, 0.12, 0.18, 0.08, 0.2, 0.5, 0.5, 0.1, 0.1}
	const tasks, short = 150, 10
	ds, _, err := sim.Binary{Tasks: tasks, Workers: len(rates), ErrorRates: rates}.Generate(randx.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	inner, err := core.NewShardedIncremental(len(rates), 2)
	if err != nil {
		t.Fatal(err)
	}
	ev := &countingEvaluator{StreamingEvaluator: inner}
	m, err := NewManagerWith(ev, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < tasks; task++ {
		for w := range rates {
			if w == len(rates)-1 && task >= short {
				continue // the last worker stays below MinResponses
			}
			if err := m.Record(w, task, ds.Response(w, task)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.Review(); err != nil {
		t.Fatal(err)
	}

	ev.subsets.Store(0)
	infos, err := m.WorkerInfos()
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.subsets.Load(); got != 1 {
		t.Errorf("WorkerInfos made %d EvaluateSubset calls, want 1", got)
	}
	if len(infos) != len(rates) {
		t.Fatalf("%d records, want %d", len(infos), len(rates))
	}
	var fired, estimated int
	for w, got := range infos {
		want, err := m.WorkerInfo(w)
		if err != nil {
			t.Fatal(err)
		}
		if got.Worker != want.Worker || got.State != want.State || got.Responses != want.Responses {
			t.Errorf("worker %d: record %+v, WorkerInfo %+v", w, got, want)
		}
		if (got.Estimate == nil) != (want.Estimate == nil) {
			t.Fatalf("worker %d: estimate %v, WorkerInfo %v", w, got.Estimate, want.Estimate)
		}
		if got.State == Fired {
			fired++
		}
		if got.Estimate == nil {
			continue
		}
		estimated++
		g, e := got.Estimate.Interval, want.Estimate.Interval
		for _, p := range [][2]float64{{g.Mean, e.Mean}, {g.Lo, e.Lo}, {g.Hi, e.Hi}, {g.Confidence, e.Confidence}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Errorf("worker %d: interval %+v, WorkerInfo %+v", w, g, e)
				break
			}
		}
		if got.Estimate.Triples != want.Estimate.Triples {
			t.Errorf("worker %d: %d triples, WorkerInfo %d", w, got.Estimate.Triples, want.Estimate.Triples)
		}
	}
	if fired == 0 || estimated == 0 || infos[len(rates)-1].Responses != short || infos[len(rates)-1].Estimate != nil {
		t.Errorf("fixture lacks a fired (%d), an estimated (%d) or a short worker (%+v)", fired, estimated, infos[len(rates)-1])
	}
}
