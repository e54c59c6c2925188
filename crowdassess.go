// Package crowdassess evaluates crowdsourcing workers without gold-standard
// answers, producing confidence intervals — not just point estimates — for
// worker error rates (binary tasks) and full response-probability matrices
// (k-ary tasks). It reproduces Joglekar, Garcia-Molina and Parameswaran,
// "Comprehensive and Reliable Crowd Assessment Algorithms", ICDE 2015.
//
// # Quick start
//
// Build a Dataset of worker responses (0 = task not attempted), then ask for
// error-rate intervals:
//
//	ds, _ := crowdassess.NewDataset(numWorkers, numTasks, 2)
//	ds.SetResponse(worker, task, crowdassess.Yes)
//	...
//	ests, err := crowdassess.EvaluateWorkers(ds, crowdassess.Options{Confidence: 0.9})
//	for _, e := range ests {
//	    if e.Err == nil {
//	        fmt.Printf("worker %d: error rate in [%.3f, %.3f]\n",
//	            e.Worker, e.Interval.Lo, e.Interval.Hi)
//	    }
//	}
//
// Workers never need to have attempted every task (non-regular data), tasks
// may have any number of possible answers (k-ary, via
// EstimateResponseMatrices), and workers may be biased toward particular
// answers — the generality that distinguishes this method from its
// predecessors.
package crowdassess

import (
	"crowdassess/internal/aggregate"
	"crowdassess/internal/baseline"
	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/dist"
	"crowdassess/internal/eval"
	"crowdassess/internal/gate"
	"crowdassess/internal/pool"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
	"crowdassess/internal/stat"
)

// Dataset is a sparse worker×task response matrix with optional gold
// answers. See NewDataset.
type Dataset = crowd.Dataset

// Response is a worker answer: None (0) when the task was not attempted,
// otherwise a class in 1…arity. Binary datasets use Yes (1) and No (2).
type Response = crowd.Response

// Response values.
const (
	None = crowd.None
	Yes  = crowd.Yes
	No   = crowd.No
)

// Interval is a confidence interval around a point estimate.
type Interval = stat.Interval

// NewDataset returns an empty dataset for the given number of workers and
// tasks; arity is the number of possible responses per task (2 for binary).
func NewDataset(workers, tasks, arity int) (*Dataset, error) {
	return crowd.NewDataset(workers, tasks, arity)
}

// ReadDataset parses a JSON-encoded dataset (the format written by
// Dataset.WriteTo).
var ReadDataset = crowd.ReadDataset

// ReadDatasetCSV parses the long CSV form (worker,task,response[,truth]
// rows, 1-based classes) most labelling platforms export. It returns the
// dataset plus the worker and task identifiers in dense-index order.
var ReadDatasetCSV = crowd.ReadCSV

// Options configures EvaluateWorkers.
type Options = core.EvalOptions

// Weight strategies for combining triple estimates (Options.Weights).
const (
	OptimalWeights = core.OptimalWeights
	UniformWeights = core.UniformWeights
)

// Pairing strategies for forming triples (Options.Pairing).
const (
	GreedyPairing    = core.GreedyPairing
	ArbitraryPairing = core.ArbitraryPairing
)

// WorkerEstimate is one worker's error-rate interval from EvaluateWorkers.
type WorkerEstimate = core.WorkerEstimate

// EvaluateWorkers estimates every worker's error rate with a confidence
// interval from binary responses, requiring no gold answers and no
// regularity (workers may attempt arbitrary subsets of tasks). This is the
// paper's Algorithm A2.
func EvaluateWorkers(ds *Dataset, opts Options) ([]WorkerEstimate, error) {
	return core.EvaluateWorkers(ds, opts)
}

// EvaluateTriple estimates the error rates of exactly three workers with
// confidence intervals (the paper's Algorithm A1, extended to non-regular
// data). For more than three workers use EvaluateWorkers.
func EvaluateTriple(ds *Dataset, workers [3]int, confidence float64) ([3]Interval, error) {
	return core.ThreeWorkerBinary(ds, workers, confidence)
}

// KAryOptions configures EstimateResponseMatrices.
type KAryOptions = core.KAryOptions

// ResponseMatrixEstimate holds per-worker response-probability matrices
// with confidence intervals.
type ResponseMatrixEstimate = core.KAryEstimate

// EstimateResponseMatrices estimates, for an ordered triple of workers on
// k-ary tasks, each worker's k×k response-probability matrix — entry
// (j1, j2) is the probability of answering j2 when the truth is j1 — with a
// confidence interval per entry, plus the prior over true answers. This is
// the paper's Algorithm A3; it captures per-answer bias that scalar error
// rates cannot. Set KAryOptions.Parallel to fan the numeric-differentiation
// inner loop out over all CPUs (results are identical to the serial run).
func EstimateResponseMatrices(ds *Dataset, workers [3]int, opts KAryOptions) (*ResponseMatrixEstimate, error) {
	return core.ThreeWorkerKAry(ds, workers, opts)
}

// PruneSpammers removes workers whose disagreement with the majority vote
// exceeds threshold (≤0 selects the paper's 0.4), returning the pruned
// dataset and the kept workers' original indices. The paper shows this
// preprocessing markedly improves interval accuracy on spammer-rich crowds.
func PruneSpammers(ds *Dataset, threshold float64) (*Dataset, []int, error) {
	return core.PruneSpammers(ds, threshold)
}

// MajorityVote returns the plurality answer per task — the baseline
// aggregation, also used internally by PruneSpammers.
func MajorityVote(ds *Dataset) []Response {
	return ds.MajorityVote()
}

// DawidSkene is the classical EM point estimator [Dawid & Skene 1979],
// provided as a baseline: it yields no confidence intervals and converges
// only to a local optimum.
type DawidSkene = baseline.DawidSkene

// DawidSkeneResult holds the EM estimates.
type DawidSkeneResult = baseline.DawidSkeneResult

// OldTechnique is the authors' previous method [KDD 2013], which requires
// regular data and produces conservative intervals; it is the Fig. 1
// comparison baseline.
type OldTechnique = baseline.OldTechnique

// Simulation entry points, for experimentation and testing.
type (
	// BinarySim generates synthetic binary crowds (Section III workloads).
	BinarySim = sim.Binary
	// KArySim generates synthetic k-ary crowds (Section IV workloads).
	KArySim = sim.KAry
	// Confusion is a k×k worker response-probability matrix for KArySim.
	Confusion = sim.Confusion
)

// NewSimSource returns a deterministic random source for the simulators.
func NewSimSource(seed int64) *randx.Source { return randx.NewSource(seed) }

// PaperConfusionMatrices returns the worker matrices the paper uses for
// arity k ∈ {2, 3, 4} (Section IV-B), or nil otherwise.
func PaperConfusionMatrices(k int) []Confusion { return sim.PaperMatrices(k) }

// Experiment reproduction: RunExperiment regenerates one of the paper's
// figures by name ("fig1" … "fig5c"); ExperimentNames lists them.
type (
	// ExperimentParams configures a reproduction run.
	ExperimentParams = eval.Params
	// ExperimentResult is the regenerated figure data.
	ExperimentResult = eval.Result
)

// RunExperiment regenerates a paper figure's data series. Set
// ExperimentParams.Parallel to spread replicates over all CPUs; replicate
// seeding and merge order are unchanged, so the result is byte-identical
// to a serial run at the same seed.
func RunExperiment(name string, p ExperimentParams) (*ExperimentResult, error) {
	return eval.Run(name, p)
}

// ExperimentNames lists the reproducible experiments in paper order.
func ExperimentNames() []string { return eval.Experiments() }

// Streaming evaluation — the incremental form of EvaluateWorkers the
// paper's conclusion describes: responses are added one at a time and
// intervals are recomputed on demand without rescanning past responses.
// Ingestion is hash-partitioned into task-stripe shards, so Add is safe —
// and scales — across goroutines, while intervals stay bit-identical to
// EvaluateWorkers on the same responses.
type ShardedIncremental = core.ShardedIncremental

// NewShardedIncremental returns an empty streaming evaluator for a fixed
// pool of binary workers, with the given number of task-stripe shards (a
// shard count around GOMAXPROCS is a good default; see the README's
// Streaming section). Each shard's workspace runs one solve at a time, so
// the shard count also bounds how many solves run at once.
func NewShardedIncremental(workers, shards int) (*ShardedIncremental, error) {
	return core.NewShardedIncremental(workers, shards)
}

// StreamingEvaluator is the interface the local and cluster-backed
// streaming evaluators satisfy; NewPool runs over either.
type StreamingEvaluator = core.StreamingEvaluator

// Distributed evaluation — the streaming evaluator spanned across
// processes and machines. Worker nodes (the crowdd daemon, or in-process
// workers) each ingest a disjoint slice of the task space into their own
// sharded evaluator; the coordinator pulls per-node statistics over a
// versioned binary wire protocol, merges them with the exact integer
// reducer the sharded evaluator uses locally, and evaluates once — so
// distributed intervals are bit-identical to a single-process evaluator
// fed every response.
type (
	// DistributedEvaluator coordinates a cluster of worker nodes.
	DistributedEvaluator = dist.Coordinator
	// DistWorker is one in-process worker node (the library form of the
	// crowdd daemon).
	DistWorker = dist.Worker
	// DistWorkerOptions configures a worker node.
	DistWorkerOptions = dist.WorkerOptions
	// DistConn is one framed coordinator↔worker connection.
	DistConn = dist.Conn
	// DistResponse is one crowd submission routed through a coordinator.
	DistResponse = dist.Response
	// ClusterEvaluator adapts a coordinator to the streaming-evaluator
	// interface (buffered Add, merged evaluation).
	ClusterEvaluator = dist.ClusterEvaluator
)

// Replica-failure sentinels: a slice with no live replica left, and
// replicas of one slice disagreeing on their statistics.
var (
	ErrNoReplica  = dist.ErrNoReplica
	ErrDivergence = dist.ErrDivergence
)

// NewInProcessCluster spins up the given number of worker nodes inside
// this process — the same protocol over an in-process transport — and
// returns their coordinator. It exercises the full distributed path
// (framing, codec, merge) without sockets; tests, examples and
// single-machine deployments use it. Closing the coordinator closes the
// connections; the workers themselves are garbage once disconnected.
func NewInProcessCluster(workers, nodes, shardsPerNode int) (*DistributedEvaluator, error) {
	groups := make([][]DistReplicaSpec, nodes)
	for i := range groups {
		w, err := dist.NewWorker(dist.WorkerOptions{Workers: workers, Shards: shardsPerNode})
		if err != nil {
			return nil, err
		}
		conn, err := w.SelfConn()
		if err != nil {
			return nil, err
		}
		groups[i] = []DistReplicaSpec{{Conn: conn}}
	}
	return dist.NewCluster(workers, groups, dist.DefaultPolicy())
}

// NewDistWorker returns an in-process worker node, for callers that embed
// the crowdd role into their own daemon (serve it with Serve, or connect
// locally with SelfConn).
func NewDistWorker(opts DistWorkerOptions) (*DistWorker, error) {
	return dist.NewWorker(opts)
}

// DialDistWorker opens a framed connection to a crowdd daemon, for
// assembling a coordinator from a mix of transports with NewCluster.
func DialDistWorker(addr string) (*DistConn, error) {
	return dist.DialTCP(addr)
}

// NewClusterEvaluator adapts a cluster coordinator to the streaming
// evaluator interface: buffered batched Add, evaluation via pull + exact
// merge. batch ≤ 0 selects the default buffer size.
func NewClusterEvaluator(coord *DistributedEvaluator, batch int) *ClusterEvaluator {
	return dist.NewClusterEvaluator(coord, batch)
}

// Self-healing clusters — every RPC deadline-bounded with classified
// retry/backoff, a heartbeat failure detector publishing a membership
// view, automatic re-seeding of dead replicas, and degraded (stale-read)
// service when a slice loses everyone.
type (
	// DistPolicy bounds and classifies cluster RPCs: dial/RPC/state
	// timeouts, retry count, jittered exponential backoff, strict-read
	// mode.
	DistPolicy = dist.Policy
	// DistReplicaSpec is one replica slot: its open connection plus an
	// optional dialer used by retries and the monitor's auto-reseed.
	DistReplicaSpec = dist.ReplicaSpec
	// ClusterMonitorOptions tunes the heartbeat failure detector and
	// auto-reseed loop.
	ClusterMonitorOptions = dist.MonitorOptions
	// ClusterMonitor is a running failure detector (see StartMonitor on
	// the coordinator).
	ClusterMonitor = dist.Monitor
	// ClusterEvent is one liveness/recovery transition the monitor
	// observed.
	ClusterEvent = dist.Event
	// ReplicaHealth is one replica's row of the Membership() view.
	ReplicaHealth = dist.ReplicaHealth
)

// DefaultDistPolicy returns the cluster RPC policy deployments start
// from: bounded dials and RPCs, two retries with jittered exponential
// backoff, degraded reads enabled.
func DefaultDistPolicy() DistPolicy { return dist.DefaultPolicy() }

// NewCluster builds a coordinator over already-open worker connections
// (TCP, in-process, or mixed): groups[i] is the replica set jointly owning
// task slice i — one spec per slice for an unreplicated cluster. Every
// batch fans out to all live replicas of its slice and statistics pulls are
// validated across them, so a node can die — and be replaced with
// RestoreNode — without the slice losing a response. Slots that carry a
// dialer let retries reconnect and the heartbeat monitor (start it with
// StartMonitor) re-seed replacements at dead replicas' addresses. The
// policy bounds every RPC; DefaultDistPolicy is the usual choice. The
// coordinator takes ownership of all connections.
func NewCluster(workers int, groups [][]DistReplicaSpec, policy DistPolicy) (*DistributedEvaluator, error) {
	return dist.NewCluster(workers, groups, policy)
}

// Replicate sweeps: one kernel over many seeded replicates of a synthetic
// workload, run in the calling process.
type (
	// SweepSpec describes a replicate sweep over a synthetic workload.
	SweepSpec = eval.SweepSpec
)

// Sweep kernels for SweepSpec.Kernel.
const (
	SweepWidth    = eval.SweepWidth
	SweepCoverage = eval.SweepCoverage
)

// RunSweep runs a replicate sweep in this process, optionally fanned out
// over GOMAXPROCS goroutines; a parallel run returns a Result
// bit-identical to a serial one.
func RunSweep(spec SweepSpec, parallel bool) (*ExperimentResult, error) {
	return eval.RunSweep(spec, parallel)
}

// Panel evaluation extends the k-ary estimator beyond three workers by
// aggregating triple estimates per worker (inverse-variance combination).
type (
	// KAryPanelOptions configures EvaluateWorkersKAry.
	KAryPanelOptions = core.KAryPanelOptions
	// KAryWorkerEstimate is one worker's combined panel estimate.
	KAryWorkerEstimate = core.KAryWorkerEstimate
)

// EvaluateWorkersKAry estimates every worker's k×k response-probability
// matrix, with intervals, on crowds of any size.
func EvaluateWorkersKAry(ds *Dataset, opts KAryPanelOptions) ([]KAryWorkerEstimate, error) {
	return core.EvaluateWorkersKAry(ds, opts)
}

// Answer aggregation: infer task answers, weighting workers by estimated
// quality.
type Answer = aggregate.Answer

// MajorityAnswers returns the plurality answer per task.
func MajorityAnswers(ds *Dataset) []Answer { return aggregate.Majority(ds) }

// WeightedBinaryAnswers aggregates binary responses with per-worker error
// rates via optimal log-odds voting.
func WeightedBinaryAnswers(ds *Dataset, errorRates []float64) ([]Answer, error) {
	return aggregate.WeightedBinary(ds, errorRates)
}

// WeightedKAryAnswers aggregates k-ary responses with full worker
// response-probability matrices and an optional class prior (nil = uniform).
func WeightedKAryAnswers(ds *Dataset, matrices [][][]float64, prior []float64) ([]Answer, error) {
	return aggregate.WeightedKAry(ds, matrices, prior)
}

// AnswerAccuracy scores inferred answers against the dataset's gold labels,
// returning the fraction correct and the number of scored tasks.
func AnswerAccuracy(ds *Dataset, answers []Answer) (float64, int) {
	return aggregate.Accuracy(ds, answers)
}

// Worker-pool management: the paper's motivating application, with
// interval-driven hire/fire/promote decisions over streaming responses.
type (
	// Pool tracks a worker pool through its lifecycle.
	Pool = pool.Manager
	// PoolPolicy sets the pool's decision bars.
	PoolPolicy = pool.Policy
	// PoolDecision reports one Review outcome.
	PoolDecision = pool.Decision
	// PoolState is a worker's lifecycle state.
	PoolState = pool.State
	// PoolAction is a Review state transition.
	PoolAction = pool.Action
)

// Pool lifecycle states.
const (
	Probation = pool.Probation
	Active    = pool.Active
	Fired     = pool.Fired
)

// Pool review actions.
const (
	NoChange = pool.NoChange
	Promote  = pool.Promote
	Fire     = pool.Fire
)

// NewPool creates a worker pool over a streaming evaluator with the given
// policy; DefaultPoolPolicy mirrors the thresholds used across the paper's
// scenarios. Over NewShardedIncremental the statistics are local; over
// NewClusterEvaluator they live on a cluster — Record buffers responses
// into batched ingest fan-outs, remote rejections (duplicates) surface at
// the flush that carries them, and Review pulls every node's statistics
// through the exact integer merge. Decisions are bit-identical either way
// on the same responses.
func NewPool(ev StreamingEvaluator, policy PoolPolicy) (*Pool, error) {
	return pool.NewManagerWith(ev, policy)
}

// DefaultPoolPolicy returns the default decision bars.
func DefaultPoolPolicy() PoolPolicy { return pool.DefaultPolicy() }

// PoolWorkerInfo is one worker's full quality record (state, response
// count, current interval) as Pool.WorkerInfo returns it — the read
// behind the gateway's GET /v1/workers/{id}.
type PoolWorkerInfo = pool.WorkerInfo

// Serving layer — the multi-tenant HTTP gateway (the library form of the
// crowdgate binary): a versioned /v1 JSON API over per-tenant worker
// pools with bearer-token auth, token-bucket rate limiting and
// admission-control backpressure. See docs/api.md for the wire contract
// and the client package for the typed Go client.
type (
	// Gateway is the /v1 API handler; mount it on any http.Server.
	Gateway = gate.Gateway
	// GatewayOptions configures NewGateway.
	GatewayOptions = gate.Options
	// GatewayTenant declares one isolated tenant namespace.
	GatewayTenant = gate.TenantConfig
)

// NewGateway builds a multi-tenant serving gateway. Each tenant gets an
// isolated pool — local by default, cluster-backed when the tenant
// config carries a pre-built Manager — so no route can reach another
// tenant's statistics.
func NewGateway(opts GatewayOptions) (*Gateway, error) { return gate.New(opts) }

// Gold-standard evaluation — the classical technique the paper's
// introduction contrasts against, for deployments that do have some expert
// labels.
type (
	// GoldEstimate is one worker's gold-standard evaluation.
	GoldEstimate = core.GoldEstimate
	// GoldMethod selects the binomial interval construction.
	GoldMethod = core.GoldMethod
)

// Gold-standard interval constructions.
const (
	GoldExact  = core.GoldExact  // Clopper–Pearson, guaranteed coverage
	GoldWilson = core.GoldWilson // Wilson score, tighter approximation
	GoldWald   = core.GoldWald   // plain normal approximation
)

// GoldStandardIntervals scores every worker against the dataset's gold
// answers (any arity), returning a c-confidence interval per error rate.
func GoldStandardIntervals(ds *Dataset, c float64, method GoldMethod) ([]GoldEstimate, error) {
	return core.GoldStandardIntervals(ds, c, method)
}
