package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	traced   bool
	spans    string
	workdir  string
}

// workloads is the benchmark's traffic, one entry per -workload name.
var workloads = []struct {
	name string
	run  func(*runCtx) error
}{
	{"ingest_http", runIngestHTTP},
	{"review_sparse", runReviewSparse},
	{"failover_ingest", runFailoverIngest},
	{"paper_sweep", runPaperSweep},
}

// setupRounds is how many times a run boots its system; setup_s is the
// median boot, and the last boot serves the timed phase.
const setupRounds = 3

// confidence is the interval level every evaluation in the benchmark asks
// for, the pool's default.
const confidence = 0.9

func evalOpts() core.EvalOptions { return core.EvalOptions{Confidence: confidence} }

// runCtx carries one run's configuration, report and tracer.
type runCtx struct {
	cfg config
	rep *report
	tr  *tracer // nil on an untraced run
	dir string  // directory for the run's write-ahead logs, removed at exit
}

// runWorkload executes one workload and returns its report.
func runWorkload(cfg config) (*report, error) {
	rc := &runCtx{cfg: cfg, rep: newReport(cfg)}
	rc.rep.Correct = true
	if cfg.traced {
		rc.tr = newTracer()
	}
	for _, w := range workloads {
		if w.name != cfg.workload {
			continue
		}
		if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
		if err != nil {
			return nil, err
		}
		rc.dir = dir
		err = w.run(rc)
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		if err != nil {
			return nil, err
		}
		if cfg.traced && cfg.spans != "" {
			if err := rc.tr.writeSpans(cfg.spans); err != nil {
				return nil, err
			}
		}
		return rc.rep, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// scaled sizes an input count by -scale, never below floor.
func (rc *runCtx) scaled(n, floor int) int {
	return max(floor, int(math.Round(float64(n)*rc.cfg.scale)))
}

// boot brings the workload's system up setupRounds times, timing each
// boot as set-up, and tears every boot but the last down again. Input
// generation happens before and is not timed.
func boot[E any](rc *runCtx, up func() (E, error), down func(E) error) (E, error) {
	var times []float64
	var env E
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		e, err := up()
		if err != nil {
			return env, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == setupRounds-1 {
			env = e
			break
		}
		if err := down(e); err != nil {
			return env, err
		}
		// Return the torn-down boot's memory, so peak RSS measures one
		// system, not several.
		debug.FreeOSMemory()
	}
	rc.rep.set("setup_s", "s", median(times), len(times))
	return env, nil
}

// usage is a point-in-time reading of the process's resource counters
// and of the host's CPU time stolen by the hypervisor.
type usage struct {
	cpu       time.Duration
	maxRSSKB  int64
	allocated uint64
	gcs       uint32
	pauseNs   uint64

	hostTicks, stolenTicks uint64 // 0 where /proc/stat is unreadable
}

func readUsage() usage {
	var u usage
	u.hostTicks, u.stolenTicks = readSteal()
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.maxRSSKB = int64(ru.Maxrss) // kilobytes on Linux
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	u.allocated, u.gcs, u.pauseNs = m.TotalAlloc, m.NumGC, m.PauseTotalNs
	return u
}

// readSteal returns the host's total and stolen CPU ticks from the first
// line of /proc/stat ("cpu user nice system idle iowait irq softirq steal
// ..."), or zeros where that is unavailable.
func readSteal() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// phase is the bookkeeping of one timed phase.
type phase struct {
	start    time.Time
	deadline time.Time
	before   usage
}

// startPhase begins the timed phase: per-layer numbers recorded during
// set-up are dropped, and the process's counters are read.
func (rc *runCtx) startPhase() phase {
	if rc.tr != nil {
		rc.tr.reset()
	}
	debug.FreeOSMemory()
	p := phase{before: readUsage(), start: time.Now()}
	p.deadline = p.start.Add(time.Duration(rc.cfg.seconds * float64(time.Second)))
	return p
}

// schedule spreads n events evenly over a timed phase, one in the middle
// of each of n equal slots, so every run makes the same number of them
// whatever the machine's speed.
type schedule struct {
	at []time.Time
}

func newSchedule(p phase, n int) *schedule {
	s := &schedule{}
	slot := p.deadline.Sub(p.start) / time.Duration(max(n, 1))
	for k := 0; k < n; k++ {
		s.at = append(s.at, p.start.Add(slot/2+time.Duration(k)*slot))
	}
	return s
}

// due reports whether the next event's time has come, and if so consumes
// it.
func (s *schedule) due(now time.Time) bool {
	if len(s.at) == 0 || now.Before(s.at[0]) {
		return false
	}
	s.at = s.at[1:]
	return true
}

// endPhase records the end-to-end metrics of a finished phase: headline
// operations per second and their median latency, peak memory, and the
// runtime's cost per operation. latencies are the headline operation's
// millisecond samples; rate is how many of them the phase completed per
// second.
func (rc *runCtx) endPhase(p phase, latencies []float64, rate float64) {
	elapsed := time.Since(p.start).Seconds()
	after := readUsage()
	ops := float64(len(latencies))
	r := rc.rep
	r.set("ops_per_s", "1/s", rate, len(latencies))
	r.set("op_p50_ms", "ms", median(latencies), len(latencies))
	r.set("peak_rss_mb", "MB", float64(after.maxRSSKB)/1024, 0)
	r.set("phase_s", "s", elapsed, 0)
	r.set("runtime.cpu_s", "s", (after.cpu - p.before.cpu).Seconds(), 0)
	r.set("runtime.cpu_ms_per_op", "ms", ms(after.cpu-p.before.cpu)/ops, 0)
	r.set("runtime.alloc_kb_per_op", "KB", float64(after.allocated-p.before.allocated)/1024/ops, 0)
	r.set("runtime.gc_cycles", "count", float64(after.gcs-p.before.gcs), 0)
	r.set("runtime.gc_pause_ms", "ms", float64(after.pauseNs-p.before.pauseNs)/1e6, 0)
	// Time the hypervisor gave other guests: on a shared host it, not the
	// code, is what most often moves a run's timings.
	if ticks := after.hostTicks - p.before.hostTicks; ticks > 0 {
		r.set("host.steal_pct", "%", 100*float64(after.stolenTicks-p.before.stolenTicks)/float64(ticks), 0)
	}
}

// countOps records attempted and failed operations and the error rate.
func (rc *runCtx) countOps(attempted, failed int) {
	rc.rep.Attempted += attempted
	rc.rep.Failed += failed
	if rc.rep.Attempted > 0 {
		rc.rep.set("error_rate", "ratio", float64(rc.rep.Failed)/float64(rc.rep.Attempted), rc.rep.Attempted)
	}
}

// resp is one generated crowd response, packed to keep multi-million
// response inputs small.
type resp struct {
	task   int32
	worker uint16
	answer uint8
}

// errorRates are the crowd's worker error rates. With none above 0.2 the
// default pool policy fires no one, so which responses are accepted — and
// with them the final statistics — cannot depend on how the clients
// interleave.
var errorRates = []float64{0.1, 0.2}

// genChunk is how many tasks genCrowd draws at a time, so generating a
// multi-million response crowd never holds a dense worker×task matrix.
const genChunk = 4096

// genCrowd draws a binary crowd from the seed: each worker answers each
// task with probability density, with an error rate drawn once from
// errorRates. The responses of tasks below preloadTasks come back as
// preload, the others as stream, each in a seeded random arrival order.
func genCrowd(seed int64, workers, preloadTasks, streamTasks int, density float64) (preload, stream []resp, err error) {
	src := randx.NewSource(seed)
	rates := make([]float64, workers)
	for w := range rates {
		rates[w] = src.Choice(errorRates)
	}
	tasks := preloadTasks + streamTasks
	all := make([]resp, 0, int(float64(workers*tasks)*density*1.01)+64)
	for lo := 0; lo < tasks; lo += genChunk {
		n := min(genChunk, tasks-lo)
		ds, _, err := sim.Binary{Tasks: n, Workers: workers, Density: density, ErrorRates: rates}.Generate(src)
		if err != nil {
			return nil, nil, err
		}
		for t := 0; t < n; t++ {
			for w := 0; w < workers; w++ {
				if ds.Attempted(w, t) {
					all = append(all, resp{task: int32(lo + t), worker: uint16(w), answer: uint8(ds.Response(w, t))})
				}
			}
		}
	}
	// Tasks are generated in order, so the preload is a prefix.
	cut := len(all)
	for i, r := range all {
		if int(r.task) >= preloadTasks {
			cut = i
			break
		}
	}
	preload, stream = all[:cut:cut], all[cut:]
	src.Shuffle(len(preload), func(i, j int) { preload[i], preload[j] = preload[j], preload[i] })
	src.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	return preload, stream, nil
}

func crowdResponse(r resp) crowd.Response { return crowd.Response(r.answer) }

// split divides a shuffled stream into n contiguous, equally random parts,
// one per client.
func split(rs []resp, n int) [][]resp {
	out := make([][]resp, n)
	for c := range out {
		out[c] = rs[c*len(rs)/n : (c+1)*len(rs)/n]
	}
	return out
}

// checkAgainstReference is the correctness gate of the serving workloads:
// the system's intervals for every worker must be bit-identical to a
// single-process core.Incremental fed exactly the acknowledged responses.
func (rc *runCtx) checkAgainstReference(got []core.WorkerEstimate, workers int, responses ...[]resp) error {
	ref, err := core.NewIncremental(workers)
	if err != nil {
		return err
	}
	n := 0
	for _, rs := range responses {
		for _, r := range rs {
			if err := ref.Add(int(r.worker), int(r.task), crowdResponse(r)); err != nil {
				return fmt.Errorf("reference: %w", err)
			}
			n++
		}
	}
	want, err := ref.EvaluateAll(evalOpts())
	if err != nil {
		return err
	}
	if err := sameEstimates(got, want); err != nil {
		rc.rep.fail("estimates differ from a single-process evaluator fed the %d acknowledged responses: %v", n, err)
	}
	rc.rep.set("responses_checked", "count", float64(n), 0)
	return nil
}

// sameEstimates compares two interval sets bit for bit.
func sameEstimates(got, want []core.WorkerEstimate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d estimates, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Worker != w.Worker || g.Triples != w.Triples || (g.Err == nil) != (w.Err == nil) {
			return fmt.Errorf("worker %d: got %+v, want %+v", w.Worker, g, w)
		}
		if g.Err != nil && g.Err.Error() != w.Err.Error() {
			return fmt.Errorf("worker %d: error %q, want %q", w.Worker, g.Err, w.Err)
		}
		gi, wi := g.Interval, w.Interval
		for _, p := range [][2]float64{{gi.Mean, wi.Mean}, {gi.Lo, wi.Lo}, {gi.Hi, wi.Hi}, {gi.Confidence, wi.Confidence}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				return fmt.Errorf("worker %d: interval %+v, want %+v", w.Worker, gi, wi)
			}
		}
	}
	return nil
}

// probeSolves times quiesced solves of one worker and of every worker
// after the timed phase, as core.solve_one_ms and core.solve_all_ms.
func (rc *runCtx) probeSolves(one func() error, all func() error) error {
	var ones, alls []float64
	for i := 0; i < probeRounds; i++ {
		start := time.Now()
		if err := one(); err != nil {
			return err
		}
		mid := time.Now()
		if err := all(); err != nil {
			return err
		}
		ones = append(ones, ms(mid.Sub(start)))
		alls = append(alls, ms(time.Since(mid)))
	}
	rc.rep.set("core.solve_one_ms", "ms", median(ones), len(ones))
	rc.rep.set("core.solve_all_ms", "ms", median(alls), len(alls))
	return nil
}

// probeRounds is how many times each quiesced probe repeats; the probe
// reports the median.
const probeRounds = 5

// probeMerge times what one Add costs the next read of a local streaming
// evaluator: a single-worker evaluation right after an Add (which must
// rebuild the merged snapshot) minus the same evaluation repeated warm.
// Each round adds one response on a task no generated stream uses.
func (rc *runCtx) probeMerge(ev core.StreamingEvaluator, freeTask int) error {
	opts := evalOpts()
	var merges []float64
	for i := 0; i < probeRounds; i++ {
		w := i % ev.Workers()
		if err := ev.Add(w, freeTask+i, crowd.Yes); err != nil {
			return err
		}
		start := time.Now()
		if _, err := ev.EvaluateSubset([]int{w}, opts); err != nil {
			return err
		}
		mid := time.Now()
		if _, err := ev.EvaluateSubset([]int{w}, opts); err != nil {
			return err
		}
		merges = append(merges, ms(mid.Sub(start))-ms(time.Since(mid)))
	}
	rc.rep.set("core.merge_ms", "ms", median(merges), len(merges))
	return nil
}

// setSampleMedian records a traced sample set's median, if it has any.
func (rc *runCtx) setSampleMedian(metric, sample, unit string) {
	if xs := rc.tr.sample(sample); len(xs) > 0 {
		rc.rep.set(metric, unit, median(xs), len(xs))
	}
}
