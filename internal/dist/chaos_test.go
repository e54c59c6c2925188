package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdassess/internal/core"
	"crowdassess/internal/store"
)

// chaosPolicy is tight enough that injected stalls resolve in tens of
// milliseconds, generous enough that a loaded CI runner never trips it on
// healthy traffic.
func chaosPolicy() Policy {
	return Policy{
		DialTimeout:  5 * time.Second,
		RPCTimeout:   500 * time.Millisecond,
		StateTimeout: 5 * time.Second,
		Retries:      2,
		Backoff:      2 * time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
		JitterSeed:   0xD15C0,
	}
}

// serveWorkerOn starts a fresh worker serving TCP on addr ("" = any free
// loopback port) and returns it with its bound address.
func serveWorkerOn(t *testing.T, addr string, crowdSize int, name string) (*Worker, string) {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	w, err := NewWorker(WorkerOptions{Workers: crowdSize, Shards: 2, Name: name, FrameTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(l)
	t.Cleanup(func() { w.Close() })
	return w, l.Addr().String()
}

// writeChaosLog persists the chaos event log when CHAOS_LOG names a file —
// the artifact CI uploads on failure.
func writeChaosLog(t *testing.T, lines []string) {
	t.Helper()
	path := os.Getenv("CHAOS_LOG")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Logf("chaos log: %v", err)
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "=== %s\n", t.Name())
	for _, line := range lines {
		fmt.Fprintln(f, line)
	}
}

// chaosSeed returns the strike-schedule seed: fixed by default so every
// PR run replays the same schedule, overridden by CHAOS_SEED for the
// nightly randomized rounds. The chosen seed is logged either way — a
// failing nightly run is replayed by exporting the seed it printed.
// chaosWALDir places the crash-restart test's store under CHAOS_WAL_DIR
// when set, so CI can upload the surviving WAL segments as a failure
// artifact next to the event log. Unset, the usual per-test temp dir.
func chaosWALDir(t *testing.T) string {
	t.Helper()
	base := os.Getenv("CHAOS_WAL_DIR")
	if base == "" {
		return t.TempDir()
	}
	dir := filepath.Join(base, t.Name())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("CHAOS_WAL_DIR: %v", err)
	}
	return dir
}

func chaosSeed(t *testing.T, def uint64) uint64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED %q: %v", s, err)
		}
		t.Logf("chaos seed %#x (from CHAOS_SEED)", v)
		return v
	}
	t.Logf("chaos seed %#x (default)", def)
	return def
}

// TestChaosBitIdenticalDecisions is the headline contract under fire:
// a replicated TCP cluster ingests a full stream while a seeded chaos
// driver lands delays, mid-frame hangs and resets on one replica of every
// slice — and the final estimates still match the local evaluator bit for
// bit, with no client-visible ingest error.
func TestChaosBitIdenticalDecisions(t *testing.T) {
	const crowdSize, tasks, slices, replicas = 8, 240, 2, 2
	subs := testStream(t, crowdSize, tasks, 97)
	ch := NewChaos(chaosSeed(t, 0xC0FFEE))
	ch.MaxDelay = 2 * time.Millisecond

	groups := make([][]ReplicaSpec, slices)
	for si := 0; si < slices; si++ {
		for ri := 0; ri < replicas; ri++ {
			_, addr := serveWorkerOn(t, "", crowdSize, fmt.Sprintf("s%dr%d", si, ri))
			var conn *Conn
			if ri == 0 {
				// Replica 0 of every slice takes the chaos; replica 1 stays
				// clean, so no slice can lose data.
				nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				conn = NewConn(ch.Wrap(nc))
			} else {
				var err error
				if conn, err = DialTCPTimeout(addr, 5*time.Second); err != nil {
					t.Fatal(err)
				}
			}
			groups[si] = append(groups[si], ReplicaSpec{
				Conn: conn,
				Dial: func() (*Conn, error) { return DialTCPTimeout(addr, 5*time.Second) },
			})
		}
	}
	coord, err := NewCluster(crowdSize, groups, chaosPolicy())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	stop := make(chan struct{})
	var striker sync.WaitGroup
	striker.Add(1)
	go func() {
		defer striker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ch.Strike()
			time.Sleep(500 * time.Microsecond)
		}
	}()
	ingestConcurrently(t, coord, subs, 4, 17)
	close(stop)
	striker.Wait()
	ch.HealAll()
	if log := ch.Log(); len(log) < 3 {
		t.Fatalf("chaos landed only %d strikes; the run proved nothing", len(log))
	}
	writeChaosLog(t, ch.Log())

	local := localReference(t, crowdSize, subs)
	if total, err := coord.Responses(); err != nil || total != local.Responses() {
		t.Fatalf("cluster holds %d responses (err %v), want %d", total, err, local.Responses())
	}
	requireEvaluateAllEqual(t, "chaos cluster", coord, local)
}

// TestChaosKillMidIngestAutoReseed kills a replica's process mid-stream:
// ingestion must not surface a client error (the sibling carries the
// slice), the monitor must detect the death and auto-reseed a replacement
// that came up on the same address, and the final decisions must still be
// bit-identical to local.
func TestChaosKillMidIngestAutoReseed(t *testing.T) {
	const crowdSize, tasks = 8, 200
	subs := testStream(t, crowdSize, tasks, 131)

	victim, victimAddr := serveWorkerOn(t, "", crowdSize, "victim")
	_, sibAddr := serveWorkerOn(t, "", crowdSize, "sibling")
	dialV := func() (*Conn, error) { return DialTCPTimeout(victimAddr, 5*time.Second) }
	dialS := func() (*Conn, error) { return DialTCPTimeout(sibAddr, 5*time.Second) }
	cv, err := dialV()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := dialS()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCluster(crowdSize, [][]ReplicaSpec{{
		{Conn: cv, Dial: dialV},
		{Conn: cs, Dial: dialS},
	}}, chaosPolicy())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	var evMu sync.Mutex
	var events []string
	coord.StartMonitor(MonitorOptions{
		Interval:     20 * time.Millisecond,
		SuspectAfter: 1,
		DownAfter:    2,
		ReseedEvery:  40 * time.Millisecond,
		OnEvent: func(e Event) {
			evMu.Lock()
			events = append(events, e.String())
			evMu.Unlock()
		},
	})
	eventLog := func() []string {
		evMu.Lock()
		defer evMu.Unlock()
		return append([]string(nil), events...)
	}
	defer func() { writeChaosLog(t, eventLog()) }()

	// Ingest the first half, then kill the victim and immediately bring a
	// fresh (empty) worker up on its address — the monitor has to reseed
	// it through the full state replay, not adopt it bare.
	half := len(subs) / 2
	batchAll := func(lo, hi int) {
		t.Helper()
		var batch []Response
		for _, s := range subs[lo:hi] {
			batch = append(batch, Response{Worker: s.w, Task: s.t, Answer: s.r})
			if len(batch) == 23 {
				if err := coord.Ingest(batch); err != nil {
					t.Fatalf("ingest must survive the kill, got: %v", err)
				}
				batch = batch[:0]
			}
		}
		if len(batch) > 0 {
			if err := coord.Ingest(batch); err != nil {
				t.Fatalf("ingest must survive the kill, got: %v", err)
			}
		}
	}
	batchAll(0, half)
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	serveWorkerOn(t, victimAddr, crowdSize, "victim-reborn")
	batchAll(half, len(subs))

	// The monitor must walk the slot down and reseed it from the sibling.
	// Wait on the event log, not just Membership(): the monitor publishes
	// the alive/reseed-count state before its OnEvent callback runs, so
	// polling membership alone can observe the reseed a beat before the
	// event lands. The monitor goroutine emits down before reseed, so
	// seeing the reseed event guarantees the down event is logged too.
	deadline := time.Now().Add(10 * time.Second)
	for {
		view := coord.Membership()
		if view[0].State == "alive" && view[0].Reseeds >= 1 &&
			strings.Contains(strings.Join(eventLog(), "\n"), "reseed slice=0 replica=0") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never reseeded; membership %+v\nevents:\n%s", view, strings.Join(eventLog(), "\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	log := strings.Join(eventLog(), "\n")
	if !strings.Contains(log, "down slice=0 replica=0") {
		t.Fatalf("no down event observed:\n%s", log)
	}
	if !strings.Contains(log, "reseed slice=0 replica=0") {
		t.Fatalf("no reseed event observed:\n%s", log)
	}

	// Both replicas must now agree (validated pulls) and match local.
	local := localReference(t, crowdSize, subs)
	requireEvaluateAllEqual(t, "post-reseed cluster", coord, local)
	if coord.LiveReplicas(0) != 2 {
		t.Fatalf("slice 0 has %d live replicas after reseed, want 2", coord.LiveReplicas(0))
	}
}

// TestChaosHungWorkerRPCBounded pins the deadline contract: an RPC against
// a replica whose connection hangs mid-frame must fail within the policy's
// timeout budget (plus scheduling slack), never block indefinitely.
func TestChaosHungWorkerRPCBounded(t *testing.T) {
	const crowdSize = 8
	_, addr := serveWorkerOn(t, "", crowdSize, "hung")
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fc := NewFaultConn(nc)
	policy := chaosPolicy()
	policy.Retries = 0 // measure one attempt, not the retry schedule
	policy.StrictReads = true
	coord, err := NewCluster(crowdSize, [][]ReplicaSpec{{{Conn: NewConn(fc)}}}, policy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	// Truncate the next request a few bytes in: the worker never sees a
	// full frame, the coordinator waits on a reply that cannot come.
	fc.HangWritesAfter(3)
	start := time.Now()
	_, err = coord.Responses()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("pull against a hung replica succeeded")
	}
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("want ErrNoReplica after the slot is cut loose, got: %v", err)
	}
	if elapsed > policy.RPCTimeout+2*time.Second {
		t.Fatalf("hung RPC took %v, budget %v", elapsed, policy.RPCTimeout)
	}
}

// TestChaosDegradedReads: when a slice loses its last replica, read-only
// pulls serve the last validated statistics (flagged via Degraded) instead
// of failing — unless the policy opts into StrictReads. Writes never
// degrade.
func TestChaosDegradedReads(t *testing.T) {
	const crowdSize, tasks = 8, 120
	subs := testStream(t, crowdSize, tasks, 53)

	run := func(t *testing.T, strict bool) {
		w, addr := serveWorkerOn(t, "", crowdSize, "solo")
		conn, err := DialTCPTimeout(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		policy := chaosPolicy()
		policy.Retries = 0
		policy.StrictReads = strict
		coord, err := NewCluster(crowdSize, [][]ReplicaSpec{{{Conn: conn}}}, policy)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { coord.Close() })
		var batch []Response
		for _, s := range subs {
			batch = append(batch, Response{Worker: s.w, Task: s.t, Answer: s.r})
		}
		if err := coord.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		// Prime the last-good cache with validated pulls, and keep the
		// pre-death answers for comparison.
		before, err := coord.EvaluateAll(evalOpts())
		if err != nil {
			t.Fatal(err)
		}
		total, err := coord.Responses()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		if strict {
			if _, err := coord.EvaluateAll(evalOpts()); !errors.Is(err, ErrNoReplica) {
				t.Fatalf("strict read on a dead slice: want ErrNoReplica, got %v", err)
			}
			return
		}
		after, err := coord.EvaluateAll(evalOpts())
		if err != nil {
			t.Fatalf("degraded read failed: %v", err)
		}
		compareEstimates(t, "degraded read", after, before)
		if got, err := coord.Responses(); err != nil || got != total {
			t.Fatalf("degraded counts %d (err %v), want %d", got, err, total)
		}
		if deg := coord.Degraded(); len(deg) != 1 || deg[0] != 0 {
			t.Fatalf("Degraded() = %v, want [0]", deg)
		}
		// Writes must keep failing loudly.
		if err := coord.Add(0, 1, 1); !errors.Is(err, ErrNoReplica) {
			t.Fatalf("write to a dead slice: want ErrNoReplica, got %v", err)
		}
	}
	t.Run("serve-stale", func(t *testing.T) { run(t, false) })
	t.Run("strict", func(t *testing.T) { run(t, true) })
}

// TestChaosDetectorLifecycle walks one replica through the full detector
// arc — alive, suspect, down, reseed-failed while its address is still
// partitioned, reseeded once the partition lifts — against a live sibling.
func TestChaosDetectorLifecycle(t *testing.T) {
	const crowdSize = 8
	flaky, victimAddr := serveWorkerOn(t, "", crowdSize, "flaky")
	_, sibAddr := serveWorkerOn(t, "", crowdSize, "steady")

	// The victim's dialer yields partitioned connections until healed.
	var partMu sync.Mutex
	partitioned := true
	dialV := func() (*Conn, error) {
		nc, err := net.DialTimeout("tcp", victimAddr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		partMu.Lock()
		bad := partitioned
		partMu.Unlock()
		if bad {
			fc := NewFaultConn(nc)
			fc.Partition()
			return NewConn(fc), nil
		}
		return NewConn(nc), nil
	}
	cv, err := DialTCPTimeout(victimAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := DialTCPTimeout(sibAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	policy := chaosPolicy()
	policy.RPCTimeout = 150 * time.Millisecond
	coord, err := NewCluster(crowdSize, [][]ReplicaSpec{{
		{Conn: cv, Dial: dialV},
		{Conn: cs, Dial: func() (*Conn, error) { return DialTCPTimeout(sibAddr, 5*time.Second) }},
	}}, policy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	// Give the slice some state so the reseed has something to transfer.
	subs := testStream(t, crowdSize, 60, 29)
	var batch []Response
	for _, s := range subs {
		batch = append(batch, Response{Worker: s.w, Task: s.t, Answer: s.r})
	}
	if err := coord.Ingest(batch); err != nil {
		t.Fatal(err)
	}

	var evMu sync.Mutex
	var events []string
	seen := func(sub string) bool {
		evMu.Lock()
		defer evMu.Unlock()
		for _, e := range events {
			if strings.Contains(e, sub) {
				return true
			}
		}
		return false
	}
	coord.StartMonitor(MonitorOptions{
		Interval:     25 * time.Millisecond,
		SuspectAfter: 2,
		DownAfter:    4,
		ReseedEvery:  50 * time.Millisecond,
		OnEvent: func(e Event) {
			evMu.Lock()
			events = append(events, e.String())
			evMu.Unlock()
		},
	})
	defer func() {
		evMu.Lock()
		log := append([]string(nil), events...)
		evMu.Unlock()
		writeChaosLog(t, log)
	}()

	// Partition the victim: close its live connection. The dialer keeps
	// handing back partitioned replacements, so probes keep missing and
	// the slot cannot sneak back through a plain redial.
	victim := coord.slices[0].replicas[0]
	victim.mu.Lock()
	victim.conn.Close()
	victim.mu.Unlock()

	wait := func(what, sub string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !seen(sub) {
			if time.Now().After(deadline) {
				evMu.Lock()
				log := strings.Join(events, "\n")
				evMu.Unlock()
				t.Fatalf("never observed %s (%q); events:\n%s", what, sub, log)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	wait("suspicion", "suspect slice=0 replica=0")
	wait("retirement", "down slice=0 replica=0")
	wait("failed reseed while partitioned", "reseed-failed slice=0 replica=0")

	// Lift the partition — and replace the worker with a fresh process on
	// the same address: the old one missed every fan-out while it was cut
	// off, so its state is behind and cannot be adopted in place (restore
	// refuses non-empty evaluators); a restarted, empty crowdd is what the
	// reseed's state transfer is for.
	if err := flaky.Close(); err != nil {
		t.Fatal(err)
	}
	serveWorkerOn(t, victimAddr, crowdSize, "flaky-reborn")
	partMu.Lock()
	partitioned = false
	partMu.Unlock()
	wait("recovery", "reseed slice=0 replica=0")

	deadline := time.Now().Add(10 * time.Second)
	for {
		view := coord.Membership()
		if view[0].State == "alive" && view[0].Reseeds >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("membership never recovered: %+v", view)
		}
		time.Sleep(10 * time.Millisecond)
	}
	local := localReference(t, crowdSize, subs)
	requireEvaluateAllEqual(t, "post-lifecycle cluster", coord, local)
}

// TestWorkerCloseNotWedgedByStalledPeer pins satellite contract (a): a
// coordinator that sends a request and then never drains the reply cannot
// wedge Worker.Close — the worker's per-frame write deadline cuts the
// stalled reply loose.
func TestWorkerCloseNotWedgedByStalledPeer(t *testing.T) {
	const crowdSize = 8
	w, err := NewWorker(WorkerOptions{Workers: crowdSize, FrameTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := w.SelfConn()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Request a statistics pull but never read the reply: the in-process
	// pipe has no buffering, so the worker's reply write stalls against us
	// while it holds the serving lock Close needs.
	if err := conn.send(msgPullDelta, encodeCursor(noCursor)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the worker pick the request up
	start := time.Now()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close took %v against a stalled peer", elapsed)
	}
}

func evalOpts() core.EvalOptions { return core.EvalOptions{Confidence: 0.9} }

// TestChaosCrashRestartFromWAL is the durability headline under fire: a
// head journals its slice to a store while a seeded fault filesystem cuts
// the power mid-append — tearing whatever frame was in flight — and every
// crash is followed by a cold restart: a new head over a fresh, empty
// worker, which the attach rebuilds from the reopened store. After each
// restart, every batch that was acknowledged before the crash must be on
// the rebuilt worker (zero acked loss), and once the whole stream has
// landed the decisions must be bit-identical to a never-crashed local
// evaluator.
func TestChaosCrashRestartFromWAL(t *testing.T) {
	const crowdSize, tasks = 8, 240
	seed := chaosSeed(t, 0x77A1C4A5)
	rng := rand.New(rand.NewSource(int64(seed)))
	subs := testStream(t, crowdSize, tasks, 97)
	local := localReference(t, crowdSize, subs)

	dir := chaosWALDir(t)
	ffs := store.NewFaultFS(store.OSFS{})
	// restart reopens the store and brings a new head up over a fresh,
	// empty worker; the attach rebuilds the worker from the store.
	restart := func(round int) (*Coordinator, *Worker, *store.Store) {
		t.Helper()
		st, err := store.Open(ffs, dir, store.Options{SegmentSize: 1 << 12, Fsync: store.FsyncAlways})
		if err != nil {
			t.Fatalf("round %d: reopening the store after a crash: %v", round, err)
		}
		w, err := NewWorker(WorkerOptions{Workers: crowdSize, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := w.SelfConn()
		if err != nil {
			t.Fatal(err)
		}
		coord, err := NewCluster(crowdSize, slicesOf(conn), DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.AttachSliceStores([]*store.Store{st}); err != nil {
			t.Fatalf("round %d: rebuilding from the torn WAL failed: %v", round, err)
		}
		return coord, w, st
	}

	acked := make([]bool, len(subs))
	remaining := func() []int {
		var idx []int
		for i, ok := range acked {
			if !ok {
				idx = append(idx, i)
			}
		}
		return idx
	}
	var chaosLog []string
	defer func() { writeChaosLog(t, chaosLog) }()

	crashes := 0
	const wantCrashes = 3
	for round := 0; ; round++ {
		if round > 24 {
			t.Fatalf("no forward progress after %d rounds (%d responses still unacked)", round, len(remaining()))
		}
		coord, w, st := restart(round)
		recovered := w.Evaluator().Responses()
		// Zero acked loss: every response acknowledged before any crash must
		// already be on the rebuilt worker, so a duplicate re-add is
		// rejected.
		for i, s := range subs {
			if acked[i] {
				if err := w.Evaluator().Add(s.w, s.t, s.r); err == nil {
					t.Fatalf("round %d: acked response %d (worker %d task %d) lost in the crash", round, i, s.w, s.t)
				}
			}
		}

		todo := remaining()
		if len(todo) > 0 && crashes < wantCrashes {
			budget := int64(600 + rng.Intn(2500))
			ffs.SetWriteBudget(budget, store.FaultCrash)
			chaosLog = append(chaosLog, fmt.Sprintf("round %d: rebuilt %d, %d unacked, crash budget %d bytes",
				round, recovered, len(todo), budget))
		} else {
			chaosLog = append(chaosLog, fmt.Sprintf("round %d: rebuilt %d, %d unacked, clean run", round, recovered, len(todo)))
		}

		// Re-ingest everything still unacked, in batches. Retrying a whole
		// failed batch is safe here: an append either returns success (the
		// frame is synced — acked) or tears its own frame (truncated on
		// recovery — gone), and the worker that applied it is replaced by
		// an empty one, so an unacked batch never survives partially.
		for lo := 0; lo < len(todo); {
			hi := min(lo+16, len(todo))
			batch := make([]Response, 0, hi-lo)
			for _, i := range todo[lo:hi] {
				s := subs[i]
				batch = append(batch, Response{Worker: s.w, Task: s.t, Answer: s.r})
			}
			if err := coord.Ingest(batch); err != nil {
				chaosLog = append(chaosLog, fmt.Sprintf("round %d: batch at %d refused: %v", round, lo, err))
				break // the store is down (crash or failed log); restart
			}
			for _, i := range todo[lo:hi] {
				acked[i] = true
			}
			lo = hi
		}

		coord.Close()
		w.Close()
		st.Close()
		if ffs.Crashed() {
			crashes++
			ffs.Revive()
		} else {
			ffs.SetWriteBudget(-1, store.FaultNone)
		}
		if len(remaining()) == 0 && crashes >= wantCrashes {
			break
		}
	}
	if crashes < wantCrashes {
		t.Fatalf("only %d crashes landed; the run proved nothing", crashes)
	}

	// Final cold restart: the store alone must rebuild the full stream
	// with decisions bit-identical to the never-crashed evaluator.
	coord, w, st := restart(-1)
	defer st.Close()
	defer w.Close()
	defer coord.Close()
	if n, err := coord.Responses(); err != nil || n != len(subs) {
		t.Fatalf("final rebuild holds %d responses (err %v), want %d", n, err, len(subs))
	}
	requireEvaluateAllEqual(t, "crash-restart decisions", coord, local)
}
