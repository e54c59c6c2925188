package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"crowdassess/internal/dist"
	"crowdassess/internal/obs"
	"crowdassess/internal/store"
)

// Cluster shape of both dist workloads: two task slices, each owned by two
// replicas, every replica a dist.Worker serving TCP on loopback.
const (
	clusterSlices   = 2
	clusterReplicas = 2
	nodeShards      = 2
)

// replica is one dist.Worker serving on a benchmark-owned listener.
type replica struct {
	w      *dist.Worker
	bytes  *byteCounter // nil on an untraced run
	served chan error
}

// startReplica starts a worker on a fresh loopback listener and dials it.
func startReplica(workers int, traced bool) (*replica, *dist.Conn, error) {
	w, err := dist.NewWorker(dist.WorkerOptions{Workers: workers, Shards: nodeShards})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	r := &replica{w: w, served: make(chan error, 1)}
	var l net.Listener = ln
	if traced {
		r.bytes = &byteCounter{}
		l = countingListener{ln, r.bytes}
	}
	go func() { r.served <- w.Serve(l) }()
	conn, err := dist.DialTCPTimeout(ln.Addr().String(), 5*time.Second)
	if err != nil {
		return nil, nil, errors.Join(err, r.stop())
	}
	return r, conn, nil
}

// stop closes the worker and waits for its accept loop to end.
func (r *replica) stop() error {
	err := r.w.Close()
	return errors.Join(err, <-r.served)
}

// cluster is a replicated, WAL-backed dist deployment in this process.
type cluster struct {
	coord   *dist.Coordinator
	reps    [][]*replica
	stores  []*store.Store
	dir     string
	workers int
	reg     *obs.Registry // coordinator RPC counters, traced runs only

	retiredBytes int64 // wire bytes of replicas replaced by reseed
}

// startCluster boots clusterSlices×clusterReplicas workers, hands them to
// a coordinator and attaches one write-ahead log per slice under dir,
// fsynced on every append. A traced run opens the logs through timingFS
// and instruments the coordinator.
func startCluster(workers int, dir string, tr *tracer) (*cluster, error) {
	c := &cluster{dir: dir, workers: workers}
	specs := make([][]dist.ReplicaSpec, clusterSlices)
	for si := range specs {
		for ri := 0; ri < clusterReplicas; ri++ {
			r, conn, err := startReplica(workers, tr != nil)
			if err != nil {
				return nil, errors.Join(err, c.close())
			}
			if ri == 0 {
				c.reps = append(c.reps, nil)
			}
			c.reps[si] = append(c.reps[si], r)
			specs[si] = append(specs[si], dist.ReplicaSpec{Conn: conn})
		}
	}
	coord, err := dist.NewCluster(workers, specs, dist.DefaultPolicy())
	if err != nil {
		return nil, errors.Join(err, c.close())
	}
	c.coord = coord
	if tr != nil {
		c.reg = obs.NewRegistry(nil)
		coord.Instrument(c.reg)
	}
	var fsys store.FS = store.OSFS{}
	if tr != nil {
		fsys = timingFS{fsys, tr}
	}
	for si := 0; si < clusterSlices; si++ {
		st, err := store.Open(fsys, filepath.Join(dir, "slice-"+strconv.Itoa(si)), store.Options{Fsync: store.FsyncAlways})
		if err != nil {
			return nil, errors.Join(err, c.close())
		}
		c.stores = append(c.stores, st)
	}
	if err := coord.AttachSliceStores(c.stores); err != nil {
		return nil, errors.Join(err, c.close())
	}
	return c, nil
}

// close stops everything the cluster started and removes its logs.
func (c *cluster) close() error {
	var errs []error
	if c.coord != nil {
		errs = append(errs, c.coord.Close())
	}
	for _, g := range c.reps {
		for _, r := range g {
			errs = append(errs, r.stop())
		}
	}
	for _, st := range c.stores {
		errs = append(errs, st.Close())
	}
	errs = append(errs, os.RemoveAll(c.dir))
	return errors.Join(errs...)
}

// wireBytes is every byte that crossed a replica listener so far.
func (c *cluster) wireBytes() int64 {
	var n int64
	for _, g := range c.reps {
		for _, r := range g {
			n += r.bytes.n.Load()
		}
	}
	return n + c.retiredBytes
}

// reseed kills replica ri of slice si and replaces it: the old worker is
// closed, a counts pull lets the coordinator see the slot down (the
// surviving replica answers it), and a fresh worker is dialled and seeded
// from the survivor with RestoreNode. It returns the time from dialling
// the replacement until RestoreNode returned, and the bytes the
// replacement received and sent meanwhile (0 untraced).
func (c *cluster) reseed(si, ri int, traced bool) (time.Duration, int64, error) {
	old := c.reps[si][ri]
	if err := old.stop(); err != nil {
		return 0, 0, err
	}
	if traced {
		c.retiredBytes += old.bytes.n.Load()
	}
	if _, err := c.coord.Responses(); err != nil {
		return 0, 0, err
	}
	for _, h := range c.coord.Membership() {
		if h.Slice == si && h.Replica == ri && h.State != "down" {
			return 0, 0, fmt.Errorf("slice %d replica %d still %s after its worker closed", si, ri, h.State)
		}
	}
	start := time.Now()
	r, conn, err := startReplica(c.workers, traced)
	if err != nil {
		return 0, 0, err
	}
	if err := c.coord.RestoreNode(si, conn, nil); err != nil {
		return 0, 0, errors.Join(err, r.stop())
	}
	d := time.Since(start)
	c.reps[si][ri] = r
	var n int64
	if traced {
		n = r.bytes.n.Load()
	}
	return d, n, nil
}

// counterTotal sums every series of a counter family in the coordinator's
// registry, whatever its labels.
func (c *cluster) counterTotal(family string) (float64, error) {
	var buf bytes.Buffer
	if err := c.reg.WritePrometheus(&buf); err != nil {
		return 0, err
	}
	total := 0.0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family+"{") && !strings.HasPrefix(line, family+" ") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		total += v
	}
	return total, sc.Err()
}

// probePull times quiesced Coordinator.Merge calls — every slice's
// statistics pulled from both replicas, validated and merged — as
// dist.pull_merge_ms, with the wire bytes of one pull as dist.pull_bytes.
func (c *cluster) probePull(rc *runCtx) error {
	var times []float64
	var bytesPer int64
	for i := 0; i < probeRounds; i++ {
		before := c.wireBytes()
		start := time.Now()
		if _, err := c.coord.Merge(); err != nil {
			return err
		}
		times = append(times, ms(time.Since(start)))
		bytesPer = c.wireBytes() - before
	}
	rc.rep.set("dist.pull_merge_ms", "ms", median(times), len(times))
	rc.rep.set("dist.pull_bytes", "bytes", float64(bytesPer), 0)
	acc, err := c.coord.Merge()
	if err != nil {
		return err
	}
	return rc.probeSolves(func() error {
		_, err := acc.EvaluateSubset([]int{0}, evalOpts())
		return err
	}, func() error {
		_, err := acc.EvaluateAll(evalOpts())
		return err
	})
}

// setLayerTotals records the dist and store layers' per-layer numbers of
// a traced phase that ingested the given responses in the given number of
// ingest operations and moved wire bytes over the replicas' listeners.
func (c *cluster) setLayerTotals(rc *runCtx, responses, ingests int, wire int64) error {
	r := rc.rep
	r.set("dist.wire_bytes_per_response", "bytes", float64(wire)/float64(responses), 0)
	for _, m := range []struct{ name, family string }{
		{"dist.rpc_errors", "dist_rpc_errors_total"},
		{"dist.rpc_retries", "dist_rpc_retries_total"},
	} {
		v, err := c.counterTotal(m.family)
		if err != nil {
			return err
		}
		r.set(m.name, "count", v, 0)
	}
	fsyncs := rc.tr.sample("store.fsync_ms")
	r.set("store.fsyncs_per_ingest", "count", float64(len(fsyncs))/float64(ingests), 0)
	if len(fsyncs) > 0 {
		r.set("store.fsync_ms.p50", "ms", median(fsyncs), len(fsyncs))
	}
	r.set("store.write_ms_per_ingest", "ms", rc.tr.sum("store.write_ms")/float64(ingests), 0)
	r.set("store.write_bytes_per_response", "bytes", rc.tr.sum("store.write_bytes")/float64(responses), 0)
	return nil
}
