package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"crowdassess/internal/dist"
)

// failoverBatch is the responses per Coordinator.Ingest call.
const failoverBatch = 256

// reseedsPerPhase is how many replicas client 0 replaces in a phase: on
// the reference box one every 200 or so of its ingests.
const reseedsPerPhase = 25

// failoverRun is what one failover client did in the timed phase.
type failoverRun struct {
	ingestMs    []float64
	inTime      int // ingests completed by the deadline
	ackedIn     int // responses they carried
	reseedMs    []float64
	reseedBytes []float64
	attempted   int
	failed      int
	consumed    int
	lost        [][2]int
	err         error
}

// runFailoverIngest is the write-plus-state-transfer workload: two
// clients call Coordinator.Ingest on a WAL-backed 2×2 cluster with a dense
// 64-worker crowd, while client 0 kills a replica reseedsPerPhase times,
// evenly spread over the phase, and reseeds a fresh one from the survivor,
// rotating over the four replica slots. No gateway runs.
func runFailoverIngest(rc *runCtx) error {
	const workers = 64
	preloadTasks := rc.scaled(4000, 40)
	streamTasks := rc.scaled(100000, 200)
	preload, stream, err := genCrowd(rc.cfg.seed, workers, preloadTasks, streamTasks, 0.8)
	if err != nil {
		return err
	}
	streams := split(stream, gatewayClients)

	boots := 0
	cl, err := boot(rc, func() (*cluster, error) {
		cl, err := startCluster(workers, filepath.Join(rc.dir, "boot-"+strconv.Itoa(boots)), rc.tr)
		boots++
		if err != nil {
			return nil, err
		}
		batch := make([]dist.Response, 0, failoverBatch)
		for lo := 0; lo < len(preload); lo += failoverBatch {
			batch = toDist(batch[:0], preload[lo:min(lo+failoverBatch, len(preload))])
			if err := cl.coord.Ingest(batch); err != nil {
				return nil, errors.Join(fmt.Errorf("preload: %w", err), cl.close())
			}
		}
		return cl, nil
	}, (*cluster).close)
	if err != nil {
		return err
	}
	defer func() {
		if cl != nil {
			cl.close()
		}
	}()

	var wire0 int64
	if rc.tr != nil {
		wire0 = cl.wireBytes()
	}
	p := rc.startPhase()
	runs := make([]failoverRun, len(streams))
	var wg sync.WaitGroup
	for c := range streams {
		reseeds := newSchedule(p, 0)
		if c == 0 {
			reseeds = newSchedule(p, reseedsPerPhase)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runs[c] = rc.failoverClient(cl, c, streams[c], reseeds, p.deadline)
		}(c)
	}
	wg.Wait()
	var wire int64
	if rc.tr != nil {
		wire = cl.wireBytes() - wire0
	}

	var ingestMs, reseedMs, reseedBytes []float64
	var accepted []resp
	attempted, failed, inTime, ackedIn := 0, 0, 0, 0
	for c, r := range runs {
		ingestMs = append(ingestMs, r.ingestMs...)
		inTime += r.inTime
		ackedIn += r.ackedIn
		reseedMs = append(reseedMs, r.reseedMs...)
		reseedBytes = append(reseedBytes, r.reseedBytes...)
		attempted += r.attempted
		failed += r.failed
		accepted = append(accepted, ackedPrefix(streams[c], r.consumed, r.lost)...)
		if r.err != nil {
			rc.rep.Problems = append(rc.rep.Problems, fmt.Sprintf("client %d: %v", c, r.err))
		}
	}
	rc.endPhase(p, ingestMs, float64(inTime)/rc.cfg.seconds)
	rc.countOps(attempted, failed)
	rc.rep.set("ingest_rps", "responses/s", float64(ackedIn)/rc.cfg.seconds, 0)
	rc.rep.latency("ingest", ingestMs)
	if len(reseedMs) > 0 {
		rc.rep.set("reseed_p50_ms", "ms", median(reseedMs), len(reseedMs))
	}

	got, err := cl.coord.EvaluateAll(evalOpts())
	if err != nil {
		return err
	}
	if rc.tr != nil {
		r := rc.rep
		if len(ingestMs) > 0 {
			r.set("dist.ingest_ms.p50", "ms", median(ingestMs), len(ingestMs))
		}
		if len(reseedMs) > 0 {
			r.set("dist.reseed_ms.p50", "ms", median(reseedMs), len(reseedMs))
			r.set("dist.reseed_bytes.p50", "bytes", median(reseedBytes), len(reseedBytes))
		}
		// A reseed goes ahead only once the coordinator has marked the
		// killed replica down.
		r.set("dist.replica_down_events", "count", float64(len(reseedMs)), 0)
		if err := cl.setLayerTotals(rc, len(accepted), len(ingestMs), wire); err != nil {
			return err
		}
		if err := cl.probePull(rc); err != nil {
			return err
		}
	}
	err = cl.close()
	cl = nil
	if err != nil {
		return err
	}
	return rc.checkAgainstReference(got, workers, preload, accepted)
}

// failoverClient ingests its stream in batches until the deadline,
// replacing a replica whenever the reseed schedule comes due.
func (rc *runCtx) failoverClient(cl *cluster, c int, stream []resp, reseeds *schedule, deadline time.Time) failoverRun {
	var r failoverRun
	batch := make([]dist.Response, 0, failoverBatch)
	for k := 0; time.Now().Before(deadline); {
		id := rc.tr.newID()
		start := time.Now()
		var err error
		name := "client.ingest"
		if reseeds.due(start) {
			name = "client.reseed"
			si, ri := k%clusterSlices, k/clusterSlices%clusterReplicas
			k++
			var d time.Duration
			var n int64
			d, n, err = cl.reseed(si, ri, rc.tr != nil)
			if err == nil {
				r.reseedMs = append(r.reseedMs, ms(d))
				r.reseedBytes = append(r.reseedBytes, float64(n))
			}
		} else {
			if r.consumed == len(stream) {
				break
			}
			lo, hi := r.consumed, min(r.consumed+failoverBatch, len(stream))
			batch = toDist(batch[:0], stream[lo:hi])
			err = cl.coord.Ingest(batch)
			end := time.Now()
			if err != nil {
				r.lost = append(r.lost, [2]int{lo, hi})
			} else {
				r.ingestMs = append(r.ingestMs, ms(end.Sub(start)))
				if !end.After(deadline) {
					r.inTime++
					r.ackedIn += len(batch)
				}
			}
			r.consumed = hi
		}
		rc.tr.record(name, id, 0, id, start, time.Now())
		r.attempted++
		if err != nil {
			r.failed++
			if r.err == nil {
				r.err = err
			}
		}
	}
	return r
}

// toDist appends responses in the coordinator's form.
func toDist(dst []dist.Response, rs []resp) []dist.Response {
	for _, x := range rs {
		dst = append(dst, dist.Response{Worker: int(x.worker), Task: int(x.task), Answer: crowdResponse(x)})
	}
	return dst
}
