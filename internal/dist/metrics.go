package dist

import (
	"errors"
	"net"
	"os"
	"strconv"
	"time"

	"crowdassess/internal/obs"
)

// This file is the dist layer's observability wiring: everything here
// feeds an obs.Registry and nothing here changes protocol or decision
// behavior. It lives outside the determinism-scoped files (codec,
// compact, Merge) on purpose — clocks pace measurement, never
// decisions.

// msgName renders a message type as a stable metric label value.
func msgName(t byte) string {
	switch t {
	case msgHello:
		return "hello"
	case msgIngest:
		return "ingest"
	case msgPullDelta:
		return "pull-delta"
	case msgPullCounts:
		return "pull-counts"
	case msgPullDis:
		return "pull-dis"
	case msgPing:
		return "ping"
	case msgPullCompact:
		return "pull-compact"
	case msgRestoreCompact:
		return "restore-compact"
	}
	return "0x" + strconv.FormatUint(uint64(t), 16)
}

// isTimeout reports whether an RPC failure was a deadline trip, for the
// timeout counter.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// rpcObserver builds the Conn-level observer recording per-message-type
// round-trip latency, payload bytes, errors and timeouts into reg.
func rpcObserver(reg *obs.Registry) RPCObserver {
	return func(msgType byte, sent, recvd int, elapsed time.Duration, err error) {
		msg := obs.Label{Key: "msg", Value: msgName(msgType)}
		reg.Histogram("dist_rpc_seconds",
			"Coordinator-side RPC round-trip latency by message type.", nil, msg).
			Observe(elapsed.Seconds())
		reg.Counter("dist_rpc_bytes_total",
			"RPC payload bytes by message type and direction.",
			msg, obs.Label{Key: "dir", Value: "sent"}).Add(uint64(sent))
		reg.Counter("dist_rpc_bytes_total",
			"RPC payload bytes by message type and direction.",
			msg, obs.Label{Key: "dir", Value: "recv"}).Add(uint64(recvd))
		if err != nil {
			reg.Counter("dist_rpc_errors_total",
				"Failed RPC round-trips by message type.", msg).Inc()
			if isTimeout(err) {
				reg.Counter("dist_rpc_timeouts_total",
					"RPC round-trips that tripped a deadline, by message type.", msg).Inc()
			}
		}
	}
}

// Instrument wires the coordinator into reg: every current and future
// connection (redials and reseeds included) reports per-message RPC
// latency/bytes/errors, the retry loop reports retries and backoff
// waits, redial reports incarnation refusals, and every replica slot
// exports a monitor_replica_state gauge (0=alive, 1=suspect, 2=down;
// -1 when the slot no longer exists). Call it once, after NewCluster
// and before traffic; calling it on a live cluster is safe but
// round-trips in flight keep the old (nil) observer.
func (c *Coordinator) Instrument(reg *obs.Registry) {
	fn := rpcObserver(reg)
	now := reg.Clock().Now
	c.obsMu.Lock()
	c.obsReg = reg
	c.obsFn = fn
	c.obsNow = now
	c.obsMu.Unlock()
	for si, s := range c.slices {
		s.mu.Lock()
		replicas := len(s.replicas)
		for _, n := range s.replicas {
			n.mu.Lock()
			n.conn.SetObserver(fn, now)
			n.mu.Unlock()
		}
		s.mu.Unlock()
		for ri := 0; ri < replicas; ri++ {
			s, si, ri := s, si, ri
			reg.GaugeFunc("monitor_replica_state",
				"Replica liveness by slot: 0=alive, 1=suspect, 2=down, -1=gone.",
				func() float64 {
					s.mu.Lock()
					defer s.mu.Unlock()
					if ri >= len(s.replicas) {
						return -1
					}
					return float64(s.replicas[ri].state)
				},
				obs.Label{Key: "slice", Value: strconv.Itoa(si)},
				obs.Label{Key: "replica", Value: strconv.Itoa(ri)})
		}
		s, si := s, si
		reg.GaugeFunc("monitor_slice_degraded",
			"1 when the slice serves stale reads because every replica is gone.",
			func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				if s.stale {
					return 1
				}
				return 0
			},
			obs.Label{Key: "slice", Value: strconv.Itoa(si)})
	}
}

// observer returns the installed RPC observer and clock (nil before
// Instrument), for the paths that create fresh connections.
func (c *Coordinator) observer() (RPCObserver, func() time.Time) {
	c.obsMu.Lock()
	defer c.obsMu.Unlock()
	return c.obsFn, c.obsNow
}

// instrumentConn installs the coordinator's observer (if any) on a
// fresh connection. Callers hold whatever serializes the conn.
func (c *Coordinator) instrumentConn(conn *Conn) {
	if fn, now := c.observer(); fn != nil {
		conn.SetObserver(fn, now)
	}
}

// noteRetry counts one retry attempt of an idempotent RPC.
func (c *Coordinator) noteRetry(msgType byte) {
	c.obsMu.Lock()
	reg := c.obsReg
	c.obsMu.Unlock()
	if reg == nil {
		return
	}
	reg.Counter("dist_rpc_retries_total",
		"Retry attempts of idempotent RPCs by message type.",
		obs.Label{Key: "msg", Value: msgName(msgType)}).Inc()
}

// noteFullPull counts one statistics pull of slice si that was a reset,
// the delta from the empty state, instead of a delta from the cursor.
func (c *Coordinator) noteFullPull(si int) {
	c.obsMu.Lock()
	reg := c.obsReg
	c.obsMu.Unlock()
	if reg == nil {
		return
	}
	reg.Counter("dist_full_pulls_total",
		"Statistics pulls that reset a slice's state from the empty state instead of folding a delta from the cursor, by slice.",
		obs.Label{Key: "slice", Value: strconv.Itoa(si)}).Inc()
}

// noteBackoff records one backoff sleep before a retry.
func (c *Coordinator) noteBackoff(d time.Duration) {
	c.obsMu.Lock()
	reg := c.obsReg
	c.obsMu.Unlock()
	if reg == nil {
		return
	}
	reg.Histogram("dist_rpc_backoff_seconds",
		"Backoff waits before RPC retries (count = waits, sum = total wait).", nil).
		Observe(d.Seconds())
}

// noteIncarnationRefusal counts a reconnect that reached a restarted
// (state-empty) worker incarnation and was refused.
func (c *Coordinator) noteIncarnationRefusal() {
	c.obsMu.Lock()
	reg := c.obsReg
	c.obsMu.Unlock()
	if reg == nil {
		return
	}
	reg.Counter("dist_incarnation_refusals_total",
		"Reconnects refused because they reached a restarted worker incarnation.").Inc()
}

// EventMetrics returns an OnEvent sink that counts failure-detector and
// reseed events by kind into reg — chain it with any logging sink via
// ChainEvents.
func EventMetrics(reg *obs.Registry) func(Event) {
	return func(e Event) {
		reg.Counter("monitor_events_total",
			"Failure-detector transitions and reseed outcomes by kind.",
			obs.Label{Key: "kind", Value: e.Kind}).Inc()
	}
}

// ChainEvents fans one monitor event out to every given sink, in order.
// Nil sinks are skipped.
func ChainEvents(sinks ...func(Event)) func(Event) {
	return func(e Event) {
		for _, s := range sinks {
			if s != nil {
				s(e)
			}
		}
	}
}

// Instrument exports the monitor's own health into reg: the number of
// events dropped because the OnEvent queue was full.
func (m *Monitor) Instrument(reg *obs.Registry) {
	reg.GaugeFunc("monitor_events_dropped",
		"Monitor events dropped because the OnEvent queue was full.",
		func() float64 { return float64(m.DroppedEvents()) })
}

// Instrument wires the worker node into reg: per-message serve latency
// and errors, ingest throughput counters, and gauges for the node's
// task/response/connection counts. Call before serving traffic;
// installing on a live worker is safe (requests in flight miss at most
// their own sample).
func (w *Worker) Instrument(reg *obs.Registry) {
	w.obsReg.Store(reg)
	reg.GaugeFunc("worker_tasks",
		"Distinct tasks held by this node's evaluator.",
		func() float64 { return float64(w.inc.Tasks()) })
	reg.GaugeFunc("worker_responses",
		"Responses ingested by this node's evaluator.",
		func() float64 { return float64(w.inc.Responses()) })
	reg.GaugeFunc("worker_connections",
		"Live coordinator connections served by this node.",
		func() float64 {
			w.mu.Lock()
			defer w.mu.Unlock()
			return float64(len(w.conns))
		})
	reg.GaugeFunc("worker_shards",
		"Local task-stripe shard count.",
		func() float64 { return float64(w.opts.Shards) })
}
