package dist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// eventQueue decouples an event producer from its sink: emit never
// blocks (full queue = counted drop), a dedicated dispatcher goroutine
// delivers in order, and drain flushes whatever was queued before
// returning. It exists so the monitor's probe scheduling can never be
// delayed by a slow OnEvent sink (a file write, a metrics push).
type eventQueue struct {
	ch        chan Event
	dropped   atomic.Uint64
	drainOnce sync.Once
	done      chan struct{}
}

func newEventQueue(sink func(Event), buf int) *eventQueue {
	q := &eventQueue{ch: make(chan Event, buf), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		for e := range q.ch {
			sink(e)
		}
	}()
	return q
}

// emit enqueues e without blocking; a full queue drops it and counts.
func (q *eventQueue) emit(e Event) {
	select {
	case q.ch <- e:
	default:
		q.dropped.Add(1)
	}
}

// drain stops the queue and waits for every already-queued event to be
// delivered. The producer must have stopped emitting. Idempotent.
func (q *eventQueue) drain() {
	q.drainOnce.Do(func() { close(q.ch) })
	<-q.done
}

// MonitorOptions tunes the heartbeat failure detector and the self-healing
// reseed loop.
type MonitorOptions struct {
	// Interval is the heartbeat period — and each probe's deadline: a ping
	// that hasn't answered within one interval is a missed beat. 0 selects
	// DefaultHeartbeatInterval.
	Interval time.Duration
	// SuspectAfter is how many consecutive missed beats turn an Alive
	// replica Suspect (still serving, surfaced in the membership view).
	// 0 selects 2.
	SuspectAfter int
	// DownAfter is how many consecutive missed beats retire a replica to
	// Down — out of every fan-out until reseeded. 0 selects 4; it is
	// clamped to at least SuspectAfter.
	DownAfter int
	// ReseedEvery rate-limits reseed attempts per slot, so a node that is
	// down for an hour is not redialed and re-replayed thousands of times.
	// 0 selects 4× Interval.
	ReseedEvery time.Duration
	// OnEvent, when set, observes every detector transition and reseed
	// attempt. Events are delivered in order from a dedicated dispatcher
	// goroutine through a bounded queue (EventBuffer), so a slow sink
	// never delays probe scheduling; when the queue is full events are
	// dropped and counted (Monitor.DroppedEvents). A sink that never
	// returns wedges only its own queue — and Stop, which flushes
	// delivered-but-unprocessed events before returning. Nil is fine.
	OnEvent func(Event)
	// EventBuffer bounds the queue between the monitor loop and the
	// OnEvent sink. 0 selects DefaultEventBuffer.
	EventBuffer int
}

// DefaultEventBuffer is the default OnEvent queue depth: deep enough to
// absorb a whole-cluster transition burst (every slot reporting at
// once), small enough that an abandoned sink costs kilobytes.
const DefaultEventBuffer = 256

// DefaultHeartbeatInterval is the default probe period. One second keeps
// detection latency at a few seconds with the default thresholds while the
// probe itself stays negligible (a ping is two counters on the wire).
const DefaultHeartbeatInterval = time.Second

// Event is one observation of the self-healing loop: a liveness
// transition, or a reseed attempt and its outcome.
type Event struct {
	Time    time.Time `json:"time"`
	Kind    string    `json:"kind"` // "suspect" | "down" | "alive" | "reseed" | "reseed-failed"
	Slice   int       `json:"slice"`
	Replica int       `json:"replica"`
	Node    string    `json:"node,omitempty"`
	Err     error     `json:"-"`
	Detail  string    `json:"detail,omitempty"`
}

func (e Event) String() string {
	s := fmt.Sprintf("%s slice=%d replica=%d", e.Kind, e.Slice, e.Replica)
	if e.Node != "" {
		s += " node=" + e.Node
	}
	if e.Err != nil {
		s += " err=" + e.Err.Error()
	} else if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Monitor is the coordinator's failure detector and self-healing loop: it
// probes every non-down replica with msgPing each interval, walks replicas
// through Alive → Suspect → Down as beats go missing, and re-seeds Down
// slots that carry a dialer — from a surviving sibling replica when one
// lives, else from the slice's store. Start it with
// Coordinator.StartMonitor.
type Monitor struct {
	c    *Coordinator
	opts MonitorOptions

	// events decouples the monitor loop from the OnEvent sink; nil when
	// no sink is configured.
	events *eventQueue

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	// lastState remembers each slot's last observed liveness, keyed by
	// slot id, so transitions made by the RPC path (a broadcast marking a
	// replica down) are reported too, not only the monitor's own.
	lastState map[uint64]Liveness
}

// StartMonitor starts the self-healing loop. At most one monitor runs per
// coordinator; starting a second one first stops the old. The monitor
// stops with StopMonitor or Close.
func (c *Coordinator) StartMonitor(opts MonitorOptions) *Monitor {
	if opts.Interval <= 0 {
		opts.Interval = DefaultHeartbeatInterval
	}
	if opts.SuspectAfter <= 0 {
		opts.SuspectAfter = 2
	}
	if opts.DownAfter <= 0 {
		opts.DownAfter = 4
	}
	if opts.DownAfter < opts.SuspectAfter {
		opts.DownAfter = opts.SuspectAfter
	}
	if opts.ReseedEvery <= 0 {
		opts.ReseedEvery = 4 * opts.Interval
	}
	if opts.EventBuffer <= 0 {
		opts.EventBuffer = DefaultEventBuffer
	}
	m := &Monitor{
		c:         c,
		opts:      opts,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		lastState: make(map[uint64]Liveness),
	}
	if opts.OnEvent != nil {
		m.events = newEventQueue(opts.OnEvent, opts.EventBuffer)
	}
	c.monitorMu.Lock()
	old := c.monitor
	c.monitor = m
	c.monitorMu.Unlock()
	if old != nil {
		old.Stop()
	}
	go m.run()
	return m
}

// StopMonitor stops the running monitor, if any, and waits for its loop to
// exit. Safe to call with no monitor running.
func (c *Coordinator) StopMonitor() {
	c.monitorMu.Lock()
	m := c.monitor
	c.monitor = nil
	c.monitorMu.Unlock()
	if m != nil {
		m.Stop()
	}
}

// Stop ends the monitor's loop, waits for it to exit, and flushes any
// queued-but-undelivered events to the OnEvent sink. Idempotent.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
	if m.events != nil {
		m.events.drain()
	}
}

// DroppedEvents returns how many monitor events were dropped because the
// OnEvent queue was full.
func (m *Monitor) DroppedEvents() uint64 {
	if m.events == nil {
		return 0
	}
	return m.events.dropped.Load()
}

// emit hands one event to the sink queue, never blocking the monitor
// loop.
func (m *Monitor) emit(e Event) {
	if m.events != nil {
		m.events.emit(e)
	}
}

func (m *Monitor) run() {
	defer close(m.done)
	t := time.NewTicker(m.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.pass()
		}
	}
}

// pass is one detector sweep: probe, apply transitions, report, reseed.
// Probes run concurrently and outside the slice locks (a probe takes only
// the node's connection lock), so a slow pass never stalls ingestion.
func (m *Monitor) pass() {
	type target struct {
		si, ri int
		n      *node
	}
	var targets []target
	for si, s := range m.c.slices {
		s.mu.Lock()
		for ri, n := range s.replicas {
			if n.state != Down {
				targets = append(targets, target{si, ri, n})
			}
		}
		s.mu.Unlock()
	}
	probeErrs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			probeErrs[i] = m.probe(n)
		}(i, t.n)
	}
	wg.Wait()

	now := time.Now()
	for i, t := range targets {
		s := m.c.slices[t.si]
		s.mu.Lock()
		n := t.n
		switch {
		case n.state == Down:
			// An RPC lost the connection while we probed; the transition
			// is reported below.
		case probeErrs[i] == nil || isRemote(probeErrs[i]):
			// Answered — even a refusal is proof of life.
			beatLocked(n, now)
		default:
			n.missed++
			if n.missed >= m.opts.DownAfter || n.dial == nil {
				// A failed probe leaves the byte stream unframed; without
				// a dialer there is no way back to a clean channel, so a
				// single miss retires the slot.
				markDownLocked(n)
			} else {
				if n.missed >= m.opts.SuspectAfter && n.state == Alive {
					n.state = Suspect
				}
				// Restore a clean channel for the next probe (and any RPC
				// in between): the failed ping may have desynced the
				// stream. Failure is fine — missed keeps climbing.
				s.mu.Unlock()
				err := m.c.redial(n)
				s.mu.Lock()
				if err != nil && n.state != Down && !Transient(err) {
					// The slot reconnected to a restarted (state-empty)
					// incarnation: no channel repair can help, reseed is
					// the only way back.
					markDownLocked(n)
				}
			}
		}
		s.mu.Unlock()
	}

	m.report(now)
	m.reseed(now)
}

// probe pings one node, bounded by the heartbeat interval: an answer that
// cannot land within one period is a missed beat by definition.
func (m *Monitor) probe(n *node) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.conn.SetTimeout(m.opts.Interval)
	replyType, _, err := n.conn.roundTrip(msgPing, nil)
	if err != nil {
		return err
	}
	if replyType != msgPong {
		return fmt.Errorf("dist: unexpected reply 0x%02x to ping", replyType)
	}
	return nil
}

// report emits an Event for every slot whose liveness changed since the
// previous pass — including transitions made by the RPC path.
func (m *Monitor) report(now time.Time) {
	if m.events == nil {
		return
	}
	for si, s := range m.c.slices {
		s.mu.Lock()
		type change struct {
			ri    int
			name  string
			state Liveness
		}
		var changes []change
		for ri, n := range s.replicas {
			if prev, seen := m.lastState[n.id]; !seen || prev != n.state {
				m.lastState[n.id] = n.state
				if seen || n.state != Alive { // initial Alive is not news
					changes = append(changes, change{ri, n.name, n.state})
				}
			}
		}
		s.mu.Unlock()
		for _, ch := range changes {
			m.emit(Event{Time: now, Kind: ch.state.String(), Slice: si, Replica: ch.ri, Node: ch.name})
		}
	}
}

// reseed attempts to refill Down slots that carry a dialer, rate-limited
// per slot: dial a fresh connection and run it through RestoreNode, seeding
// from a surviving replica — or, when the whole slice is gone and a store
// is attached to it, through RestoreNodeFromStore.
func (m *Monitor) reseed(now time.Time) {
	type job struct {
		si, ri int
		name   string
		dial   func() (*Conn, error)
	}
	var jobs []job
	for si, s := range m.c.slices {
		s.mu.Lock()
		for ri, n := range s.replicas {
			if n.state == Down && n.dial != nil && now.Sub(n.lastReseed) >= m.opts.ReseedEvery {
				n.lastReseed = now // rate-limit from the attempt, not the success
				jobs = append(jobs, job{si, ri, n.name, n.dial})
			}
		}
		s.mu.Unlock()
	}
	for _, j := range jobs {
		err := m.reseedSlot(j.si, j.dial)
		if m.events == nil {
			continue
		}
		kind := "reseed"
		if err != nil {
			kind = "reseed-failed"
		}
		m.emit(Event{Time: now, Kind: kind, Slice: j.si, Replica: j.ri, Node: j.name, Err: err})
	}
}

// reseedSlot dials and restores one replacement replica for slice si.
func (m *Monitor) reseedSlot(si int, dial func() (*Conn, error)) error {
	conn, err := dial()
	if err != nil {
		return err
	}
	// Seed from a surviving sibling when one lives — always fresher than
	// disk.
	err = m.c.RestoreNode(si, conn, nil)
	if err == nil || !errors.Is(err, ErrNoReplica) || m.c.sliceStore(si) == nil {
		return err
	}
	// Whole slice is gone: rebuild it from its store, whose snapshot plus
	// journal tail covers every acknowledged batch. RestoreNode closed the
	// first connection on failure, so dial again.
	conn, rerr := dial()
	if rerr != nil {
		return errors.Join(err, rerr)
	}
	return m.c.RestoreNodeFromStore(si, conn)
}
