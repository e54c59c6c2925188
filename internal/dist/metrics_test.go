package dist

import (
	"sync"
	"testing"
	"time"

	"crowdassess/internal/obs"
)

// TestEventQueueOrderAndFlush: events come out in emission order, drain
// flushes everything already queued, and draining twice is harmless.
func TestEventQueueOrderAndFlush(t *testing.T) {
	var mu sync.Mutex
	var got []int
	q := newEventQueue(func(e Event) {
		mu.Lock()
		got = append(got, e.Slice)
		mu.Unlock()
	}, 64)
	for i := 0; i < 50; i++ {
		q.emit(Event{Slice: i})
	}
	q.drain()
	q.drain()
	if q.dropped.Load() != 0 {
		t.Fatalf("dropped %d events with room in the queue", q.dropped.Load())
	}
	if len(got) != 50 {
		t.Fatalf("delivered %d events, want 50", len(got))
	}
	for i, s := range got {
		if s != i {
			t.Fatalf("event %d carries slice %d: order not preserved", i, s)
		}
	}
}

// TestEventQueueSlowSinkNeverBlocks is the contract the monitor loop
// depends on: a wedged OnEvent sink costs emitters nothing — excess
// events are dropped and counted, never waited for.
func TestEventQueueSlowSinkNeverBlocks(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	delivered := 0
	q := newEventQueue(func(e Event) {
		<-release
		mu.Lock()
		delivered++
		mu.Unlock()
	}, 4)
	start := time.Now()
	for i := 0; i < 100; i++ {
		q.emit(Event{Slice: i})
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("100 emits against a wedged sink took %v: emit blocked", elapsed)
	}
	// The dispatcher holds at most one event in the wedged sink and the
	// channel buffers four more, so at least 95 of the 100 must drop.
	if d := q.dropped.Load(); d < 95 {
		t.Fatalf("dropped %d events, want >= 95", d)
	}
	close(release)
	q.drain()
	mu.Lock()
	defer mu.Unlock()
	if uint64(delivered)+q.dropped.Load() != 100 {
		t.Fatalf("delivered %d + dropped %d != 100 emitted", delivered, q.dropped.Load())
	}
}

// TestEventMetricsAndChain: the metrics sink counts events by kind, and
// ChainEvents fans each event to every non-nil sink in order.
func TestEventMetricsAndChain(t *testing.T) {
	reg := obs.NewRegistry(nil)
	var logged []string
	sink := ChainEvents(nil, EventMetrics(reg), func(e Event) { logged = append(logged, e.Kind) })
	sink(Event{Kind: "suspect"})
	sink(Event{Kind: "suspect"})
	sink(Event{Kind: "reseed"})
	if v, ok := reg.CounterValue("monitor_events_total", obs.Label{Key: "kind", Value: "suspect"}); !ok || v != 2 {
		t.Errorf("monitor_events_total{kind=suspect} = %d (ok=%v), want 2", v, ok)
	}
	if v, ok := reg.CounterValue("monitor_events_total", obs.Label{Key: "kind", Value: "reseed"}); !ok || v != 1 {
		t.Errorf("monitor_events_total{kind=reseed} = %d (ok=%v), want 1", v, ok)
	}
	if len(logged) != 3 {
		t.Errorf("logging sink saw %d events, want 3", len(logged))
	}
}

// TestMsgNameStable pins the metric label values for every protocol
// message: renaming one silently forks time series across versions.
func TestMsgNameStable(t *testing.T) {
	want := map[byte]string{
		msgHello:          "hello",
		msgIngest:         "ingest",
		msgPullDelta:      "pull-delta",
		msgSweep:          "sweep",
		msgPullTotal:      "pull-total",
		msgPullCounts:     "pull-counts",
		msgPullDis:        "pull-dis",
		msgPing:           "ping",
		msgPullCompact:    "pull-compact",
		msgRestoreCompact: "restore-compact",
	}
	for msg, name := range want {
		if got := msgName(msg); got != name {
			t.Errorf("msgName(%#x) = %q, want %q", msg, got, name)
		}
	}
	if got := msgName(0xee); got != "0xee" {
		t.Errorf("msgName(0xee) = %q, want hex fallback", got)
	}
}
