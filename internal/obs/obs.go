// Package obs is the repo's stdlib-only observability layer: a
// concurrent metrics registry (counters, gauges, fixed-bucket latency
// histograms with quantile estimation), Prometheus text-format
// exposition, and structured log/slog event logging with per-request
// IDs.
//
// The package is deliberately dependency-free — no prometheus client,
// no OpenTelemetry — matching the repo's no-go.sum discipline. It is
// also deliberately clock-injected: every duration measurement flows
// through a Clock so instrumented packages never call time.Now
// themselves, keeping the crowdvet determinism analyzer's contract
// intact (clocks here pace *measurement*, never decisions — see the
// exemption note in internal/analysis/coverage_test.go).
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Clock abstracts wall-clock access so instrumentation can be driven by
// a fake in tests and so bit-identity packages never import a clock
// implicitly: they receive one, visibly, from the composition root.
type Clock interface {
	Now() time.Time
	Since(t time.Time) time.Duration
}

// SystemClock is the real wall clock.
type SystemClock struct{}

// Now returns the current wall-clock time.
func (SystemClock) Now() time.Time { return time.Now() }

// Since returns the elapsed wall-clock time since t.
func (SystemClock) Since(t time.Time) time.Duration { return time.Since(t) }

// Label is one name=value dimension on a metric.
type Label struct {
	Key, Value string
}

// kind is the Prometheus metric type of a family.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing uint64. All methods are safe
// for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down. All methods are safe for
// concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; safe under contention).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metric is one labeled series inside a family.
type metric struct {
	labels []Label
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family is one metric name: a help string, a type, and the labeled
// series registered under it.
type family struct {
	name    string
	help    string
	typ     kind
	mu      sync.Mutex
	series  map[string]*metric
	ordered []*metric // insertion order; re-sorted at exposition
}

// Registry is a concurrent collection of metric families. All
// registration methods are get-or-create: calling Counter twice with
// the same name and labels returns the same *Counter, so call sites
// can register at use without coordination.
type Registry struct {
	clock Clock
	start time.Time
	*familySet
	// labels are added to every series registered or read through this
	// view (With); nil for the registry NewRegistry returns.
	labels []Label
}

// familySet is the metric families a registry and all its views share.
type familySet struct {
	mu       sync.RWMutex
	families map[string]*family
	names    []string
}

// NewRegistry returns an empty registry using clock for uptime and any
// time-derived exposition. A nil clock selects SystemClock.
func NewRegistry(clock Clock) *Registry {
	if clock == nil {
		clock = SystemClock{}
	}
	return &Registry{
		clock:     clock,
		start:     clock.Now(),
		familySet: &familySet{families: make(map[string]*family)},
	}
}

// With returns a view of the registry that adds labels to every series
// registered or read through it. The view shares the registry's families,
// clock and exposition, so one component instrumented per tenant through
// With(Label{"tenant", name}) shows up once per tenant on the same page
// instead of the newest tenant's gauges replacing the others'. A nil
// registry yields nil.
func (r *Registry) With(labels ...Label) *Registry {
	if r == nil {
		return nil
	}
	v := *r
	v.labels = append(append([]Label(nil), r.labels...), labels...)
	return &v
}

// seriesLabels sorts the view's constant labels and labels into one
// series label set.
func (r *Registry) seriesLabels(labels []Label) []Label {
	if len(r.labels) > 0 {
		labels = append(append([]Label(nil), r.labels...), labels...)
	}
	return sortLabels(labels)
}

// Clock returns the registry's clock, for call sites that time their
// own intervals (histogram observations) with the same source.
func (r *Registry) Clock() Clock { return r.clock }

// Uptime returns the elapsed time since the registry was created —
// process uptime when the registry is built at startup.
func (r *Registry) Uptime() time.Duration { return r.clock.Since(r.start) }

// labelKey canonicalizes a label set into a map key: sorted by key,
// NUL-separated. Label values are rare and operator-controlled here, so
// no escaping beyond the separator is needed for uniqueness.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(0)
		b.WriteString(l.Value)
		b.WriteByte(0)
	}
	return b.String()
}

// sortLabels returns a copy of labels sorted by key so the same set in
// any order names the same series.
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// getFamily returns the family for name, creating it with help and typ
// on first use. A name reused with a different type panics: that is a
// programming error that would emit invalid exposition.
func (r *Registry) getFamily(name, help string, typ kind) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{name: name, help: help, typ: typ, series: make(map[string]*metric)}
			r.families[name] = f
			r.names = append(r.names, name)
			sort.Strings(r.names)
		}
		r.mu.Unlock()
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// Counter returns the counter for name+labels, registering it on first
// use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.getFamily(name, help, kindCounter)
	labels = r.seriesLabels(labels)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m.c
	}
	m := &metric{labels: labels, c: &Counter{}}
	f.series[key] = m
	f.ordered = append(f.ordered, m)
	return m.c
}

// Gauge returns the gauge for name+labels, registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.getFamily(name, help, kindGauge)
	labels = r.seriesLabels(labels)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m.g
	}
	m := &metric{labels: labels, g: &Gauge{}}
	f.series[key] = m
	f.ordered = append(f.ordered, m)
	return m.g
}

// GaugeFunc registers fn as the value source for name+labels; fn is
// evaluated at each scrape. Registering the same series twice replaces
// the function — the newest source wins, which is what a reconfigured
// component wants.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.getFamily(name, help, kindGauge)
	labels = r.seriesLabels(labels)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		m.gf = fn
		return
	}
	f.series[key] = &metric{labels: labels, gf: fn}
	f.ordered = append(f.ordered, f.series[key])
}

// Histogram returns the histogram for name+labels, registering it on
// first use with the given bucket upper bounds (nil selects
// DefLatencyBuckets). Bounds must be sorted ascending; an implicit +Inf
// bucket is always appended.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	f := r.getFamily(name, help, kindHistogram)
	labels = r.seriesLabels(labels)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m.h
	}
	m := &metric{labels: labels, h: NewHistogram(buckets)}
	f.series[key] = m
	f.ordered = append(f.ordered, m)
	return m.h
}

// GaugeValue reads the current value of a registered gauge series (a
// plain gauge or a GaugeFunc), for callers that render the same numbers
// in another format (crowdd's /statsz). The second result is false when
// the series does not exist.
func (r *Registry) GaugeValue(name string, labels ...Label) (float64, bool) {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil || f.typ != kindGauge {
		return 0, false
	}
	key := labelKey(r.seriesLabels(labels))
	f.mu.Lock()
	m := f.series[key]
	var fn func() float64
	var g *Gauge
	if m != nil {
		fn, g = m.gf, m.g
	}
	f.mu.Unlock()
	switch {
	case fn != nil:
		return fn(), true
	case g != nil:
		return g.Value(), true
	}
	return 0, false
}

// CounterValue reads the current value of a registered counter series.
// The second result is false when the series does not exist.
func (r *Registry) CounterValue(name string, labels ...Label) (uint64, bool) {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil || f.typ != kindCounter {
		return 0, false
	}
	key := labelKey(r.seriesLabels(labels))
	f.mu.Lock()
	m := f.series[key]
	f.mu.Unlock()
	if m == nil || m.c == nil {
		return 0, false
	}
	return m.c.Value(), true
}
