package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable clock for deterministic tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestWithLabelsViews: two views of one registry register the same
// GaugeFunc and counter under their own constant labels, so both sources
// stay on the page instead of the newest replacing the other, and each
// view reads back its own series.
func TestWithLabelsViews(t *testing.T) {
	r := NewRegistry(nil)
	a, b := r.With(Label{"tenant", "a"}), r.With(Label{"tenant", "b"})
	a.GaugeFunc("up", "help", func() float64 { return 1 }, Label{"slice", "0"})
	b.GaugeFunc("up", "help", func() float64 { return 2 }, Label{"slice", "0"})
	a.Counter("errs_total", "help").Inc()
	b.Counter("errs_total", "help").Add(3)
	var out bytes.Buffer
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`up{slice="0",tenant="a"} 1`,
		`up{slice="0",tenant="b"} 2`,
		`errs_total{tenant="a"} 1`,
		`errs_total{tenant="b"} 3`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, out.String())
		}
	}
	if v, ok := b.GaugeValue("up", Label{"slice", "0"}); !ok || v != 2 {
		t.Errorf("view b reads up = %v (ok %v), want 2", v, ok)
	}
	if v, ok := a.CounterValue("errs_total"); !ok || v != 1 {
		t.Errorf("view a reads errs_total = %v (ok %v), want 1", v, ok)
	}
	if _, ok := r.CounterValue("errs_total"); ok {
		t.Error("the unlabeled registry found a series only the views registered")
	}
	if (*Registry)(nil).With(Label{"tenant", "a"}) != nil {
		t.Error("a view of a nil registry is not nil")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry(nil)
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same series.
	if r.Counter("x_total", "help") != c {
		t.Fatal("counter registration is not idempotent")
	}
	g := r.Gauge("g", "help", Label{"a", "1"})
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	// Label order must not matter.
	g2 := r.Gauge("multi", "help", Label{"a", "1"}, Label{"b", "2"})
	g3 := r.Gauge("multi", "help", Label{"b", "2"}, Label{"a", "1"})
	if g2 != g3 {
		t.Fatal("label order created distinct series")
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("dup", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("reusing a name with another type did not panic")
		}
	}()
	r.Gauge("dup", "help")
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 5, 100} {
		h.Observe(v)
	}
	// Buckets: le=1 gets {0.5, 1}, le=2 gets {1.5, 2}, le=4 gets {3},
	// +Inf gets {5, 100}.
	want := []uint64{2, 2, 1, 2}
	got := h.snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if math.Abs(h.Sum()-113.0) > 1e-9 {
		t.Fatalf("sum = %v, want 113", h.Sum())
	}
}

// TestHistogramQuantileUniform checks the interpolating estimator
// against a known uniform distribution: 10k points evenly spread over
// (0, 10] with bucket bounds every 1.0 must recover quantiles to well
// within one bucket width.
func TestHistogramQuantileUniform(t *testing.T) {
	bounds := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	h := NewHistogram(bounds)
	const n = 10000
	for i := 1; i <= n; i++ {
		h.Observe(float64(i) * 10.0 / n)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 5.0},
		{0.95, 9.5},
		{0.99, 9.9},
		{0.10, 1.0},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > 0.05 {
			t.Errorf("Quantile(%v) = %v, want %v ± 0.05", tc.q, got, tc.want)
		}
	}
}

// TestHistogramQuantileSkewed checks a two-mode distribution: 90% of
// mass at ~1ms, 10% at ~500ms. p50 must sit in the fast mode, p99 in
// the slow one.
func TestHistogramQuantileSkewed(t *testing.T) {
	h := NewHistogram(nil) // DefLatencyBuckets
	for i := 0; i < 900; i++ {
		h.Observe(0.001)
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	if p50 := h.Quantile(0.5); p50 > 0.0025 {
		t.Errorf("p50 = %v, want <= 0.0025 (fast mode)", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 0.25 || p99 > 0.5 {
		t.Errorf("p99 = %v, want in (0.25, 0.5] (slow mode)", p99)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	h.Observe(1000) // overflow bucket only
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("overflow-only quantile = %v, want largest bound 2", got)
	}
}

// TestPrometheusExpositionGolden pins the full text format: family
// ordering, HELP/TYPE lines, label rendering, cumulative buckets,
// +Inf, _sum and _count.
func TestPrometheusExpositionGolden(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	r := NewRegistry(clk)
	r.Counter("b_total", "Total b events.", Label{"kind", "x"}).Add(3)
	r.Counter("b_total", "Total b events.", Label{"kind", "y"}).Add(1)
	r.Gauge("a_gauge", "A gauge.").Set(2.5)
	r.GaugeFunc("c_fn", "Scrape-time value.", func() float64 { return 7 })
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1}, Label{"op", `in"g`})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_gauge A gauge.
# TYPE a_gauge gauge
a_gauge 2.5
# HELP b_total Total b events.
# TYPE b_total counter
b_total{kind="x"} 3
b_total{kind="y"} 1
# HELP c_fn Scrape-time value.
# TYPE c_fn gauge
c_fn 7
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{op="in\"g",le="0.1"} 1
lat_seconds_bucket{op="in\"g",le="1"} 2
lat_seconds_bucket{op="in\"g",le="+Inf"} 3
lat_seconds_sum{op="in\"g"} 2.55
lat_seconds_count{op="in\"g"} 3
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("hits_total", "Hits.").Inc()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Fatalf("body missing counter:\n%s", rec.Body.String())
	}
}

// TestRegistryConcurrency hammers one registry from 8 goroutines —
// registering, incrementing and observing — while a scraper loops
// WritePrometheus. Run under -race this is the data-race proof; the
// final counter total is the lost-update proof.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry(nil)
	const (
		workers = 8
		perG    = 2000
	)
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() { // concurrent scraper
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("conc_total", "h").Inc()
				r.Gauge("conc_gauge", "h", Label{"g", string(rune('a' + g))}).Set(float64(i))
				r.Histogram("conc_seconds", "h", nil).Observe(float64(i) / perG)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()
	if got := r.Counter("conc_total", "h").Value(); got != workers*perG {
		t.Fatalf("lost updates: counter = %d, want %d", got, workers*perG)
	}
	if got := r.Histogram("conc_seconds", "h", nil).Count(); got != workers*perG {
		t.Fatalf("lost observations: count = %d, want %d", got, workers*perG)
	}
}

func TestUptimeUsesClock(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	r := NewRegistry(clk)
	clk.advance(90 * time.Second)
	if got := r.Uptime(); got != 90*time.Second {
		t.Fatalf("uptime = %v, want 90s", got)
	}
}

func TestRequestIDAndContext(t *testing.T) {
	a := NewRequestID("node1")
	b := NewRequestID("node1")
	if a == b {
		t.Fatalf("request IDs collide: %q", a)
	}
	if !strings.HasPrefix(a, "node1-") {
		t.Fatalf("id %q missing prefix", a)
	}
	ctx := WithRequestID(context.Background(), a)
	if got := RequestIDFrom(ctx); got != a {
		t.Fatalf("RequestIDFrom = %q, want %q", got, a)
	}
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Fatalf("empty context id = %q, want empty", got)
	}
}

func TestHTTPMiddleware(t *testing.T) {
	var logBuf bytes.Buffer
	logger := NewLogger(&logBuf, "test", slog.LevelInfo)
	r := NewRegistry(nil)
	req := httptest.NewRequest("GET", "/statsz", nil)
	rec := httptest.NewRecorder()
	var sawID string
	handler := HTTPMiddleware(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		sawID = RequestIDFrom(req.Context())
		w.WriteHeader(http.StatusOK)
	}), logger, r, "w0")
	handler.ServeHTTP(rec, req)
	if sawID == "" {
		t.Fatal("handler saw no request ID")
	}
	if hdr := rec.Header().Get("X-Request-Id"); hdr != sawID {
		t.Fatalf("header id %q != context id %q", hdr, sawID)
	}
	if c := r.Histogram("http_request_seconds", "", nil, Label{"path", "/statsz"}).Count(); c != 1 {
		t.Fatalf("latency histogram count = %d, want 1", c)
	}
	var line map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, logBuf.String())
	}
	if line["req_id"] != sawID || line["path"] != "/statsz" {
		t.Fatalf("log line missing fields: %v", line)
	}
}
