package obs

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Errorf("counter = %d, want 4", c.Value())
	}
	if r.Counter("c") != c {
		t.Error("Counter is not get-or-create")
	}
	g := r.Gauge("g")
	g.set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
	s := r.Snapshot()
	if s.Counters["c"] != 4 || s.Gauges["g"] != 7 {
		t.Errorf("snapshot = %+v", s)
	}
}

// TestNilSafety: every handle and the registry itself must be inert, not
// panicky, when nil — instrumented code never branches on "is obs wired?".
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(1)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter counted")
	}
	g := r.Gauge("x")
	g.set(5)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge moved")
	}
	h := r.Histogram("x", nil)
	h.Observe(1)
	if h.Snapshot().Count != 0 || h.quantile(0.5) != 0 {
		t.Error("nil histogram observed")
	}
	r.CounterFunc("x", func() int64 { return 1 })
	r.GaugeFunc("x", func() int64 { return 1 })
	r.Unregister("x")
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry snapshot non-empty")
	}
	var pt *PhaseTimer
	sp := pt.Begin(PhaseRender)
	sp.End()
	pt.observe(PhaseRender, time.Second)
	Span{}.End()
}

func TestFuncMetricsAndUnregister(t *testing.T) {
	r := NewRegistry()
	v := int64(41)
	r.CounterFunc("pull.counter", func() int64 { return v })
	r.GaugeFunc("pull.gauge", func() int64 { return -v })
	r.CounterFunc("pull.counter", func() int64 { return 0 }) // first wins
	v = 42
	s := r.Snapshot()
	if s.Counters["pull.counter"] != 42 {
		t.Errorf("func counter = %d, want 42", s.Counters["pull.counter"])
	}
	if s.Gauges["pull.gauge"] != -42 {
		t.Errorf("func gauge = %d, want -42", s.Gauges["pull.gauge"])
	}
	r.Unregister("pull.counter")
	r.Unregister("pull.gauge")
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 {
		t.Errorf("unregistered metrics still reported: %+v", s)
	}
}

// TestNames: a snapshot names every registered metric under its kind, the
// list tests of other packages read their instrumentation coverage from.
func TestNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b")
	r.Gauge("a")
	r.Histogram("c", nil)
	r.GaugeFunc("d", func() int64 { return 0 })
	s := r.Snapshot()
	_, b := s.Counters["b"]
	_, a := s.Gauges["a"]
	_, c := s.Histograms["c"]
	_, d := s.Gauges["d"]
	if !a || !b || !c || !d || len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 4 {
		t.Fatalf("snapshot = %+v, want counter b, gauges a and d, histogram c", s)
	}
}

// exactQuantile is the reference the histogram estimate is judged against:
// the rank-ceil(q·n) order statistic, matching quantileFrom's rank rule.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(float64(len(sorted)) * q)
	if float64(rank) < float64(len(sorted))*q {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// bucketIndex mirrors Observe's bucket choice.
func bucketIndex(bounds []int64, v int64) int {
	i := sort.Search(len(bounds), func(i int) bool { return bounds[i] >= v })
	return i
}

// TestHistogramQuantileProperty is the histogram-correctness property test:
// over randomized (seeded) workloads of several shapes, the estimated
// p50/p95/p99 must land inside the bucket that contains the exact quantile
// (or an adjacent one when the exact value sits on a bucket edge) — i.e.
// the estimation error is bounded by the bucket width, never a rank error.
func TestHistogramQuantileProperty(t *testing.T) {
	bounds := DurationBuckets()
	type workload struct {
		name string
		gen  func(r *rand.Rand) int64
	}
	workloads := []workload{
		{"uniform", func(r *rand.Rand) int64 { return 1 + r.Int63n(2_000_000_000) }},
		{"exponential", func(r *rand.Rand) int64 { return int64(r.ExpFloat64() * 3e6) }},
		{"constant", func(r *rand.Rand) int64 { return 777_777 }},
		{"bimodal", func(r *rand.Rand) int64 {
			if r.Intn(10) == 0 {
				return 80_000_000 + r.Int63n(1_000_000)
			}
			return 50_000 + r.Int63n(5_000)
		}},
		{"tiny", func(r *rand.Rand) int64 { return r.Int63n(3) }},    // below the first bound
		{"huge", func(r *rand.Rand) int64 { return int64(1) << 60 }}, // overflow bucket
	}
	for _, w := range workloads {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			h := NewHistogram(bounds)
			n := 200 + rng.Intn(5000)
			values := make([]int64, n)
			for i := range values {
				values[i] = w.gen(rng)
				h.Observe(values[i])
			}
			sort.Slice(values, func(a, b int) bool { return values[a] < values[b] })
			snap := h.Snapshot()
			if snap.Count != int64(n) {
				t.Fatalf("%s/seed=%d: count = %d, want %d", w.name, seed, snap.Count, n)
			}
			if snap.Min != values[0] || snap.Max != values[n-1] {
				t.Fatalf("%s/seed=%d: min/max = %d/%d, want %d/%d",
					w.name, seed, snap.Min, snap.Max, values[0], values[n-1])
			}
			for _, tc := range []struct {
				q   float64
				est int64
			}{{0.50, snap.P50}, {0.95, snap.P95}, {0.99, snap.P99}} {
				exact := exactQuantile(values, tc.q)
				bi, be := bucketIndex(bounds, tc.est), bucketIndex(bounds, exact)
				if d := bi - be; d < -1 || d > 1 {
					t.Errorf("%s/seed=%d: q=%.2f estimate %d (bucket %d) vs exact %d (bucket %d)",
						w.name, seed, tc.q, tc.est, bi, exact, be)
				}
				if tc.est < snap.Min || tc.est > snap.Max {
					t.Errorf("%s/seed=%d: q=%.2f estimate %d outside observed [%d, %d]",
						w.name, seed, tc.q, tc.est, snap.Min, snap.Max)
				}
			}
		}
	}
}

// TestHistogramConcurrent hammers Observe from many goroutines while
// snapshots are taken; run under -race by the race target. The final count
// must be exact — no lost updates.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	const (
		workers = 8
		perW    = 20000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent snapshotter
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				if s.Count > 0 && (s.P50 < s.Min || s.P50 > s.Max) {
					t.Errorf("mid-run p50 %d outside [%d, %d]", s.P50, s.Min, s.Max)
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				h.Observe(rng.Int63n(1 << 40))
			}
		}(w)
	}
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	// Let the workers finish, then stop the snapshotter.
	deadline := time.After(30 * time.Second)
	for {
		s := h.Snapshot()
		if s.Count == workers*perW {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("count stuck at %d, want %d", s.Count, workers*perW)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	<-wgDone
	if got := h.Snapshot().Count; got != workers*perW {
		t.Errorf("final count = %d, want %d", got, workers*perW)
	}
}

func TestPhaseTimer(t *testing.T) {
	r := NewRegistry()
	pt := NewPhaseTimer(r, "test.phase")
	sp := pt.Begin(PhaseDemandWait)
	time.Sleep(time.Millisecond)
	sp.End()
	pt.observe(PhaseRender, 5*time.Millisecond)
	s := r.Snapshot()
	dw := s.Histograms["test.phase.demand_wait_ns"]
	if dw.Count != 1 || dw.Max < int64(time.Millisecond)/2 {
		t.Errorf("demand-wait span not recorded: %+v", dw)
	}
	if s.Histograms["test.phase.render_ns"].Count != 1 {
		t.Error("render observation not recorded")
	}
	if pt.histogram(PhaseRender) == nil {
		t.Error("phase histogram accessor nil")
	}
	if PhaseVisibility.String() != "visibility_ns" || Phase(99).String() != "unknown" {
		t.Error("phase names wrong")
	}
}

// TestHotPathAllocationFree pins the tentpole's overhead claim at the unit
// level: counter adds, histogram observes, and phase spans allocate nothing.
func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", nil)
	pt := NewPhaseTimer(r, "p")
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		h.Observe(123456)
		sp := pt.Begin(PhaseDemandWait)
		sp.End()
	}); n != 0 {
		t.Errorf("hot-path instrumentation allocates %.1f times per op", n)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("cache.hits").Add(7)
	r.Histogram("frame_ns", nil).Observe(1500)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["cache.hits"] != 7 {
		t.Errorf("served counters = %+v", s.Counters)
	}
	if h := s.Histograms["frame_ns"]; h.Count != 1 || h.P50 == 0 {
		t.Errorf("served histogram = %+v", h)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DurationBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) * 997)
	}
}

func BenchmarkPhaseSpan(b *testing.B) {
	pt := NewPhaseTimer(NewRegistry(), "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := pt.Begin(PhaseDemandWait)
		sp.End()
	}
}
