// Package obs is the runtime observability layer: a dependency-free metrics
// registry (atomic counters, gauges, and fixed-bucket latency histograms
// with quantile snapshots) plus a frame-phase timer for the interactive
// loop's visibility → demand-wait → render → prefetch-issue breakdown.
//
// The design splits cost between the hot path and the snapshot path. Hot
// paths hold pre-resolved *Counter/*Gauge/*Histogram handles and update
// them with single atomic operations — no map lookups, no locks, no
// allocation. Components that already keep their own counters under a lock
// (the cache, the spill tier) register pull-style func metrics instead, which
// cost nothing until someone asks for a Snapshot. Every handle method is
// nil-receiver-safe, so un-instrumented code paths pay one predictable
// branch.
//
// Snapshot returns a plain JSON-marshalable value; Handler serves it over
// HTTP for the vizserver debug endpoint.
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter ignores updates and reads as 0.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (bytes in flight, open sessions).
// The zero value is ready to use; a nil Gauge ignores updates and reads 0.
type Gauge struct{ v atomic.Int64 }

// set replaces the gauge value.
func (g *Gauge) set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// funcMetric is a pull-style metric evaluated at snapshot time.
type funcMetric struct {
	fn      func() int64
	counter bool // reported under counters rather than gauges
}

// Registry is a named collection of metrics. Methods are get-or-create and
// safe for concurrent use; a nil *Registry is a valid sink that returns nil
// handles (whose methods are no-ops), so instrumentation can be wired
// unconditionally.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]funcMetric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]funcMetric),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later bounds are ignored). Bounds must be
// ascending; they are copied.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// CounterFunc registers a pull-style counter: fn is evaluated at snapshot
// time and reported under the snapshot's counters. The first registration
// of a name wins. fn must not call back into the registry.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.registerFunc(name, fn, true)
}

// GaugeFunc registers a pull-style gauge evaluated at snapshot time.
// The first registration of a name wins. fn must not call back into the
// registry.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.registerFunc(name, fn, false)
}

func (r *Registry) registerFunc(name string, fn func() int64, counter bool) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.funcs[name]; !ok {
		r.funcs[name] = funcMetric{fn: fn, counter: counter}
	}
}

// Unregister removes the named metric of any kind. Handles already held
// keep working; they just stop being reported. Used for per-session metrics
// whose owners come and go.
func (r *Registry) Unregister(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.counters, name)
	delete(r.gauges, name)
	delete(r.hists, name)
	delete(r.funcs, name)
}

// Snapshot is a point-in-time copy of every registered metric, shaped for
// JSON. Counter and gauge reads are individually atomic; the set as a whole
// is not a consistent cut (it is a debug surface, not an accounting ledger).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot evaluates func metrics and copies every value out.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	for name, f := range r.funcs {
		if f.counter {
			s.Counters[name] = f.fn()
		} else {
			s.Gauges[name] = f.fn()
		}
	}
	return s
}
