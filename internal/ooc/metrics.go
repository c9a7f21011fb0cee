package ooc

import "repro/internal/obs"

// counter is one runtime counter: its metric name (DESIGN.md §9) beside the
// Stats field it lives in.
type counter struct {
	name string
	v    *int64
}

// numCounters is the length of the list below; the compiler holds the two
// together.
const numCounters = 13

// counters is the one place the runtime's counters are listed; Stats.add and
// runtimeMetrics' registration, commit and snapshot all walk it, so a new
// counter is a Stats field and a line here. A direct call that only hands
// back pointers into s, so a frame-local Stats stays on the stack.
func (s *Stats) counters() [numCounters]counter {
	return [...]counter{
		{"ooc.frames", &s.Frames},
		{"ooc.demand_reads", &s.DemandReads},
		{"ooc.demand_hits", &s.DemandHits},
		{"ooc.demand_batches", &s.DemandBatches},
		{"ooc.degraded_frames", &s.DegradedFrames},
		{"ooc.failed_reads", &s.FailedReads},
		{"ooc.retries", &s.Retries},
		{"ooc.checksum_errors", &s.ChecksumErrors},
		{"ooc.prefetch_issued", &s.PrefetchIssued},
		{"ooc.prefetch_deduped", &s.PrefetchDeduped},
		{"ooc.prefetch_dropped", &s.PrefetchDropped},
		{"ooc.prefetch_executed", &s.PrefetchExecuted},
		{"ooc.prefetch_failed", &s.PrefetchFailed},
	}
}

// add accumulates d into s.
func (s *Stats) add(d *Stats) {
	from := d.counters()
	for k, c := range s.counters() {
		*c.v += *from[k].v
	}
}

// runtimeMetrics is the registry-backed store for the runtime's Stats plus
// its frame-latency histograms. Handles are resolved once at construction,
// so the hot path commits straight to atomics and never touches the
// registry's map.
type runtimeMetrics struct {
	counters [numCounters]*obs.Counter // in Stats.counters order

	frameNs *obs.Histogram
	phases  *obs.PhaseTimer
}

// newRuntimeMetrics registers the runtime's metrics on reg, or on a private
// registry when reg is nil — instrumentation always runs, so benchmarks
// measure the instrumented frame whether or not a caller wired metrics up.
func newRuntimeMetrics(reg *obs.Registry) *runtimeMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &runtimeMetrics{
		frameNs: reg.Histogram("ooc.frame_ns", obs.DurationBuckets()),
		phases:  obs.NewPhaseTimer(reg, "ooc.phase"),
	}
	for k, c := range new(Stats).counters() {
		m.counters[k] = reg.Counter(c.name)
	}
	return m
}

// commit adds a frame-local delta to the registry counters. Callers hold
// statsMu, so commits and Snapshot reads stay mutually exclusive within one
// runtime. The zero check keeps the common frame (a handful of live fields)
// from paying thirteen atomic adds.
func (m *runtimeMetrics) commit(d *Stats) {
	for k, c := range d.counters() {
		if *c.v != 0 {
			m.counters[k].Add(*c.v)
		}
	}
}

// snapshot reads the counters back into a Stats value; called under statsMu.
func (m *runtimeMetrics) snapshot() Stats {
	var s Stats
	for k, c := range s.counters() {
		*c.v = m.counters[k].Value()
	}
	return s
}
