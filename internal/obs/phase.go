package obs

import "time"

// Phase identifies one span of the interactive loop. The paper's frame
// breakdown (and Eq. (6)'s prefetch-radius model) is stated in exactly
// these terms: decide what is visible, wait for demand fetches, render, and
// issue prefetch for the predicted vicinity while rendering proceeds.
type Phase int

const (
	// PhaseVisibility is the camera-to-visible-set computation (caller
	// side: the VisibleSet query before Frame is invoked).
	PhaseVisibility Phase = iota
	// PhaseDemandWait is the span from entering Frame until every visible
	// block's data is in hand (inline hits plus the frame's miss batch).
	PhaseDemandWait
	// PhaseRender is the caller consuming the frame's data.
	PhaseRender
	// PhasePrefetchIssue is prediction plus enqueueing of prefetch work —
	// the part of prefetch that runs on the frame path (execution is
	// asynchronous and deliberately untimed here).
	PhasePrefetchIssue

	numPhases
)

var phaseNames = [numPhases]string{
	"visibility_ns",
	"demand_wait_ns",
	"render_ns",
	"prefetch_issue_ns",
}

// String returns the phase's metric-name suffix.
func (p Phase) String() string {
	if p < 0 || p >= numPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// PhaseTimer owns one latency histogram per frame phase, registered as
// "<prefix>.<phase>_ns". A nil PhaseTimer hands out inert spans.
type PhaseTimer struct {
	h [numPhases]*Histogram
}

// NewPhaseTimer registers the per-phase histograms on r (nil r yields a
// timer whose spans are no-ops).
func NewPhaseTimer(r *Registry, prefix string) *PhaseTimer {
	t := &PhaseTimer{}
	for p := Phase(0); p < numPhases; p++ {
		t.h[p] = r.Histogram(prefix+"."+phaseNames[p], DurationBuckets())
	}
	return t
}

// Span is one in-progress phase measurement. It is a value type: beginning
// and ending a span allocates nothing.
type Span struct {
	h     *Histogram
	start time.Time
}

// Begin starts timing a phase; call End on the returned span.
func (t *PhaseTimer) Begin(p Phase) Span {
	if t == nil || p < 0 || p >= numPhases {
		return Span{}
	}
	return Span{h: t.h[p], start: time.Now()}
}

// End records the span's elapsed time. Safe on a zero Span.
func (s Span) End() {
	if s.h != nil {
		s.h.Observe(time.Since(s.start).Nanoseconds())
	}
}

// observe records an externally measured duration for a phase.
func (t *PhaseTimer) observe(p Phase, d time.Duration) {
	if t == nil || p < 0 || p >= numPhases {
		return
	}
	t.h[p].Observe(d.Nanoseconds())
}

// histogram returns the phase's underlying histogram (nil on a nil timer).
func (t *PhaseTimer) histogram(p Phase) *Histogram {
	if t == nil || p < 0 || p >= numPhases {
		return nil
	}
	return t.h[p]
}
