// Trajectory prediction: where is the camera going? The paper's T_visible
// prefetch answers "what is visible near this position"; the predictor
// answers the question one step earlier, extrapolating the camera's recent
// motion so prefetch can warm the blocks of the position the camera is
// *about to* occupy instead of the one it just left. Motion in the
// exploration domain Ω is orbit-like (the camera always looks at the shared
// center o), so alongside plain linear extrapolation the predictor fits a
// spherical model — constant angular velocity about o plus a linear radial
// rate — and picks whichever model back-tests better on the recent history.
package camera

import "repro/internal/vec"

// PredictKind labels which model produced a prediction, for observability.
type PredictKind uint8

const (
	// PredictLast: fewer than two samples — the prediction degrades to the
	// last observed position, i.e. exactly the nearest-sample behavior of a
	// predictor-less server.
	PredictLast PredictKind = iota
	// PredictDwell: the camera is hovering; prediction collapses to the
	// current position so prefetch keeps warming the scene being studied.
	PredictDwell
	// PredictLinear: straight-line constant-velocity extrapolation.
	PredictLinear
	// PredictAngular: constant angular velocity about the domain center
	// with a linear radial rate (orbit / zoom motion).
	PredictAngular
)

// String implements fmt.Stringer for logs and test failures.
func (k PredictKind) String() string {
	switch k {
	case PredictDwell:
		return "dwell"
	case PredictLinear:
		return "linear"
	case PredictAngular:
		return "angular"
	default:
		return "last"
	}
}

const (
	// history is the number of recent view positions a Predictor retains.
	// Short on purpose: navigation intent changes in a few frames, and stale
	// samples drag the fit behind a turn.
	history = 4
	// horizon is how many view-update intervals ahead a prediction lies: the
	// next view position.
	horizon = 1
	// dwellFraction is the dwell detector's threshold: when every retained
	// sample lies within dwellFraction×‖pos‖ of the current position the
	// camera is judged to be hovering and the prediction collapses to the
	// current position.
	dwellFraction = 0.02
)

// Predictor extrapolates a camera trajectory from a short ring of recent
// view positions. Not safe for concurrent use; each session owns one.
type Predictor struct {
	ring [history]vec.V3
	head int // index of the oldest sample
	n    int // samples held, ≤ len(ring)
}

// NewPredictor returns a predictor with an empty history.
func NewPredictor() *Predictor { return &Predictor{} }

// Observe appends a view position to the history, evicting the oldest
// sample once the ring is full.
func (p *Predictor) Observe(pos vec.V3) {
	if p.n < len(p.ring) {
		p.ring[(p.head+p.n)%len(p.ring)] = pos
		p.n++
		return
	}
	p.ring[p.head] = pos
	p.head = (p.head + 1) % len(p.ring)
}

// len returns the number of samples currently held.
func (p *Predictor) len() int { return p.n }

// reset drops the history (e.g. after a teleport the caller detected).
func (p *Predictor) reset() { p.head, p.n = 0, 0 }

// at returns the i-th retained sample, 0 = oldest.
func (p *Predictor) at(i int) vec.V3 { return p.ring[(p.head+i)%len(p.ring)] }

// Predict extrapolates the view position horizon steps ahead and
// reports which model produced it. With fewer than two samples it returns
// the last observed position (the nearest-sample behavior); a hovering
// camera collapses to the current position.
func (p *Predictor) Predict() (vec.V3, PredictKind) {
	if p.n == 0 {
		return vec.V3{}, PredictLast
	}
	cur := p.at(p.n - 1)
	if p.n == 1 {
		return cur, PredictLast
	}
	if p.dwelling(cur) {
		return cur, PredictDwell
	}
	prev := p.at(p.n - 2)
	angular := p.n == 2 || p.angularBacktestsBetter()
	if angular {
		if pos, ok := extrapolateAngular(prev, cur, horizon); ok {
			return pos, PredictAngular
		}
	}
	return extrapolateLinear(prev, cur, horizon), PredictLinear
}

// dwelling reports whether every retained sample lies within the dwell
// radius of the current position.
func (p *Predictor) dwelling(cur vec.V3) bool {
	r := dwellFraction * cur.Norm()
	for i := 0; i < p.n-1; i++ {
		if p.at(i).Dist(cur) > r {
			return false
		}
	}
	return true
}

// angularBacktestsBetter replays the two models over the oldest step pair
// and reports whether the angular model predicted the latest sample at
// least as well as the linear one. Ties go to the angular model — the
// domain prior is orbit-like motion about the center.
func (p *Predictor) angularBacktestsBetter() bool {
	a, b, want := p.at(p.n-3), p.at(p.n-2), p.at(p.n-1)
	ang, ok := extrapolateAngular(a, b, 1)
	if !ok {
		return false
	}
	return ang.Dist(want) <= extrapolateLinear(a, b, 1).Dist(want)
}

// extrapolateLinear continues the straight line through a then b for h more
// steps of the same length.
func extrapolateLinear(a, b vec.V3, h float64) vec.V3 {
	return b.Add(b.Sub(a).Scale(h))
}

// extrapolateAngular continues the rotation about the origin that carries a
// to b for h more steps, with the radius extrapolated linearly. Reports
// false when either sample sits at the origin (no defined direction) or the
// samples are antipodal (no unique rotation plane).
func extrapolateAngular(a, b vec.V3, h float64) (vec.V3, bool) {
	ra, rb := a.Norm(), b.Norm()
	if ra == 0 || rb == 0 {
		return vec.V3{}, false
	}
	axis := a.Cross(b)
	angle := vec.AngleBetween(a, b)
	if axis == (vec.V3{}) && angle != 0 {
		return vec.V3{}, false // antipodal: rotation plane is ambiguous
	}
	dir := b
	if axis != (vec.V3{}) {
		dir = vec.RotateAbout(b, axis, angle*h)
	}
	r := rb + (rb-ra)*h
	if r < 0 {
		r = 0
	}
	return dir.Unit().Scale(r), true
}
