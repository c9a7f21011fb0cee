package camera

import (
	"math"
	"testing"

	"repro/internal/vec"
)

// feed runs the trace through a fresh predictor and returns it.
func feed(trace []vec.V3) *Predictor {
	p := NewPredictor()
	for _, pos := range trace {
		p.Observe(pos)
	}
	return p
}

// TestPredictOrbitWithinEpsilon: on every constant-angular-velocity orbit —
// the great-circle Orbit path, the precessing Spherical path held to one
// step pair, and tilted orbits about arbitrary axes — the predictor must
// hit the true next position to within a small fraction of the step length.
func TestPredictOrbitWithinEpsilon(t *testing.T) {
	const steps = 24
	orbits := map[string]Path{
		"orbit-xz": Orbit(3, steps),
	}
	// Tilted constant-velocity orbits: rotate the XZ orbit about X.
	for _, tilt := range []float64{30, 60} {
		p := Path{Name: "tilted"}
		for _, s := range Orbit(2.8, steps).Steps {
			p.Steps = append(p.Steps, vec.RotateAbout(s, vec.New(1, 0, 0), vec.Radians(tilt)))
		}
		orbits[p.Name+"-"+string(rune('0'+int(tilt/30)))] = p
	}
	for name, path := range orbits {
		stepLen := path.Steps[0].Dist(path.Steps[1])
		eps := 1e-6 * stepLen
		for i := 3; i < path.Len(); i++ {
			p := feed(path.Steps[:i])
			got, kind := p.Predict()
			if kind != PredictAngular {
				t.Fatalf("%s step %d: kind = %v, want angular", name, i, kind)
			}
			if d := got.Dist(path.Steps[i]); d > eps {
				t.Errorf("%s step %d: predicted %v, true %v (off by %g, eps %g)",
					name, i, got, path.Steps[i], d, eps)
			}
		}
	}
}

// TestPredictZoomExact: radial motion at constant speed (the Zoom path) is
// exactly extrapolated too — the angular model's zero-rotation case.
func TestPredictZoomExact(t *testing.T) {
	path := Zoom(vec.New(1, 2, -1), 3.4, 2.6, 16)
	for i := 3; i < path.Len(); i++ {
		p := feed(path.Steps[:i])
		got, _ := p.Predict()
		if d := got.Dist(path.Steps[i]); d > 1e-9 {
			t.Errorf("step %d: predicted %v, true %v (off by %g)", i, got, path.Steps[i], d)
		}
	}
}

// TestPredictStraightLine: a constant-velocity fly-through that does not
// pass through the origin must be handled by the linear model exactly —
// the backtest has to prefer it over the angular fit.
func TestPredictStraightLine(t *testing.T) {
	start, v := vec.New(-3, 0.5, 1), vec.New(0.4, 0.05, -0.1)
	var trace []vec.V3
	for i := 0; i < 12; i++ {
		trace = append(trace, start.Add(v.Scale(float64(i))))
	}
	for i := 3; i < len(trace); i++ {
		p := feed(trace[:i])
		got, kind := p.Predict()
		if kind != PredictLinear {
			t.Fatalf("step %d: kind = %v, want linear", i, kind)
		}
		if d := got.Dist(trace[i]); d > 1e-9 {
			t.Errorf("step %d: predicted %v, true %v (off by %g)", i, got, trace[i], d)
		}
	}
}

// TestPredictDwellCollapses: a hovering camera — identical positions, or
// tremor well inside the dwell radius — must predict the current position
// itself, not an extrapolation of the tremor.
func TestPredictDwellCollapses(t *testing.T) {
	base := vec.New(0, 0, 3)
	exact := []vec.V3{base, base, base, base}
	p := feed(exact)
	got, kind := p.Predict()
	if kind != PredictDwell || got != base {
		t.Errorf("exact dwell: got %v kind %v, want %v dwell", got, kind, base)
	}

	// Tremor: jitter at 1/10 of the default dwell radius.
	jitter := 0.1 * 0.02 * base.Norm()
	tremor := []vec.V3{
		base.Add(vec.New(jitter, 0, 0)),
		base.Add(vec.New(0, -jitter, 0)),
		base.Add(vec.New(0, 0, jitter)),
		base,
	}
	p = feed(tremor)
	got, kind = p.Predict()
	if kind != PredictDwell || got != base {
		t.Errorf("tremor dwell: got %v kind %v, want %v dwell", got, kind, base)
	}
}

// TestPredictSingleSampleDegrades: with a one-sample history the prediction
// must be the sample itself — the nearest-sample behavior a predictor-less
// server has today — so sparse view updates cannot regress prefetch.
func TestPredictSingleSampleDegrades(t *testing.T) {
	pos := vec.New(1.5, -2, 0.5)
	p := feed([]vec.V3{pos})
	got, kind := p.Predict()
	if kind != PredictLast || got != pos {
		t.Errorf("single sample: got %v kind %v, want %v last", got, kind, pos)
	}

	// And an empty history predicts the origin without panicking.
	empty := NewPredictor()
	if got, kind := empty.Predict(); kind != PredictLast || got != (vec.V3{}) {
		t.Errorf("empty history: got %v kind %v", got, kind)
	}
}

// TestPredictRingEvicts: the ring holds history samples; older ones stop
// influencing the fit. After a long dwell followed by history fresh moving
// samples, the dwell must no longer pin the prediction.
func TestPredictRingEvicts(t *testing.T) {
	p := NewPredictor()
	still := vec.New(3, 0, 0)
	for i := 0; i < 10; i++ {
		p.Observe(still)
	}
	orbit := Orbit(3, 24)
	for _, pos := range orbit.Steps[:history] {
		p.Observe(pos)
	}
	got, kind := p.Predict()
	if kind != PredictAngular {
		t.Fatalf("kind = %v, want angular after the dwell samples rolled out", kind)
	}
	if d := got.Dist(orbit.Steps[history]); d > 1e-6 {
		t.Errorf("predicted %v, true %v (off by %g)", got, orbit.Steps[history], d)
	}
	if p.len() != history {
		t.Errorf("Len = %d, want %d", p.len(), history)
	}
	p.reset()
	if p.len() != 0 {
		t.Errorf("Len = %d after Reset, want 0", p.len())
	}
}

// TestPredictDegenerateGeometry: origins and antipodal pairs must fall back
// cleanly instead of producing NaNs.
func TestPredictDegenerateGeometry(t *testing.T) {
	cases := map[string][]vec.V3{
		"through-origin": {vec.New(-1, 0, 0), vec.V3{}, vec.New(1, 0, 0)},
		"antipodal":      {vec.New(2, 0, 0), vec.New(-2, 0, 0)},
		"from-origin":    {vec.V3{}, vec.New(1, 1, 1)},
	}
	for name, trace := range cases {
		got, kind := feed(trace).Predict()
		for _, v := range []float64{got.X, got.Y, got.Z} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: non-finite prediction %v (kind %v)", name, got, kind)
			}
		}
	}
}
