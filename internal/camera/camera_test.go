package camera

import (
	"math"
	"testing"

	"repro/internal/vec"
)

func TestCameraBasics(t *testing.T) {
	c := Camera{Pos: vec.New(0, 0, 4), ViewAngle: vec.Radians(30)}
	if got := c.Distance(); got != 4 {
		t.Errorf("Distance = %g", got)
	}
	dir := c.direction()
	if dir.Dist(vec.New(0, 0, -1)) > 1e-12 {
		t.Errorf("Direction = %v, want (0,0,-1)", dir)
	}
	s := c.spherical()
	if math.Abs(s.R-4) > 1e-12 {
		t.Errorf("Spherical R = %g", s.R)
	}
}

func TestSphericalPathStepAngle(t *testing.T) {
	for _, deg := range []float64{1, 5, 10, 30, 45} {
		p := Spherical(3, deg, 100)
		if p.Len() != 100 {
			t.Fatalf("len = %d", p.Len())
		}
		// All positions stay on the sphere.
		for i, s := range p.Steps {
			if math.Abs(s.Norm()-3) > 1e-9 {
				t.Fatalf("step %d radius %g != 3", i, s.Norm())
			}
		}
		// Mean angular step tracks the requested interval (within 50%:
		// azimuth+elevation combination distorts individual steps).
		mean := p.meanAngularStep()
		if mean < deg*0.4 || mean > deg*2.0 {
			t.Errorf("deg=%g: mean angular step %g out of range", deg, mean)
		}
	}
}

func TestSphericalPathsDifferByInterval(t *testing.T) {
	a := Spherical(3, 1, 200).meanAngularStep()
	b := Spherical(3, 20, 200).meanAngularStep()
	if b <= a {
		t.Errorf("20° path mean step %g <= 1° path %g", b, a)
	}
}

func TestSphericalPathEmpty(t *testing.T) {
	if p := Spherical(3, 5, 0); p.Len() != 0 {
		t.Errorf("len = %d", p.Len())
	}
}

func TestRandomPathBounds(t *testing.T) {
	p := Random(2, 4, 10, 15, 400, 42)
	if p.Len() != 400 {
		t.Fatalf("len = %d", p.Len())
	}
	for i, s := range p.Steps {
		r := s.Norm()
		if r < 2-1e-9 || r > 4+1e-9 {
			t.Fatalf("step %d distance %g out of [2, 4]", i, r)
		}
	}
}

func TestRandomPathAngularStepsInRange(t *testing.T) {
	p := Random(3, 3, 10, 15, 300, 7)
	for i := 1; i < p.Len(); i++ {
		a := p.AngularStep(i)
		if a < 10-0.5 || a > 15+0.5 {
			t.Fatalf("step %d angle %g out of [10, 15]", i, a)
		}
	}
}

func TestRandomPathDeterministic(t *testing.T) {
	a := Random(2, 4, 5, 10, 50, 9)
	b := Random(2, 4, 5, 10, 50, 9)
	c := Random(2, 4, 5, 10, 50, 10)
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] {
			t.Fatal("same seed produced different paths")
		}
	}
	same := true
	for i := range a.Steps {
		if a.Steps[i] != c.Steps[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical paths")
	}
}

func TestRandomPathSwappedBounds(t *testing.T) {
	// rMax < rMin is tolerated by swapping.
	p := Random(4, 2, 5, 10, 20, 3)
	for _, s := range p.Steps {
		r := s.Norm()
		if r < 2-1e-9 || r > 4+1e-9 {
			t.Fatalf("distance %g out of [2, 4]", r)
		}
	}
}

func TestZoomPath(t *testing.T) {
	p := Zoom(vec.New(1, 0, 0), 4, 2, 5)
	if p.Len() != 5 {
		t.Fatalf("len = %d", p.Len())
	}
	if math.Abs(p.Steps[0].Norm()-4) > 1e-12 {
		t.Errorf("first at %g, want 4", p.Steps[0].Norm())
	}
	if math.Abs(p.Steps[4].Norm()-2) > 1e-12 {
		t.Errorf("last at %g, want 2", p.Steps[4].Norm())
	}
	// Monotonically approaching.
	for i := 1; i < p.Len(); i++ {
		if p.Steps[i].Norm() >= p.Steps[i-1].Norm() {
			t.Fatalf("zoom not monotone at %d", i)
		}
	}
	// Zero direction falls back to +X.
	pz := Zoom(vec.V3{}, 4, 2, 3)
	if pz.Steps[0].Y != 0 || pz.Steps[0].Z != 0 {
		t.Errorf("zero-dir fallback = %v", pz.Steps[0])
	}
}

func TestOrbit(t *testing.T) {
	p := Orbit(5, 36)
	if p.Len() != 36 {
		t.Fatalf("len = %d", p.Len())
	}
	for _, s := range p.Steps {
		if math.Abs(s.Norm()-5) > 1e-9 {
			t.Fatalf("orbit radius %g", s.Norm())
		}
		if s.Y != 0 {
			t.Fatalf("orbit left XZ plane: %v", s)
		}
	}
	// 36 steps over 360° → 10° per step.
	if a := p.AngularStep(1); math.Abs(a-10) > 1e-6 {
		t.Errorf("orbit step = %g°, want 10°", a)
	}
}

func TestMaxStepDistance(t *testing.T) {
	p := Path{Steps: []vec.V3{{X: 0}, {X: 1}, {X: 3}, {X: 4}}}
	if got := p.MaxStepDistance(); got != 2 {
		t.Errorf("MaxStepDistance = %g, want 2", got)
	}
	if got := (Path{}).MaxStepDistance(); got != 0 {
		t.Errorf("empty path = %g", got)
	}
}

func TestHeadMotionStructure(t *testing.T) {
	p := HeadMotion(3, 400, 7)
	if p.Len() != 400 {
		t.Fatalf("len = %d", p.Len())
	}
	for i, s := range p.Steps {
		if math.Abs(s.Norm()-3) > 1e-9 {
			t.Fatalf("step %d radius %g", i, s.Norm())
		}
	}
	// The step-size distribution must be bimodal: mostly sub-degree
	// (tremor+pursuit), with a minority of large saccades.
	small, large := 0, 0
	for i := 1; i < p.Len(); i++ {
		a := p.AngularStep(i)
		if a < 2 {
			small++
		}
		if a > 8 {
			large++
		}
	}
	if small < 300 {
		t.Errorf("only %d sub-2° steps; tremor/pursuit missing", small)
	}
	if large < 3 {
		t.Errorf("only %d saccades; jump component missing", large)
	}
}

func TestHeadMotionDeterministic(t *testing.T) {
	a := HeadMotion(3, 100, 5)
	b := HeadMotion(3, 100, 5)
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] {
			t.Fatal("same-seed head motion differs")
		}
	}
	if p := HeadMotion(3, 0, 5); p.Len() != 0 {
		t.Error("zero steps should be empty")
	}
}

func TestAngularStepEdgeCases(t *testing.T) {
	p := Orbit(3, 10)
	if p.AngularStep(0) != 0 {
		t.Error("step 0 should be 0")
	}
	if p.AngularStep(100) != 0 {
		t.Error("out-of-range step should be 0")
	}
	if (Path{}).meanAngularStep() != 0 {
		t.Error("empty mean should be 0")
	}
}
