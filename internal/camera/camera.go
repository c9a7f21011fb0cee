// Package camera models the interactive exploration geometry of the paper:
// a camera moving inside the spherical domain Ω that encloses the volume Γ,
// always looking at the shared center o, with a conical view frustum of full
// view angle θ. It also generates the two camera-path families of the
// evaluation (§V-A): spherical paths with a fixed degree interval per step
// and random paths with bounded random degree changes and varying distance.
package camera

import (
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/vec"
)

// Camera is a view point looking at the volume center (the origin).
type Camera struct {
	// Pos is the camera position in world coordinates.
	Pos vec.V3
	// ViewAngle is the full cone angle θ of the frustum, radians.
	ViewAngle float64
}

// direction returns the unit view direction l = vo (toward the origin).
func (c Camera) direction() vec.V3 { return c.Pos.Neg().Unit() }

// Distance returns d = ‖vo‖, the camera's distance from the center.
func (c Camera) Distance() float64 { return c.Pos.Norm() }

// spherical returns the camera position in the <l, d> key space of
// T_visible: direction angles plus distance.
func (c Camera) spherical() vec.Spherical { return vec.ToSpherical(c.Pos) }

// Path is a sequence of camera positions along an exploration trajectory.
type Path struct {
	Name  string
	Steps []vec.V3
}

// Len returns the number of view points on the path.
func (p Path) Len() int { return len(p.Steps) }

// MaxStepDistance returns the largest Euclidean distance between successive
// view points — the lower bound the paper imposes on the vicinal radius r.
func (p Path) MaxStepDistance() float64 {
	var max float64
	for i := 1; i < len(p.Steps); i++ {
		if d := p.Steps[i].Dist(p.Steps[i-1]); d > max {
			max = d
		}
	}
	return max
}

// Spherical returns a path on the sphere of the given radius where each step
// rotates the camera by stepDeg degrees. The trajectory precesses slowly in
// elevation so long paths sweep the sphere instead of retracing a single
// great circle, matching the paper's "spherical path with different degree
// intervals for camera positions".
func Spherical(radius, stepDeg float64, steps int) Path {
	p := Path{Name: fmt.Sprintf("spherical-%gdeg", stepDeg)}
	if steps <= 0 {
		return p
	}
	p.Steps = make([]vec.V3, 0, steps)
	az, el := 0.0, 0.0
	step := vec.Radians(stepDeg)
	for i := 0; i < steps; i++ {
		p.Steps = append(p.Steps, vec.FromSpherical(vec.Spherical{
			Azimuth:   az,
			Elevation: el,
			R:         radius,
		}))
		// Advance mostly in azimuth with a slow elevation precession; the
		// combined angular velocity stays ≈ step.
		az = math.Mod(az+step*0.96, 2*math.Pi)
		el = (math.Pi / 3) * math.Sin(float64(i+1)*step*0.28)
	}
	return p
}

// Random returns a random exploration path of the kind the paper evaluates:
// each step turns the view direction by a uniformly random angle within
// [degLo, degHi] degrees about a random axis, and the view distance walks
// randomly within [rMin, rMax]. The generator is deterministic in seed.
func Random(rMin, rMax, degLo, degHi float64, steps int, seed uint64) Path {
	p := Path{Name: fmt.Sprintf("random-%g-%gdeg", degLo, degHi)}
	if steps <= 0 {
		return p
	}
	if rMax < rMin {
		rMin, rMax = rMax, rMin
	}
	rng := field.NewRand(seed)
	p.Steps = make([]vec.V3, 0, steps)
	dir := vec.New(1, 0, 0)
	dist := (rMin + rMax) / 2
	for i := 0; i < steps; i++ {
		p.Steps = append(p.Steps, dir.Scale(dist))
		// Turn about a random axis perpendicular to the current direction.
		u, w := vec.Orthonormal(dir)
		phi := rng.Range(0, 2*math.Pi)
		axis := u.Scale(math.Cos(phi)).Add(w.Scale(math.Sin(phi)))
		turn := vec.Radians(rng.Range(degLo, degHi))
		dir = vec.RotateAbout(dir, axis, turn).Unit()
		// Random walk in distance, reflected at the bounds.
		if rMax > rMin {
			dist += rng.Range(-0.05, 0.05) * (rMax - rMin)
			if dist < rMin {
				dist = 2*rMin - dist
			}
			if dist > rMax {
				dist = 2*rMax - dist
			}
			if dist < rMin {
				dist = rMin
			}
		}
	}
	return p
}

// Zoom returns a path that flies from far to near along a fixed direction —
// the zoom-in interaction of the paper's Fig. 1(b), which exercises the
// distance-dependent optimal radius of Eq. (6).
func Zoom(dir vec.V3, rFar, rNear float64, steps int) Path {
	p := Path{Name: "zoom"}
	if steps <= 0 {
		return p
	}
	d := dir.Unit()
	if d == (vec.V3{}) {
		d = vec.New(1, 0, 0)
	}
	p.Steps = make([]vec.V3, 0, steps)
	for i := 0; i < steps; i++ {
		t := 0.0
		if steps > 1 {
			t = float64(i) / float64(steps-1)
		}
		r := rFar + t*(rNear-rFar)
		p.Steps = append(p.Steps, d.Scale(r))
	}
	return p
}

// Orbit returns a single great-circle orbit in the XZ plane at the given
// radius — the simplest repeatable test path.
func Orbit(radius float64, steps int) Path {
	p := Path{Name: "orbit"}
	for i := 0; i < steps; i++ {
		a := 2 * math.Pi * float64(i) / float64(steps)
		p.Steps = append(p.Steps, vec.New(radius*math.Cos(a), 0, radius*math.Sin(a)))
	}
	return p
}

// HeadMotion models a head-mounted-display exploration, the paper's §VI
// future-work use case: slow smooth pursuit punctuated by rapid saccades,
// with continuous small-amplitude tremor. Compared to the evaluation's
// paths it mixes long runs of sub-degree steps with occasional multi-degree
// jumps, stressing both the caching (tremor revisits) and the prediction
// (saccade jumps). Deterministic in seed.
func HeadMotion(radius float64, steps int, seed uint64) Path {
	p := Path{Name: "head-motion"}
	if steps <= 0 {
		return p
	}
	rng := field.NewRand(seed)
	p.Steps = make([]vec.V3, 0, steps)
	dir := vec.New(1, 0, 0)
	// Pursuit state: a slowly drifting target direction.
	pursuitAxisPhi := rng.Range(0, 2*math.Pi)
	stepsToSaccade := 20 + rng.Intn(40)
	for i := 0; i < steps; i++ {
		p.Steps = append(p.Steps, dir.Scale(radius))
		u, w := vec.Orthonormal(dir)
		// Tremor: ~0.2° in a random direction every step.
		tremorPhi := rng.Range(0, 2*math.Pi)
		tremorAxis := u.Scale(math.Cos(tremorPhi)).Add(w.Scale(math.Sin(tremorPhi)))
		dir = vec.RotateAbout(dir, tremorAxis, vec.Radians(rng.Range(0.05, 0.35)))
		// Pursuit: ~0.5°/step about a slowly precessing axis.
		pursuitAxis := u.Scale(math.Cos(pursuitAxisPhi)).Add(w.Scale(math.Sin(pursuitAxisPhi)))
		dir = vec.RotateAbout(dir, pursuitAxis, vec.Radians(0.5))
		pursuitAxisPhi += rng.Range(-0.05, 0.05)
		// Saccade: a 10–25° jump every few dozen steps.
		stepsToSaccade--
		if stepsToSaccade <= 0 {
			sacPhi := rng.Range(0, 2*math.Pi)
			sacAxis := u.Scale(math.Cos(sacPhi)).Add(w.Scale(math.Sin(sacPhi)))
			dir = vec.RotateAbout(dir, sacAxis, vec.Radians(rng.Range(10, 25)))
			stepsToSaccade = 20 + rng.Intn(40)
		}
		dir = dir.Unit()
	}
	return p
}

// AngularStep returns the angle in degrees between successive view
// directions at step i (0 for the first step).
func (p Path) AngularStep(i int) float64 {
	if i <= 0 || i >= len(p.Steps) {
		return 0
	}
	return vec.Degrees(vec.AngleBetween(p.Steps[i-1], p.Steps[i]))
}

// meanAngularStep returns the average per-step view-direction change in
// degrees over the whole path.
func (p Path) meanAngularStep() float64 {
	if len(p.Steps) < 2 {
		return 0
	}
	var sum float64
	for i := 1; i < len(p.Steps); i++ {
		sum += p.AngularStep(i)
	}
	return sum / float64(len(p.Steps)-1)
}
