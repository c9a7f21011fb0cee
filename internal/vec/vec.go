// Package vec provides the small 3-vector and spherical-coordinate math used
// throughout the visualization cache simulator: camera placement on the
// spherical exploration domain Ω, the angular visibility test of the paper's
// Eq. (1), and jitter sampling inside vicinal spheres φ.
package vec

import (
	"fmt"
	"math"
)

// V3 is a 3-component vector of float64. It is used both for points and for
// directions; the zero value is the origin.
type V3 struct {
	X, Y, Z float64
}

// New returns the vector (x, y, z).
func New(x, y, z float64) V3 { return V3{X: x, Y: y, Z: z} }

// Add returns v + w.
func (v V3) Add(w V3) V3 { return V3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v V3) Sub(w V3) V3 { return V3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v V3) Scale(s float64) V3 { return V3{s * v.X, s * v.Y, s * v.Z} }

// Neg returns -v.
func (v V3) Neg() V3 { return V3{-v.X, -v.Y, -v.Z} }

// Dot returns the inner product v·w.
func (v V3) Dot(w V3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v×w.
func (v V3) Cross(w V3) V3 {
	return V3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean (L2) length of v.
func (v V3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// norm2 returns the squared Euclidean length of v.
func (v V3) norm2() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between points v and w.
func (v V3) Dist(w V3) float64 { return v.Sub(w).Norm() }

// Unit returns v scaled to unit length. The zero vector is returned
// unchanged so callers never divide by zero.
func (v V3) Unit() V3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// lerp linearly interpolates between v (t=0) and w (t=1).
func (v V3) lerp(w V3, t float64) V3 {
	return V3{
		v.X + t*(w.X-v.X),
		v.Y + t*(w.Y-v.Y),
		v.Z + t*(w.Z-v.Z),
	}
}

// mul returns the component-wise product of v and w.
func (v V3) mul(w V3) V3 { return V3{v.X * w.X, v.Y * w.Y, v.Z * w.Z} }

// min returns the component-wise minimum of v and w.
func (v V3) min(w V3) V3 {
	return V3{math.Min(v.X, w.X), math.Min(v.Y, w.Y), math.Min(v.Z, w.Z)}
}

// max returns the component-wise maximum of v and w.
func (v V3) max(w V3) V3 {
	return V3{math.Max(v.X, w.X), math.Max(v.Y, w.Y), math.Max(v.Z, w.Z)}
}

// String implements fmt.Stringer.
func (v V3) String() string { return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z) }

// AngleBetween returns the angle in radians between vectors v and w, in
// [0, π]. It is the φ of the paper's Eq. (1):
//
//	φ = arccos( (v'bᵢ · v'o) / (‖v'bᵢ‖ ‖v'o‖) )
//
// If either vector is zero the angle is defined as 0 (a degenerate block
// corner coincident with the camera is trivially inside any frustum).
func AngleBetween(v, w V3) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 0
	}
	c := v.Dot(w) / (nv * nw)
	// Clamp against floating-point drift before acos.
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return math.Acos(c)
}

// Spherical describes a point by direction and radius relative to an origin:
// azimuth ∈ [0, 2π), elevation ∈ [-π/2, π/2], and radial distance R ≥ 0.
// It is the <l, d> key space of the paper's T_visible table in angular form.
type Spherical struct {
	Azimuth   float64 // angle in the XZ plane from +X, radians
	Elevation float64 // angle from the XZ plane toward +Y, radians
	R         float64 // distance from the origin
}

// FromSpherical converts spherical coordinates to a Cartesian point relative
// to the origin.
func FromSpherical(s Spherical) V3 {
	ce := math.Cos(s.Elevation)
	return V3{
		X: s.R * ce * math.Cos(s.Azimuth),
		Y: s.R * math.Sin(s.Elevation),
		Z: s.R * ce * math.Sin(s.Azimuth),
	}
}

// ToSpherical converts a Cartesian point (relative to the origin) to
// spherical coordinates. The azimuth of points on the Y axis is 0.
func ToSpherical(v V3) Spherical {
	r := v.Norm()
	if r == 0 {
		return Spherical{}
	}
	el := math.Asin(clamp(v.Y/r, -1, 1))
	az := math.Atan2(v.Z, v.X)
	if az < 0 {
		az += 2 * math.Pi
	}
	return Spherical{Azimuth: az, Elevation: el, R: r}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Degrees converts radians to degrees.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// RotateAbout rotates v about the given unit axis by angle radians using
// Rodrigues' rotation formula. The axis need not be normalized; a zero axis
// returns v unchanged.
func RotateAbout(v, axis V3, angle float64) V3 {
	k := axis.Unit()
	if k == (V3{}) {
		return v
	}
	c, s := math.Cos(angle), math.Sin(angle)
	return v.Scale(c).
		Add(k.Cross(v).Scale(s)).
		Add(k.Scale(k.Dot(v) * (1 - c)))
}

// Orthonormal returns two unit vectors that form a right-handed orthonormal
// basis with the (non-zero) input direction d: (u, w) with u ⟂ w ⟂ d.
func Orthonormal(d V3) (u, w V3) {
	d = d.Unit()
	// Pick the helper axis least aligned with d to avoid degeneracy.
	helper := V3{1, 0, 0}
	if math.Abs(d.X) > 0.9 {
		helper = V3{0, 1, 0}
	}
	u = d.Cross(helper).Unit()
	w = d.Cross(u).Unit()
	return u, w
}
