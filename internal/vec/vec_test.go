package vec

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func v3AlmostEq(a, b V3) bool {
	return almostEq(a.X, b.X) && almostEq(a.Y, b.Y) && almostEq(a.Z, b.Z)
}

func TestAddSubScale(t *testing.T) {
	a := New(1, 2, 3)
	b := New(-4, 5, 0.5)
	if got := a.Add(b); got != (V3{-3, 7, 3.5}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (V3{5, -3, 2.5}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (V3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Neg(); got != (V3{-1, -2, -3}) {
		t.Errorf("Neg = %v", got)
	}
}

func TestDotCross(t *testing.T) {
	x := New(1, 0, 0)
	y := New(0, 1, 0)
	z := New(0, 0, 1)
	if got := x.Dot(y); got != 0 {
		t.Errorf("x·y = %g, want 0", got)
	}
	if got := x.Cross(y); got != z {
		t.Errorf("x×y = %v, want %v", got, z)
	}
	if got := y.Cross(z); got != x {
		t.Errorf("y×z = %v, want %v", got, x)
	}
	if got := z.Cross(x); got != y {
		t.Errorf("z×x = %v, want %v", got, y)
	}
}

func TestNormUnit(t *testing.T) {
	v := New(3, 4, 0)
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %g, want 5", got)
	}
	if got := v.norm2(); got != 25 {
		t.Errorf("Norm2 = %g, want 25", got)
	}
	u := v.Unit()
	if !almostEq(u.Norm(), 1) {
		t.Errorf("Unit().Norm() = %g, want 1", u.Norm())
	}
	if got := (V3{}).Unit(); got != (V3{}) {
		t.Errorf("zero.Unit() = %v, want zero", got)
	}
}

func TestDistLerp(t *testing.T) {
	a := New(0, 0, 0)
	b := New(2, 0, 0)
	if got := a.Dist(b); got != 2 {
		t.Errorf("Dist = %g", got)
	}
	if got := a.lerp(b, 0.5); got != (V3{1, 0, 0}) {
		t.Errorf("Lerp = %v", got)
	}
	if got := a.lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
}

func TestMinMaxMul(t *testing.T) {
	a := New(1, 5, -2)
	b := New(3, 2, -1)
	if got := a.min(b); got != (V3{1, 2, -2}) {
		t.Errorf("Min = %v", got)
	}
	if got := a.max(b); got != (V3{3, 5, -1}) {
		t.Errorf("Max = %v", got)
	}
	if got := a.mul(b); got != (V3{3, 10, 2}) {
		t.Errorf("Mul = %v", got)
	}
}

func TestAngleBetween(t *testing.T) {
	x := New(1, 0, 0)
	y := New(0, 1, 0)
	cases := []struct {
		a, b V3
		want float64
	}{
		{x, x, 0},
		{x, y, math.Pi / 2},
		{x, x.Neg(), math.Pi},
		{x, New(1, 1, 0), math.Pi / 4},
		{V3{}, x, 0}, // degenerate: zero vector
	}
	for _, c := range cases {
		if got := AngleBetween(c.a, c.b); !almostEq(got, c.want) {
			t.Errorf("AngleBetween(%v, %v) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestAngleBetweenClampsRoundoff(t *testing.T) {
	// Two nearly identical vectors whose normalized dot product can exceed 1
	// by floating-point error must not produce NaN.
	a := New(1e-8, 1e-8, 1e-8)
	b := New(2e-8, 2e-8, 2e-8)
	if got := AngleBetween(a, b); math.IsNaN(got) || got > 1e-6 {
		t.Errorf("AngleBetween nearly-parallel = %g, want ~0", got)
	}
}

func TestSphericalRoundTrip(t *testing.T) {
	pts := []V3{
		{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
		{-1, 0, 0}, {0, -1, 0}, {0, 0, -1},
		{1, 2, 3}, {-4, 0.5, 2},
	}
	for _, p := range pts {
		s := ToSpherical(p)
		back := FromSpherical(s)
		if !v3AlmostEq(p, back) {
			t.Errorf("round trip %v -> %+v -> %v", p, s, back)
		}
	}
}

func TestToSphericalZero(t *testing.T) {
	if got := ToSpherical(V3{}); got != (Spherical{}) {
		t.Errorf("ToSpherical(0) = %+v", got)
	}
}

func TestSphericalAzimuthRange(t *testing.T) {
	// Azimuth must be normalized into [0, 2π).
	s := ToSpherical(New(1, 0, -1)) // atan2(-1, 1) < 0 before normalization
	if s.Azimuth < 0 || s.Azimuth >= 2*math.Pi {
		t.Errorf("azimuth %g out of [0, 2π)", s.Azimuth)
	}
}

func TestDegreesRadians(t *testing.T) {
	if got := Degrees(math.Pi); got != 180 {
		t.Errorf("Degrees(π) = %g", got)
	}
	if got := Radians(90); !almostEq(got, math.Pi/2) {
		t.Errorf("Radians(90) = %g", got)
	}
}

func TestRotateAbout(t *testing.T) {
	x := New(1, 0, 0)
	z := New(0, 0, 1)
	got := RotateAbout(x, z, math.Pi/2)
	if !v3AlmostEq(got, New(0, 1, 0)) {
		t.Errorf("rotate x about z by 90° = %v, want (0,1,0)", got)
	}
	// Rotation about a zero axis is the identity.
	if got := RotateAbout(x, V3{}, 1); got != x {
		t.Errorf("rotate about zero axis = %v, want %v", got, x)
	}
	// Rotating a vector about itself is the identity.
	if got := RotateAbout(z, z, 1.234); !v3AlmostEq(got, z) {
		t.Errorf("rotate z about z = %v, want %v", got, z)
	}
}

func TestOrthonormal(t *testing.T) {
	dirs := []V3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}, {-2, 0.1, 5}, {0.95, 0.1, 0}}
	for _, d := range dirs {
		u, w := Orthonormal(d)
		if !almostEq(u.Norm(), 1) || !almostEq(w.Norm(), 1) {
			t.Errorf("Orthonormal(%v): non-unit basis %v %v", d, u, w)
		}
		du := d.Unit()
		if math.Abs(du.Dot(u)) > 1e-9 || math.Abs(du.Dot(w)) > 1e-9 || math.Abs(u.Dot(w)) > 1e-9 {
			t.Errorf("Orthonormal(%v): basis not orthogonal", d)
		}
	}
}

// Property: rotation preserves vector length.
func TestRotatePreservesNormProperty(t *testing.T) {
	f := func(vx, vy, vz, ax, ay, az, angle float64) bool {
		v := New(math.Mod(vx, 100), math.Mod(vy, 100), math.Mod(vz, 100))
		axis := New(ax, ay, az)
		r := RotateAbout(v, axis, angle)
		return math.Abs(r.Norm()-v.Norm()) < 1e-6*(1+v.Norm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ToSpherical/FromSpherical round-trips for all finite inputs.
func TestSphericalRoundTripProperty(t *testing.T) {
	f := func(x, y, z float64) bool {
		v := New(math.Mod(x, 1000), math.Mod(y, 1000), math.Mod(z, 1000))
		back := FromSpherical(ToSpherical(v))
		return back.Dist(v) < 1e-6*(1+v.Norm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the triangle inequality holds for Dist.
func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, cx, cy, cz float64) bool {
		a := New(math.Mod(ax, 1e6), math.Mod(ay, 1e6), math.Mod(az, 1e6))
		b := New(math.Mod(bx, 1e6), math.Mod(by, 1e6), math.Mod(bz, 1e6))
		c := New(math.Mod(cx, 1e6), math.Mod(cy, 1e6), math.Mod(cz, 1e6))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+eps+1e-6*(a.Norm()+b.Norm()+c.Norm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dot is symmetric and bilinear in the first argument.
func TestDotSymmetryProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := New(math.Mod(ax, 1e3), math.Mod(ay, 1e3), math.Mod(az, 1e3))
		b := New(math.Mod(bx, 1e3), math.Mod(by, 1e3), math.Mod(bz, 1e3))
		return a.Dot(b) == b.Dot(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	if got := New(1, 2.5, -3).String(); got != "(1, 2.5, -3)" {
		t.Errorf("String = %q", got)
	}
}
