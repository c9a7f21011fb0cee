package radius

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func TestOptimalSatisfiesVolumeModel(t *testing.T) {
	// Eq. (6) is derived by setting V(ζ)/8 = ρ. Plugging the optimal r back
	// into the closed-form frustum volume must recover 8ρ.
	// Parameters are chosen inside Eq. (6)'s positive region: r > 0 requires
	// sqrt(4ρ/π − tan²(θ/2)/3) > d·tan(θ/2), i.e. the bare frustum at
	// distance d must fit the cache before the vicinal dilation.
	cases := []struct {
		thetaDeg, d, ratio float64
	}{
		{30, 1.5, 0.25},
		{30, 2.0, 0.25},
		{45, 1.4, 0.35},
		{20, 2.0, 0.125},
		{60, 1.2, 0.5},
	}
	for _, c := range cases {
		theta := vec.Radians(c.thetaDeg)
		r := Optimal(theta, c.d, c.ratio)
		if r <= 0 {
			t.Errorf("θ=%g° d=%g ρ=%g: r = %g, want > 0", c.thetaDeg, c.d, c.ratio, r)
			continue
		}
		v := aggregateFrustumVolume(theta, c.d, r)
		if math.Abs(v-8*c.ratio) > 1e-9 {
			t.Errorf("θ=%g° d=%g ρ=%g: V(ζ) = %g, want %g", c.thetaDeg, c.d, c.ratio, v, 8*c.ratio)
		}
	}
}

func TestOptimalDecreasesWithDistance(t *testing.T) {
	// The farther the camera, the larger the frustum cross-section, so the
	// vicinal radius must shrink to keep the aggregated frustum in cache.
	theta := vec.Radians(30)
	prev := math.Inf(1)
	for d := 1.2; d <= 1.9; d += 0.1 {
		r := Optimal(theta, d, 0.25)
		if r <= 0 {
			t.Fatalf("r(%g) = %g, expected positive in this range", d, r)
		}
		if r >= prev {
			t.Errorf("r(%g) = %g >= r at closer distance %g", d, r, prev)
		}
		prev = r
	}
}

func TestOptimalGrowsWithCacheRatio(t *testing.T) {
	theta := vec.Radians(30)
	r1 := Optimal(theta, 2, 0.25)
	r2 := Optimal(theta, 2, 0.5)
	if r2 <= r1 {
		t.Errorf("bigger cache should allow bigger radius: %g <= %g", r2, r1)
	}
}

func TestOptimalDegenerateCases(t *testing.T) {
	// Negative discriminant: huge view angle, tiny cache.
	if r := Optimal(vec.Radians(170), 2, 0.01); r != 0 {
		t.Errorf("degenerate discriminant r = %g, want 0", r)
	}
	// Camera too far for positive r.
	if r := Optimal(vec.Radians(30), 100, 0.25); r != 0 {
		t.Errorf("too-far camera r = %g, want 0", r)
	}
}

func TestFixedStrategy(t *testing.T) {
	f := Fixed(0.075)
	if got := f.Radius(1.0, 3.0); got != 0.075 {
		t.Errorf("Fixed.Radius = %g", got)
	}
	if f.Name() != "fixed-0.075" {
		t.Errorf("Name = %q", f.Name())
	}
}

func TestDynamicStrategyFloor(t *testing.T) {
	d := Dynamic{Ratio: 0.25, Min: 0.05}
	theta := vec.Radians(30)
	// Near: optimal radius above the floor → returned as-is.
	if got, want := d.Radius(theta, 1.5), Optimal(theta, 1.5, 0.25); got != want {
		t.Errorf("Radius = %g, want %g", got, want)
	}
	// Far: optimal would be 0 → the floor applies.
	if got := d.Radius(theta, 100); got != 0.05 {
		t.Errorf("floored Radius = %g, want 0.05", got)
	}
	if d.Name() == "" {
		t.Error("empty Name")
	}
}

func TestAggregateFrustumVolumeMonotoneInR(t *testing.T) {
	theta := vec.Radians(30)
	prev := 0.0
	for r := 0.0; r <= 0.5; r += 0.05 {
		v := aggregateFrustumVolume(theta, 2.5, r)
		if v < prev {
			t.Errorf("volume not monotone at r=%g: %g < %g", r, v, prev)
		}
		prev = v
	}
}

func TestAggregateFrustumVolumeNearPlaneClamp(t *testing.T) {
	// d < 1 puts the near plane behind the apex; h' clamps to 0 and the
	// volume stays finite and positive.
	v := aggregateFrustumVolume(vec.Radians(30), 0.5, 0.1)
	if v <= 0 || math.IsNaN(v) {
		t.Errorf("clamped volume = %g", v)
	}
	// Zero view angle has zero volume.
	if v := aggregateFrustumVolume(0, 2, 0.1); v != 0 {
		t.Errorf("zero-angle volume = %g", v)
	}
}

func TestPaperFixedRadii(t *testing.T) {
	got := PaperFixedRadii()
	want := []float64{0.1, 0.075, 0.05, 0.025}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// Property: Optimal is non-negative and satisfies the volume equation
// whenever positive.
func TestOptimalVolumeProperty(t *testing.T) {
	f := func(thetaDeg, d, ratio float64) bool {
		thetaDeg = 5 + math.Mod(math.Abs(thetaDeg), 85)
		d = 1.2 + math.Mod(math.Abs(d), 5)
		ratio = 0.05 + math.Mod(math.Abs(ratio), 0.9)
		theta := vec.Radians(thetaDeg)
		r := Optimal(theta, d, ratio)
		if r < 0 {
			return false
		}
		if r == 0 {
			return true
		}
		v := aggregateFrustumVolume(theta, d, r)
		return math.Abs(v-8*ratio) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
