// Package radius implements the paper's vicinal-radius model (§V-B2): the
// radius r of the small spherical domain φ around each sampling camera
// position. Equation (6) picks r so the aggregated view frustum ζ of all
// positions inside φ exactly fills the fast-memory cache:
//
//	r = sqrt(4ρ/π − tan²(θ/2)/3) − d·tan(θ/2)
//
// where θ is the full view angle, d the camera distance from the volume
// center (volume edge normalized to 2), and ρ the fast/slow cache-size
// ratio. The derivation is verified by TestOptimalSatisfiesVolumeModel
// against the closed-form frustum volume.
package radius

import (
	"fmt"
	"math"
)

// Strategy chooses the vicinal radius for a sampling position.
type Strategy interface {
	// Radius returns r for full view angle theta (radians) and camera
	// distance d from the volume center.
	Radius(theta, d float64) float64
	// Name identifies the strategy in experiment output.
	Name() string
}

// Fixed always returns the same radius, as in the paper's Fig. 11 baseline
// configurations (r ∈ {0.1, 0.075, 0.05, 0.025} of the normalized edge).
type Fixed float64

// Radius implements Strategy.
func (f Fixed) Radius(_, _ float64) float64 { return float64(f) }

// Name implements Strategy.
func (f Fixed) Name() string { return fmt.Sprintf("fixed-%g", float64(f)) }

// Dynamic computes the distance-dependent optimal radius of Eq. (6).
type Dynamic struct {
	// Ratio is ρ, the fast/slow cache-size ratio (e.g. 0.25 when DRAM holds
	// a quarter of the data resident on the slower level).
	Ratio float64
	// Min is a floor on the returned radius; the paper requires r to exceed
	// the distance between successive camera positions so the vicinal area
	// contains the next view point.
	Min float64
}

// Radius implements Strategy. When the Eq. (6) discriminant is negative
// (cache too small for any aggregated frustum at this angle) or the result
// falls below Min, Min is returned.
func (dyn Dynamic) Radius(theta, d float64) float64 {
	r := Optimal(theta, d, dyn.Ratio)
	if r < dyn.Min {
		return dyn.Min
	}
	return r
}

// Name implements Strategy.
func (dyn Dynamic) Name() string { return fmt.Sprintf("optimal-eq6-ρ%g", dyn.Ratio) }

// Optimal evaluates Eq. (6) directly. It returns 0 when the discriminant is
// negative or the camera is so far away that no positive radius satisfies
// the model.
func Optimal(theta, d, ratio float64) float64 {
	t := math.Tan(theta / 2)
	disc := 4*ratio/math.Pi - t*t/3
	if disc <= 0 {
		return 0
	}
	r := math.Sqrt(disc) - d*t
	if r < 0 {
		return 0
	}
	return r
}

// aggregateFrustumVolume returns the volume of the aggregated frustum ζ of
// Fig. 10: the union of view frustums (full angle theta) of all positions
// within radius r of a camera at distance d, truncated between the volume's
// near plane (distance d−1) and far plane (distance d+1) with the edge
// normalized to 2. Used to validate Eq. (6):
//
//	V = (π/3)·tan²(θ/2)·(h³ − h'³),  h = d+1+r/tan(θ/2),  h' = d−1+r/tan(θ/2)
func aggregateFrustumVolume(theta, d, r float64) float64 {
	t := math.Tan(theta / 2)
	if t <= 0 {
		return 0
	}
	h := d + 1 + r/t
	hp := d - 1 + r/t
	if hp < 0 {
		hp = 0
	}
	return math.Pi / 3 * t * t * (h*h*h - hp*hp*hp)
}

// PaperFixedRadii returns the pre-defined radii compared against Eq. (6) in
// Fig. 11, as fractions of the normalized volume edge size.
func PaperFixedRadii() []float64 { return []float64{0.1, 0.075, 0.05, 0.025} }
