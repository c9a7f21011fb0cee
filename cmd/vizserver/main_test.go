package main

import (
	"testing"

	"repro/internal/radius"
	"repro/internal/vec"
)

// TestVicinalRadiusFollowsCacheFrac pins Eq. (6)'s input: ρ is the fraction
// the shared cache is sized to, so a server started with another -cache-frac
// predicts from another vicinal radius. (It was 0.25 whatever the flag said.)
func TestVicinalRadiusFollowsCacheFrac(t *testing.T) {
	theta := vec.Radians(10)
	const d = 3 // mid-range of the table's [2.5, 3.5]
	at := func(frac float64) float64 { return tableOptions(theta, frac).Radius.Radius(theta, d) }
	for _, frac := range []float64{0.25, 0.5} {
		if got, want := at(frac), radius.Optimal(theta, d, frac); got != want {
			t.Errorf("cache-frac %g: vicinal radius %g, Eq. (6) gives %g", frac, got, want)
		}
	}
	if quarter, half := at(0.25), at(0.5); !(half > quarter) {
		t.Errorf("radius at cache-frac 0.5 = %g, not above %g at 0.25", half, quarter)
	}
}
