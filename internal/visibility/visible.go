// Package visibility implements the paper's camera-position sampling
// (§IV-B): the Eq. (1) angular visibility test for blocks against a conical
// view frustum, exact per-view visible-set computation, vicinal-area unions,
// and the T_visible lookup table keyed by view direction and distance with
// nearest-key prediction.
package visibility

import (
	"math"

	"repro/internal/camera"
	"repro/internal/grid"
	"repro/internal/vec"
)

// CornerVisible implements Eq. (1): the block corner bi is inside the view
// frustum of a camera at pos looking at the origin o with full view angle
// theta when the angle φ between v'bi and v'o is below θ/2.
func CornerVisible(pos, corner vec.V3, theta float64) bool {
	toCorner := corner.Sub(pos)
	toCenter := pos.Neg() // v'o with o at the origin
	return vec.AngleBetween(toCorner, toCenter) < theta/2
}

// blockVisible reports whether a block is visible from pos: true when any
// of its eight corners passes the Eq. (1) test, or when the camera is inside
// the block's bounds (a degenerate case Eq. (1) cannot classify).
func blockVisible(pos vec.V3, theta float64, g *grid.Grid, id grid.BlockID) bool {
	lo, hi := g.WorldBounds(id)
	if pos.X >= lo.X && pos.X <= hi.X &&
		pos.Y >= lo.Y && pos.Y <= hi.Y &&
		pos.Z >= lo.Z && pos.Z <= hi.Z {
		return true
	}
	corners := g.Corners(id)
	for i := range corners {
		if CornerVisible(pos, corners[i], theta) {
			return true
		}
	}
	return false
}

// VisibleSet returns the sorted IDs of every block visible from the camera:
// blockVisible over the grid. This is the exact per-frame ground truth the
// simulator renders from.
func VisibleSet(g *grid.Grid, cam camera.Camera) []grid.BlockID {
	return AppendVisibleSet(nil, g, cam)
}

// AppendVisibleSet appends VisibleSet(g, cam) to dst and returns it, so a
// caller that reuses dst from frame to frame allocates nothing once dst has
// grown to the largest set.
func AppendVisibleSet(dst []grid.BlockID, g *grid.Grid, cam camera.Camera) []grid.BlockID {
	return appendVisibleSet(dst, g, cone{pos: cam.Pos, theta: cam.ViewAngle})
}

// dilatedVisible reports whether a block is visible from *some* point within
// radius r of pos. Moving the apex by at most r changes a corner's apparent
// angle by at most asin(r/‖corner−pos‖), so the union of frustums over the
// vicinal sphere φ is conservatively approximated by widening the cone test
// per corner. It is the fast analytic alternative to jitter sampling.
func dilatedVisible(pos vec.V3, theta, r float64, g *grid.Grid, id grid.BlockID) bool {
	lo, hi := g.WorldBounds(id)
	if pos.X >= lo.X-r && pos.X <= hi.X+r &&
		pos.Y >= lo.Y-r && pos.Y <= hi.Y+r &&
		pos.Z >= lo.Z-r && pos.Z <= hi.Z+r {
		return true
	}
	corners := g.Corners(id)
	for i := range corners {
		if dilatedCornerVisible(pos, corners[i], theta, r) {
			return true
		}
	}
	return false
}

// dilatedCornerVisible is Eq. (1) with the half angle widened by
// asin(r/‖corner−pos‖): the per-corner test of dilatedVisible.
func dilatedCornerVisible(pos, corner vec.V3, theta, r float64) bool {
	dist := corner.Dist(pos)
	widen := math.Pi
	if dist > r {
		widen = math.Asin(r / dist)
	}
	return vec.AngleBetween(corner.Sub(pos), pos.Neg()) < theta/2+widen
}

// dilatedVisibleSet returns the sorted IDs of blocks visible from anywhere
// within radius r of pos (analytic union approximation): dilatedVisible over
// the grid.
func dilatedVisibleSet(g *grid.Grid, pos vec.V3, theta, r float64) []grid.BlockID {
	return appendVisibleSet(nil, g, cone{pos: pos, theta: theta, r: r, dilated: true})
}

// vicinalUnion returns the union of exact visible sets over sample points
// inside the vicinal sphere φ of radius r centered at pos (including pos
// itself), the construction of §IV-B. samples is the number of jitter points
// v'; they are placed deterministically on Fibonacci shells.
func vicinalUnion(g *grid.Grid, pos vec.V3, theta, r float64, samples int) []grid.BlockID {
	return appendVisibleSet(nil, g, vicinalCones(pos, theta, r, samples)...)
}

// vicinalCones returns vicinalUnion's cones: one at pos and one at each
// jitter point.
func vicinalCones(pos vec.V3, theta, r float64, samples int) []cone {
	pts := fibonacciBall(pos, r, samples)
	cones := make([]cone, 0, 1+len(pts))
	cones = append(cones, cone{pos: pos, theta: theta})
	for _, p := range pts {
		cones = append(cones, cone{pos: p, theta: theta})
	}
	return cones
}

// fibonacciBall returns n deterministic points filling the ball of radius r
// around c: Fibonacci-spiral directions with cube-root radial spacing.
func fibonacciBall(c vec.V3, r float64, n int) []vec.V3 {
	if n <= 0 || r <= 0 {
		return nil
	}
	const golden = 2.39996322972865332 // golden angle, radians
	pts := make([]vec.V3, 0, n)
	for i := 0; i < n; i++ {
		// Latitude from -1..1, longitude by golden angle, radius by i^(1/3)
		// for uniform ball density.
		t := (float64(i) + 0.5) / float64(n)
		y := 1 - 2*t
		rad := math.Sqrt(1 - y*y)
		phi := golden * float64(i)
		dir := vec.New(rad*math.Cos(phi), y, rad*math.Sin(phi))
		rr := r * math.Cbrt(t)
		pts = append(pts, c.Add(dir.Scale(rr)))
	}
	return pts
}
