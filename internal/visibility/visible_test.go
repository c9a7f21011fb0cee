package visibility

import (
	"math"
	"testing"

	"repro/internal/camera"
	"repro/internal/grid"
	"repro/internal/vec"
)

func testGrid(t *testing.T, res, block int) *grid.Grid {
	t.Helper()
	g, err := grid.New(grid.Dims{X: res, Y: res, Z: res}, grid.Dims{X: block, Y: block, Z: block})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCornerVisible(t *testing.T) {
	pos := vec.New(0, 0, 3)
	theta := vec.Radians(30)
	// A corner straight ahead (toward the origin) is inside the cone.
	if !CornerVisible(pos, vec.New(0, 0, 1), theta) {
		t.Error("on-axis corner not visible")
	}
	// A corner behind the camera is not.
	if CornerVisible(pos, vec.New(0, 0, 5), theta) {
		t.Error("behind-camera corner visible")
	}
	// A corner far off-axis is not.
	if CornerVisible(pos, vec.New(3, 0, 2.9), theta) {
		t.Error("far off-axis corner visible")
	}
	// A corner just inside the half angle is visible: at distance 2 ahead,
	// lateral offset below 2·tan(15°) ≈ 0.53.
	if !CornerVisible(pos, vec.New(0.5, 0, 1), theta) {
		t.Error("corner just inside cone not visible")
	}
	if CornerVisible(pos, vec.New(0.6, 0, 1), theta) {
		t.Error("corner just outside cone visible")
	}
}

func TestBlockVisibleCenterBlock(t *testing.T) {
	g := testGrid(t, 64, 16)
	theta := vec.Radians(30)
	pos := vec.New(0, 0, 3)
	// The block containing the volume center is on-axis and visible.
	centerID := g.ID(2, 2, 2)
	if !blockVisible(pos, theta, g, centerID) {
		t.Error("center block not visible")
	}
}

func TestBlockVisibleCameraInside(t *testing.T) {
	g := testGrid(t, 64, 16)
	// A camera inside a block sees it regardless of corner angles.
	id := g.ID(0, 0, 0)
	lo, hi := g.WorldBounds(id)
	inside := lo.Add(hi).Scale(0.5)
	if !blockVisible(inside, vec.Radians(1), g, id) {
		t.Error("camera-inside block not visible")
	}
}

func TestVisibleSetNarrowVsWideAngle(t *testing.T) {
	g := testGrid(t, 64, 8)
	pos := vec.New(0, 0, 3)
	narrow := VisibleSet(g, camera.Camera{Pos: pos, ViewAngle: vec.Radians(10)})
	wide := VisibleSet(g, camera.Camera{Pos: pos, ViewAngle: vec.Radians(60)})
	if len(narrow) == 0 {
		t.Fatal("narrow frustum sees nothing")
	}
	if len(wide) <= len(narrow) {
		t.Errorf("wide %d <= narrow %d", len(wide), len(narrow))
	}
	// Narrow set is a subset of the wide set.
	if got := intersect(narrow, wide); got != len(narrow) {
		t.Errorf("narrow ⊄ wide: |∩| = %d, |narrow| = %d", got, len(narrow))
	}
}

func TestVisibleSetSorted(t *testing.T) {
	g := testGrid(t, 64, 16)
	set := VisibleSet(g, camera.Camera{Pos: vec.New(1, 2, 3), ViewAngle: vec.Radians(45)})
	for i := 1; i < len(set); i++ {
		if set[i] <= set[i-1] {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestVisibleSetOppositeCamerasDiffer(t *testing.T) {
	g := testGrid(t, 64, 8)
	theta := vec.Radians(20)
	a := VisibleSet(g, camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: theta})
	b := VisibleSet(g, camera.Camera{Pos: vec.New(0, 0, -3), ViewAngle: theta})
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("empty visible sets")
	}
	// Opposite views share the central corridor but must not be identical.
	if intersect(a, b) == len(a) && len(a) == len(b) {
		t.Error("opposite cameras see identical sets")
	}
}

func TestNearbyCamerasOverlapHeavily(t *testing.T) {
	// Observation 1 of the paper: visible sets of nearby positions overlap
	// largely. Verify overlap ≥ 80% for a 2° move.
	g := testGrid(t, 64, 8)
	theta := vec.Radians(30)
	p1 := vec.New(0, 0, 3)
	p2 := vec.RotateAbout(p1, vec.New(0, 1, 0), vec.Radians(2))
	a := VisibleSet(g, camera.Camera{Pos: p1, ViewAngle: theta})
	b := VisibleSet(g, camera.Camera{Pos: p2, ViewAngle: theta})
	inter := intersect(a, b)
	if float64(inter) < 0.8*float64(len(a)) {
		t.Errorf("2° overlap = %d of %d, want >= 80%%", inter, len(a))
	}
}

func TestDilatedVisibleSupersetOfExact(t *testing.T) {
	g := testGrid(t, 64, 8)
	theta := vec.Radians(30)
	pos := vec.New(0.3, -0.2, 3)
	exact := VisibleSet(g, camera.Camera{Pos: pos, ViewAngle: theta})
	dilated := dilatedVisibleSet(g, pos, theta, 0.2)
	if intersect(exact, dilated) != len(exact) {
		t.Error("dilated set does not contain the exact set")
	}
	if len(dilated) <= len(exact) {
		t.Errorf("dilated %d <= exact %d; dilation had no effect", len(dilated), len(exact))
	}
	// Zero radius reduces to the exact test.
	zero := dilatedVisibleSet(g, pos, theta, 0)
	if len(zero) != len(exact) {
		t.Errorf("r=0 dilated %d != exact %d", len(zero), len(exact))
	}
}

func TestVicinalUnionContainsCenterView(t *testing.T) {
	g := testGrid(t, 64, 8)
	theta := vec.Radians(30)
	pos := vec.New(0, 0, 3)
	exact := VisibleSet(g, camera.Camera{Pos: pos, ViewAngle: theta})
	union := vicinalUnion(g, pos, theta, 0.15, 8)
	if intersect(exact, union) != len(exact) {
		t.Error("vicinal union misses blocks visible from its center")
	}
	if len(union) < len(exact) {
		t.Errorf("union %d < exact %d", len(union), len(exact))
	}
}

func TestVicinalUnionGrowsWithRadius(t *testing.T) {
	g := testGrid(t, 64, 8)
	theta := vec.Radians(30)
	pos := vec.New(0, 0, 3)
	small := vicinalUnion(g, pos, theta, 0.05, 12)
	large := vicinalUnion(g, pos, theta, 0.5, 12)
	if len(large) <= len(small) {
		t.Errorf("r=0.5 union %d <= r=0.05 union %d", len(large), len(small))
	}
}

func TestVicinalUnionApproximatesDilation(t *testing.T) {
	// The analytic dilation is a conservative approximation of the jitter
	// union: it must cover it (sampling can only under-estimate the union).
	g := testGrid(t, 64, 8)
	theta := vec.Radians(30)
	pos := vec.New(0, 0, 3)
	r := 0.2
	jitter := vicinalUnion(g, pos, theta, r, 32)
	analytic := dilatedVisibleSet(g, pos, theta, r)
	if intersect(jitter, analytic) != len(jitter) {
		t.Errorf("analytic dilation (%d blocks) does not cover jitter union (%d blocks)",
			len(analytic), len(jitter))
	}
}

func TestFibonacciBallWithinRadius(t *testing.T) {
	c := vec.New(1, 2, 3)
	pts := fibonacciBall(c, 0.5, 64)
	if len(pts) != 64 {
		t.Fatalf("len = %d", len(pts))
	}
	for _, p := range pts {
		if p.Dist(c) > 0.5+1e-12 {
			t.Fatalf("point %v outside ball", p)
		}
	}
	if got := fibonacciBall(c, 0.5, 0); got != nil {
		t.Error("n=0 should be nil")
	}
	if got := fibonacciBall(c, 0, 8); got != nil {
		t.Error("r=0 should be nil")
	}
}

func TestFibonacciBallSpreads(t *testing.T) {
	// Points should not collapse to a line: their bounding box must extend
	// in all three axes.
	pts := fibonacciBall(vec.V3{}, 1, 50)
	lo, hi := pts[0], pts[0]
	for _, p := range pts {
		lo = vec.New(math.Min(lo.X, p.X), math.Min(lo.Y, p.Y), math.Min(lo.Z, p.Z))
		hi = vec.New(math.Max(hi.X, p.X), math.Max(hi.Y, p.Y), math.Max(hi.Z, p.Z))
	}
	ext := hi.Sub(lo)
	if ext.X < 0.5 || ext.Y < 0.5 || ext.Z < 0.5 {
		t.Errorf("ball points poorly spread: extent %v", ext)
	}
}

func TestVisibleSetFractionReasonable(t *testing.T) {
	// A 30° cone from distance 3 should see a strict subset of blocks, not
	// everything and not nothing (sanity for the miss-rate experiments).
	g := testGrid(t, 64, 8)
	set := VisibleSet(g, camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(30)})
	frac := float64(len(set)) / float64(g.NumBlocks())
	if frac <= 0.01 || frac >= 0.9 {
		t.Errorf("visible fraction = %.2f, want interior of (0.01, 0.9)", frac)
	}
}

func TestCornerVisibleDegenerate(t *testing.T) {
	// Camera exactly at the origin: v'o is the zero vector; the angle
	// defaults to 0 so everything is "visible" rather than NaN-crashing.
	if !CornerVisible(vec.V3{}, vec.New(1, 0, 0), vec.Radians(30)) {
		t.Error("origin camera should degrade to visible")
	}
	if math.IsNaN(vec.AngleBetween(vec.V3{}, vec.New(1, 0, 0))) {
		t.Error("NaN angle")
	}
}

// intersect returns how many ids two sorted ID slices share.
func intersect(a, b []grid.BlockID) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
