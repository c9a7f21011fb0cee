package visibility

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/camera"
	"repro/internal/entropy"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/radius"
	"repro/internal/vec"
)

func mustGrid(t testing.TB, res, block grid.Dims) *grid.Grid {
	t.Helper()
	g, err := grid.New(res, block)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// kernelGrids are the shapes the lattice indexing can get wrong: cubic,
// ragged on every axis (Res not a multiple of Block), one block thick along
// one axis, and one block in all.
func kernelGrids(t testing.TB) []*grid.Grid {
	return []*grid.Grid{
		mustGrid(t, grid.Dims{X: 48, Y: 48, Z: 48}, grid.Dims{X: 8, Y: 8, Z: 8}),
		mustGrid(t, grid.Dims{X: 100, Y: 60, Z: 28}, grid.Dims{X: 16, Y: 16, Z: 16}),
		mustGrid(t, grid.Dims{X: 40, Y: 33, Z: 9}, grid.Dims{X: 8, Y: 8, Z: 9}),
		mustGrid(t, grid.Dims{X: 16, Y: 16, Z: 16}, grid.Dims{X: 16, Y: 16, Z: 16}),
	}
}

// kernelCameras places the apex everywhere Eq. (1) has a special case:
// outside the volume, inside it, exactly on a lattice plane, exactly on a
// lattice point, and at the origin, where the view axis is the zero vector
// and AngleBetween calls every angle 0.
func kernelCameras(g *grid.Grid, rng *field.Rand) []vec.V3 {
	mid := g.ID(g.BlocksPerAxis().X/2, g.BlocksPerAxis().Y/2, 0)
	lo, hi := g.WorldBounds(mid)
	cams := []vec.V3{
		{},                            // origin
		lo,                            // lattice point
		hi,                            // lattice point
		{X: lo.X, Y: 0.013, Z: 0.29},  // on a lattice plane, inside the volume
		{X: 2.2, Y: hi.Y, Z: -0.7},    // on a lattice plane, outside
		lo.Add(hi).Scale(0.5),         // a block's centre
		{X: 0, Y: 0, Z: 3},            // on an axis
		{X: 1e-300, Y: 0, Z: 0},       // norm² underflows
		{X: math.Inf(1), Y: 0, Z: 1},  // not a position at all
		{X: math.NaN(), Y: 0.5, Z: 1}, // likewise
	}
	for i := 0; i < 6; i++ {
		cams = append(cams, vec.New(rng.Range(-4, 4), rng.Range(-4, 4), rng.Range(-4, 4)))
	}
	for i := 0; i < 3; i++ {
		cams = append(cams, vec.New(rng.Range(-1, 1), rng.Range(-1, 1), rng.Range(-1, 1)).Mul(g.HalfExtent()))
	}
	return cams
}

var (
	kernelThetas = []float64{-0.1, 0, vec.Radians(1), vec.Radians(10), vec.Radians(120), math.Pi, 4, 7, math.NaN()}
	kernelRadii  = []float64{0, 0.05, 0.3, 5, -0.1, math.NaN()} // 5 exceeds every camera distance but the non-positions'
)

// TestKernelEqualsFlatScan is the kernel's contract: for every grid shape,
// apex, angle and radius, degenerate ones included, the sets are the flat
// per-block scans', element for element.
func TestKernelEqualsFlatScan(t *testing.T) {
	rng := field.NewRand(21)
	for _, g := range kernelGrids(t) {
		for _, pos := range kernelCameras(g, rng) {
			for _, theta := range kernelThetas {
				got := VisibleSet(g, camera.Camera{Pos: pos, ViewAngle: theta})
				if want := flatVisibleSet(g, pos, theta); !slices.Equal(got, want) {
					t.Fatalf("grid %v pos %v θ=%g: VisibleSet %v, flat scan %v", g.BlocksPerAxis(), pos, theta, got, want)
				}
				for _, r := range kernelRadii {
					got := DilatedVisibleSet(g, pos, theta, r)
					if want := flatDilatedVisibleSet(g, pos, theta, r); !slices.Equal(got, want) {
						t.Fatalf("grid %v pos %v θ=%g r=%g: DilatedVisibleSet %v, flat scan %v", g.BlocksPerAxis(), pos, theta, r, got, want)
					}
				}
			}
			got := VicinalUnion(g, pos, vec.Radians(10), 0.3, 5)
			if want := flatVicinalUnion(g, pos, vec.Radians(10), 0.3, 5); !slices.Equal(got, want) {
				t.Fatalf("grid %v pos %v: VicinalUnion %v, flat scan %v", g.BlocksPerAxis(), pos, got, want)
			}
		}
	}
}

// TestWideRowsEqualFlatScan holds the kernel to the flat scans on rows
// longer than one bitmap word: 64 blocks (65 lattice points, so the last
// point spills into a second word that holds no block), 65, and 200. On the
// widest, one camera sits just inside block 128, past the origin, so the
// dilated camera-inside box runs from block 127 across a word boundary to
// blocks behind the camera that no corner brings in.
func TestWideRowsEqualFlatScan(t *testing.T) {
	rng := field.NewRand(29)
	for _, nx := range []int{64, 65, 200} {
		g := mustGrid(t, grid.Dims{X: 2 * nx, Y: 6, Z: 5}, grid.Dims{X: 2, Y: 3, Z: 2})
		if nx > 128 {
			lo, hi := g.WorldBounds(g.ID(128, 1, 1))
			mid := lo.Add(hi).Scale(0.5)
			pos, r := vec.New(lo.X+(hi.X-lo.X)/4, mid.Y, mid.Z), hi.X-lo.X
			if got, want := DilatedVisibleSet(g, pos, vec.Radians(10), r), flatDilatedVisibleSet(g, pos, vec.Radians(10), r); !slices.Equal(got, want) {
				t.Fatalf("grid %v, inside block 128: DilatedVisibleSet %v, flat scan %v", g.BlocksPerAxis(), got, want)
			}
		}
		for _, pos := range kernelCameras(g, rng) {
			for _, theta := range []float64{vec.Radians(1), vec.Radians(10), vec.Radians(120), math.Pi} {
				if got, want := VisibleSet(g, camera.Camera{Pos: pos, ViewAngle: theta}), flatVisibleSet(g, pos, theta); !slices.Equal(got, want) {
					t.Fatalf("grid %v pos %v θ=%g: VisibleSet %v, flat scan %v", g.BlocksPerAxis(), pos, theta, got, want)
				}
				if got, want := DilatedVisibleSet(g, pos, theta, 0.3), flatDilatedVisibleSet(g, pos, theta, 0.3); !slices.Equal(got, want) {
					t.Fatalf("grid %v pos %v θ=%g: DilatedVisibleSet %v, flat scan %v", g.BlocksPerAxis(), pos, theta, got, want)
				}
			}
			if got, want := VicinalUnion(g, pos, vec.Radians(10), 0.3, 5), flatVicinalUnion(g, pos, vec.Radians(10), 0.3, 5); !slices.Equal(got, want) {
				t.Fatalf("grid %v pos %v: VicinalUnion %v, flat scan %v", g.BlocksPerAxis(), pos, got, want)
			}
		}
	}
}

// TestOriginCameraSeesEverything pins the degenerate case by value, not only
// against the oracle: AngleBetween defines the zero vector's angle as 0.
func TestOriginCameraSeesEverything(t *testing.T) {
	for _, g := range kernelGrids(t) {
		if got := VisibleSet(g, camera.Camera{ViewAngle: vec.Radians(1)}); !slices.Equal(got, g.All()) {
			t.Errorf("grid %v: origin camera sees %d of %d blocks", g.BlocksPerAxis(), len(got), g.NumBlocks())
		}
	}
}

// TestTableEqualsFlatScan checks a whole T_visible, key by key, against sets
// built from the flat scans: dilated and jittered, with and without the
// importance clamp.
func TestTableEqualsFlatScan(t *testing.T) {
	g := kernelGrids(t)[1]
	scores := make([]float64, g.NumBlocks())
	for i := range scores {
		scores[i] = float64(i * 7 % 5) // ties, so the clamp's stable order matters
	}
	clamp := &Clamp{Importance: entropy.NewTable(scores), MaxBlocks: 9}
	for _, samples := range []int{0, 3} {
		for _, c := range []*Clamp{nil, clamp} {
			opts := Options{
				NAzimuth: 8, NElevation: 4, NDistance: 2,
				RMin: 1.2, RMax: 3, // the inner ring is inside the enclosing sphere
				ViewAngle:      vec.Radians(120),
				Radius:         radius.Dynamic{Ratio: 0.25},
				VicinalSamples: samples,
				Clamp:          c,
			}
			tab, err := NewTable(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tab.NumKeys(); i++ {
				if got, want := tab.PredictedSet(i), flatComputeSet(tab, i); !slices.Equal(got, want) {
					t.Fatalf("samples=%d clamp=%v key %d: %v, flat scan %v", samples, c != nil, i, got, want)
				}
			}
		}
	}
}

// latticePoints returns every distinct block corner of g.
func latticePoints(g *grid.Grid) []vec.V3 {
	var pts []vec.V3
	for _, id := range g.All() {
		for _, c := range g.Corners(id) {
			if !slices.Contains(pts, c) {
				pts = append(pts, c)
			}
		}
	}
	return pts
}

// TestGuardBandDecidesByThePredicate aims θ at a lattice point: exactly twice
// the angle the predicate computes for it, and the floats either side, so
// the strict inequality of Eq. (1) flips between neighbours and only the
// predicate itself can place the point. The kernel must send the point to
// the predicate (mark reports it) and agree with the flat scan all three
// times, in the plain and in the dilated form.
func TestGuardBandDecidesByThePredicate(t *testing.T) {
	g := mustGrid(t, grid.Dims{X: 30, Y: 20, Z: 20}, grid.Dims{X: 8, Y: 8, Z: 8})
	const r = 0.3
	aim := func(c cone, at float64, flat func(theta float64) []grid.BlockID) {
		for _, theta := range []float64{math.Nextafter(at, 0), at, math.Nextafter(at, 4)} {
			c.theta = theta
			l := newLattice(g)
			fallbacks, got := l.mark(c), l.appendIDs(nil)
			l.release()
			if fallbacks == 0 && theta < math.Pi {
				t.Errorf("%+v: no point went to the predicate", c)
			}
			if want := flat(theta); !slices.Equal(got, want) {
				t.Fatalf("%+v: kernel %v, flat scan %v", c, got, want)
			}
		}
	}
	for _, pos := range []vec.V3{{X: 0.4, Y: 0.3, Z: 3}, {X: -1.5, Y: 0.9, Z: 0.2}, {X: 0.1, Y: 0.05, Z: -0.2}} {
		for _, p := range latticePoints(g) {
			angle := vec.AngleBetween(p.Sub(pos), pos.Neg())
			aim(cone{pos: pos}, 2*angle, func(theta float64) []grid.BlockID {
				return flatVisibleSet(g, pos, theta)
			})
			// Dilated, the corner sits on the cone at θ/2 = angle − asin(r/dist);
			// not positive where the widening alone covers it.
			if at := 2 * (angle - math.Asin(r/p.Dist(pos))); at > 0 {
				aim(cone{pos: pos, r: r, dilated: true}, at, func(theta float64) []grid.BlockID {
					return flatDilatedVisibleSet(g, pos, theta, r)
				})
			}
		}
	}
}

// TestGuardBandIsRarelyEntered bounds what the exactness costs: over the 5°
// orbit the benchmarks fly, under 0.1% of lattice points reach the predicate.
func TestGuardBandIsRarelyEntered(t *testing.T) {
	g := mustGrid(t, grid.Dims{X: 256, Y: 256, Z: 256}, grid.Dims{X: 32, Y: 32, Z: 32})
	theta := vec.Radians(10)
	points, fallbacks := 0, 0
	for _, pos := range camera.Spherical(3, 5, 360).Steps {
		for _, c := range []cone{{pos: pos, theta: theta}, {pos: pos, theta: theta, r: 0.3, dilated: true}} {
			l := newLattice(g)
			fallbacks += l.mark(c)
			points += len(l.xs) * len(l.ys) * len(l.zs)
			l.release()
		}
	}
	if fallbacks*1000 >= points {
		t.Errorf("%d of %d lattice points went to the predicate, want < 0.1%%", fallbacks, points)
	}
}

// TestRowRangeHoldsEverySeenPoint is the row ranges' contract, checked
// apart from the decisions inside them: on every lattice row, each point the
// per-point predicate calls seen lies in the row's range — plain, dilated
// and vicinal cones alike, over the grids, apexes, angles and radii the
// kernel is held to the flat scan on. The scan out is checked from every
// start on the row too, since where it starts must set only its cost.
func TestRowRangeHoldsEverySeenPoint(t *testing.T) {
	rng := field.NewRand(23)
	check := func(g *grid.Grid, c cone) {
		t.Helper()
		l := newLattice(g)
		defer l.release()
		na := c.pos.Norm()
		rc := newRowCone(c, na)
		for _, z := range l.zs {
			for _, y := range l.ys {
				ranges := [][2]int{}
				lo, hi := rc.span(l.xs, y, z)
				ranges = append(ranges, [2]int{lo, hi})
				if !rc.whole {
					rho2, w := rc.row(y, z)
					for seed := range l.xs {
						lo, hi := rc.scan(l.xs, rho2, w, seed)
						ranges = append(ranges, [2]int{lo, hi})
					}
				}
				for i, x := range l.xs {
					p := vec.V3{X: x, Y: y, Z: z}
					seen := CornerVisible(c.pos, p, c.theta)
					if c.dilated {
						seen = dilatedCornerVisible(c.pos, p, c.theta, c.r)
					}
					for _, r := range ranges {
						if seen && (i < r[0] || i >= r[1]) {
							t.Fatalf("grid %v %+v: point %v seen, outside its row's range %v", g.BlocksPerAxis(), c, p, r)
						}
					}
				}
			}
		}
	}
	for _, g := range kernelGrids(t) {
		for _, pos := range kernelCameras(g, rng) {
			for _, theta := range kernelThetas {
				check(g, cone{pos: pos, theta: theta})
				for _, r := range kernelRadii {
					check(g, cone{pos: pos, theta: theta, r: r, dilated: true})
					for _, c := range vicinalCones(pos, theta, r, 5) {
						check(g, c)
					}
				}
			}
		}
	}
}

// TestRowRangesDecideFewPoints pins the work, not only the answer: over the
// 5° orbit the benchmarks fly, the plain kernel decides at most a quarter of
// the lattice points, on the cubic grids and on the viewer's, so a slide
// back toward deciding every point fails here.
func TestRowRangesDecideFewPoints(t *testing.T) {
	theta := vec.Radians(benchViewDeg)
	for _, blocks := range []int{4096, 32768, benchViewer} {
		g := benchGrid(t, blocks)
		points, decided := 0, 0
		for _, pos := range benchOrbit {
			l := newLattice(g)
			l.mark(cone{pos: pos, theta: theta})
			points += len(l.xs) * len(l.ys) * len(l.zs)
			decided += l.decided
			l.release()
		}
		t.Logf("%s: %d of %d lattice points decided (%.1f%%)", benchName(blocks), decided, points, 100*float64(decided)/float64(points))
		if decided*4 > points {
			t.Errorf("%s: %d of %d lattice points decided, want at most a quarter", benchName(blocks), decided, points)
		}
	}
}

// TestResultSizedByCounting: the one allocation of a call is the ids it
// returns and nothing more. (That it is the only one is bench-check's to
// hold: BenchmarkVisibleSet records 1 alloc/op, and the pool that makes it so
// sheds at random under the race detector.)
func TestResultSizedByCounting(t *testing.T) {
	g := kernelGrids(t)[0]
	set := VisibleSet(g, camera.Camera{Pos: vec.New(0.4, 0.3, 3), ViewAngle: vec.Radians(10)})
	if len(set) == 0 || cap(set) != len(set) {
		t.Errorf("VisibleSet: cap %d for %d ids", cap(set), len(set))
	}
}

// The four tests below came over from internal/octree, whose tree they held
// equal to the flat scan; they hold the kernel to it now.

func TestEquivalenceWithLinearScan(t *testing.T) {
	g := testGrid(t, 64, 8) // 512 blocks
	cams := []camera.Camera{
		{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(10)},
		{Pos: vec.New(2, 1.5, -1), ViewAngle: vec.Radians(30)},
		{Pos: vec.New(-3, 0.2, 0.4), ViewAngle: vec.Radians(60)},
		{Pos: vec.New(0.1, 0.1, 0.1), ViewAngle: vec.Radians(20)}, // inside the volume
		{Pos: vec.New(0, 5, 0), ViewAngle: vec.Radians(5)},
	}
	for _, cam := range cams {
		got, want := VisibleSet(g, cam), flatVisibleSet(g, cam.Pos, cam.ViewAngle)
		if !slices.Equal(got, want) {
			t.Errorf("cam %v: kernel %d blocks != scan %d blocks", cam.Pos, len(got), len(want))
		}
	}
}

func TestEquivalenceProperty(t *testing.T) {
	g := testGrid(t, 48, 8) // 216 blocks, anisotropy-free
	rng := field.NewRand(9)
	f := func(uint16) bool {
		pos := vec.New(rng.Range(-4, 4), rng.Range(-4, 4), rng.Range(-4, 4))
		theta := vec.Radians(rng.Range(2, 90))
		r := rng.Range(0, 1)
		return slices.Equal(VisibleSet(g, camera.Camera{Pos: pos, ViewAngle: theta}), flatVisibleSet(g, pos, theta)) &&
			slices.Equal(DilatedVisibleSet(g, pos, theta, r), flatDilatedVisibleSet(g, pos, theta, r))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEquivalenceAnisotropicGrid(t *testing.T) {
	// Non-cubic volumes with partial edge blocks: the last plane of each
	// axis is clipped to the volume, not a whole block further.
	g := mustGrid(t, grid.Dims{X: 100, Y: 60, Z: 28}, grid.Dims{X: 16, Y: 16, Z: 16})
	for _, pos := range camera.Orbit(2.5, 12).Steps {
		cam := camera.Camera{Pos: pos, ViewAngle: vec.Radians(15)}
		if !slices.Equal(VisibleSet(g, cam), flatVisibleSet(g, pos, cam.ViewAngle)) {
			t.Fatalf("mismatch at %v", pos)
		}
	}
}

func TestSingleBlockGrid(t *testing.T) {
	// A one-block grid exposes Eq. (1)'s known blind spot: a block whose
	// corners all lie outside the cone tests invisible even though the
	// view axis pierces it. The kernel must agree with the linear scan in
	// both regimes: the blind spot (30° from distance 3, corners at ~35°)
	// and a cone wide enough to contain a corner.
	g := testGrid(t, 16, 16) // one block spanning the whole volume
	for _, c := range []struct {
		cam  camera.Camera
		want int
	}{
		{camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(30)}, 0},  // blind spot
		{camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(80)}, 1},  // corner inside
		{camera.Camera{Pos: vec.New(0, 0, 0.5), ViewAngle: vec.Radians(5)}, 1}, // camera inside
	} {
		got := VisibleSet(g, c.cam)
		if want := flatVisibleSet(g, c.cam.Pos, c.cam.ViewAngle); !slices.Equal(got, want) || len(got) != c.want {
			t.Errorf("cam %v θ=%.2f: kernel %v, scan %v, want %d blocks", c.cam.Pos, c.cam.ViewAngle, got, want, c.want)
		}
	}
}

func TestUnionMergesAnyOrder(t *testing.T) {
	got := Union([]grid.BlockID{9, 9, 2}, nil, []grid.BlockID{5, 2}, []grid.BlockID{0})
	if want := []grid.BlockID{0, 2, 5, 9}; !slices.Equal(got, want) {
		t.Errorf("Union = %v, want %v", got, want)
	}
}

// FuzzVisibleSetEqualsOracle lets the fuzzer pick the grid, the apex, the
// angle and the radius; the kernel must equal the flat scans on all of them.
func FuzzVisibleSetEqualsOracle(f *testing.F) {
	f.Add(uint8(6), uint8(6), uint8(6), uint8(1), uint8(1), uint8(1), 0.4, 0.3, 3.0, vec.Radians(10), 0.3)
	f.Add(uint8(10), uint8(6), uint8(3), uint8(4), uint8(4), uint8(3), 0.0, 0.0, 0.0, vec.Radians(1), 0.0)     // ragged, origin
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), 0.0, 0.0, 3.0, vec.Radians(30), 5.0)     // one block, r > distance
	f.Add(uint8(8), uint8(8), uint8(8), uint8(2), uint8(2), uint8(2), -0.5, 0.25, 0.0, vec.Radians(120), 0.05) // on a lattice point
	f.Add(uint8(8), uint8(8), uint8(8), uint8(2), uint8(2), uint8(2), 2.2, 0.5, -0.7, math.Pi, -0.1)
	f.Add(uint8(5), uint8(7), uint8(2), uint8(2), uint8(3), uint8(2), 1.0, 1.0, 1.0, math.NaN(), math.NaN())
	f.Add(uint8(8), uint8(8), uint8(8), uint8(2), uint8(2), uint8(2), 0.4, 0.3, 3.0, 0.0, 0.3)
	// θ aimed at a corner, as in TestGuardBandDecidesByThePredicate.
	aim := vec.New(0.4, 0.3, 3)
	f.Add(uint8(8), uint8(8), uint8(8), uint8(2), uint8(2), uint8(2), aim.X, aim.Y, aim.Z,
		2*vec.AngleBetween(vec.New(0.5, -0.5, 1).Sub(aim), aim.Neg()), 0.0)
	f.Fuzz(func(t *testing.T, rx, ry, rz, bx, by, bz uint8, px, py, pz, theta, r float64) {
		res := grid.Dims{X: 1 + int(rx)%12, Y: 1 + int(ry)%12, Z: 1 + int(rz)%12}
		block := grid.Dims{X: 1 + int(bx)%res.X, Y: 1 + int(by)%res.Y, Z: 1 + int(bz)%res.Z}
		g := mustGrid(t, res, block)
		pos := vec.New(px, py, pz)
		if got, want := VisibleSet(g, camera.Camera{Pos: pos, ViewAngle: theta}), flatVisibleSet(g, pos, theta); !slices.Equal(got, want) {
			t.Fatalf("res %v block %v pos %v θ=%v: VisibleSet %v, flat scan %v", res, block, pos, theta, got, want)
		}
		if got, want := DilatedVisibleSet(g, pos, theta, r), flatDilatedVisibleSet(g, pos, theta, r); !slices.Equal(got, want) {
			t.Fatalf("res %v block %v pos %v θ=%v r=%v: DilatedVisibleSet %v, flat scan %v", res, block, pos, theta, r, got, want)
		}
	})
}
