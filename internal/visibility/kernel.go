package visibility

// The visible-set kernel under VisibleSet, DilatedVisibleSet and VicinalUnion.
//
// Blocks share corners: a grid of nx×ny×nz blocks has 8·nx·ny·nz block
// corners but only (nx+1)(ny+1)(nz+1) distinct lattice points, so the kernel
// decides Eq. (1) once per lattice point and marks the up to eight blocks
// that meet there. A point is decided without trigonometry where that is
// safe: acos is decreasing, so φ < θ/2 ⟺ cos φ > cos(θ/2), and the cosine is
// the quotient AngleBetween already forms. |d acos/dc| ≥ 1 everywhere, so a
// cosine further than guardBand from the threshold is further than guardBand
// from it in angle too, and the compare gives the predicate's own answer:
// math.Acos and math.Asin are good to 1e-16, and to 2.3e-13 at their worst
// (2⁻²⁷ from ±1, where √(1−x²) cancels), as is the threshold computed here.
// Inside the band, and wherever the cosine form does not hold, the predicate
// itself is called. Every decision is therefore CornerVisible's
// (dilatedCornerVisible's), bit for bit; the flat per-block scans in the
// test files are the oracle.

import (
	"math"
	"sync"

	"repro/internal/grid"
	"repro/internal/vec"
)

// guardBand is the half width, in cosine, of the interval around the
// threshold inside which a lattice point goes to the predicate.
const guardBand = 1e-9

// cone is one apex of the Eq. (1) test: a camera at pos looking at the
// origin with full angle theta. dilated widens each point's half angle by
// asin(r/‖point−pos‖) (dilatedCornerVisible in place of CornerVisible); r
// also pads the camera-inside-the-block test and is 0 for the plain form.
type cone struct {
	pos      vec.V3
	theta, r float64
	dilated  bool
}

// lattice is the kernel's scratch for one grid: the world coordinates of the
// corner planes along each axis and one flag per block.
type lattice struct {
	xs, ys, zs []float64
	blocks     []uint8
}

var latticePool = sync.Pool{New: func() any { return new(lattice) }}

// newLattice takes a scratch from the pool, sized for g, with every block
// flag clear. The planes are the values WorldBounds returns, bit for bit:
// plane i sits at voxel min(i·block, res), mapped by VoxelToWorld.
func newLattice(g *grid.Grid) *lattice {
	l := latticePool.Get().(*lattice)
	nb, bs, res := g.BlocksPerAxis(), g.BlockSize(), g.Res()
	l.xs, l.ys, l.zs = l.xs[:0], l.ys[:0], l.zs[:0]
	for i := 0; i <= nb.X; i++ {
		l.xs = append(l.xs, g.VoxelToWorld(float64(min(i*bs.X, res.X)), 0, 0).X)
	}
	for i := 0; i <= nb.Y; i++ {
		l.ys = append(l.ys, g.VoxelToWorld(0, float64(min(i*bs.Y, res.Y)), 0).Y)
	}
	for i := 0; i <= nb.Z; i++ {
		l.zs = append(l.zs, g.VoxelToWorld(0, 0, float64(min(i*bs.Z, res.Z))).Z)
	}
	if n := g.NumBlocks(); cap(l.blocks) < n {
		l.blocks = make([]uint8, n)
	} else {
		l.blocks = l.blocks[:n]
		clear(l.blocks)
	}
	return l
}

func (l *lattice) release() { latticePool.Put(l) }

// mark flags every block with a corner the cone sees or with the camera
// inside its r-padded box: BlockVisible (DilatedVisible) over the whole
// grid. It returns how many lattice points went to the predicate.
func (l *lattice) mark(c cone) (fallbacks int) {
	nx, ny, nz := len(l.xs)-1, len(l.ys)-1, len(l.zs)-1
	axis := c.pos.Neg()
	na := axis.Norm()
	// The cosine form needs θ/2 + asin(s) inside acos's range [0, π] and a
	// view axis (AngleBetween calls the angle to a zero vector 0); NaN
	// thresholds otherwise, which no cosine compares above or below.
	cosH, sinH := math.NaN(), math.NaN()
	if h := c.theta / 2; h > 0 && h < math.Pi/2 && na != 0 {
		cosH, sinH = math.Cos(h), math.Sin(h)
	}
	var rows [4][]uint8
	for k, z := range l.zs {
		vz := z - c.pos.Z
		for j, y := range l.ys {
			vy := y - c.pos.Y
			// The block rows meeting at lattice row (j, k).
			nr := 0
			for bz := max(k-1, 0); bz <= min(k, nz-1); bz++ {
				for by := max(j-1, 0); by <= min(j, ny-1); by++ {
					rows[nr] = l.blocks[(bz*ny+by)*nx:][:nx]
					nr++
				}
			}
			for i, x := range l.xs {
				// cos φ as AngleBetween(v, axis) forms it; NaN, which goes
				// to the predicate, where v has no length.
				vx := x - c.pos.X
				nv := math.Sqrt(vx*vx + vy*vy + vz*vz)
				cos := math.NaN()
				if nv != 0 {
					cos = (vx*axis.X + vy*axis.Y + vz*axis.Z) / (nv * na)
				}
				thr := cosH
				if c.dilated {
					// cos(θ/2 + asin s) by the angle-sum identity.
					if s := c.r / nv; s >= 0 && s < 1 {
						thr = cosH*math.Sqrt(1-s*s) - sinH*s
					} else {
						thr = math.NaN()
					}
				}
				var seen bool
				switch {
				case cos > thr+guardBand:
					seen = true
				case cos < thr-guardBand:
				case c.dilated:
					fallbacks++
					seen = dilatedCornerVisible(c.pos, vec.V3{X: x, Y: y, Z: z}, c.theta, c.r)
				default:
					fallbacks++
					seen = CornerVisible(c.pos, vec.V3{X: x, Y: y, Z: z}, c.theta)
				}
				if !seen {
					continue
				}
				for _, row := range rows[:nr] {
					if i > 0 {
						row[i-1] = 1
					}
					if i < nx {
						row[i] = 1
					}
				}
			}
		}
	}
	x0, x1 := containing(l.xs, c.pos.X, c.r)
	y0, y1 := containing(l.ys, c.pos.Y, c.r)
	z0, z1 := containing(l.zs, c.pos.Z, c.r)
	for bz := z0; bz < z1; bz++ {
		for by := y0; by < y1; by++ {
			for bx := x0; bx < x1; bx++ {
				l.blocks[(bz*ny+by)*nx+bx] = 1
			}
		}
	}
	return fallbacks
}

// containing returns the half-open range of blocks along one axis whose
// r-padded extent holds p, by the comparisons BlockVisible makes. The planes
// ascend, so the blocks that pass are contiguous.
func containing(planes []float64, p, r float64) (from, to int) {
	holds := func(b int) bool { return p >= planes[b]-r && p <= planes[b+1]+r }
	nb := len(planes) - 1
	for from < nb && !holds(from) {
		from++
	}
	to = from
	for to < nb && holds(to) {
		to++
	}
	return from, to
}

// ids returns the flagged blocks in ascending order, in a slice sized by
// counting them first.
func (l *lattice) ids() []grid.BlockID {
	n := 0
	for _, f := range l.blocks {
		n += int(f)
	}
	out := make([]grid.BlockID, 0, n)
	for id, f := range l.blocks {
		if f != 0 {
			out = append(out, grid.BlockID(id))
		}
	}
	return out
}

// visibleSet is the union over cones of the blocks each one sees.
func visibleSet(g *grid.Grid, cones ...cone) []grid.BlockID {
	l := newLattice(g)
	defer l.release()
	for _, c := range cones {
		l.mark(c)
	}
	return l.ids()
}
