package visibility

// The visible-set kernel under VisibleSet, dilatedVisibleSet and vicinalUnion.
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
//
// Only the points a lattice row (fixed y, z) can hold are decided: each row
// gets a candidate index range (rowCone.span) that contains every point the
// per-point code above could call seen, and the points outside it are never
// looked at. The output is the flat scan's by construction: inside the range
// the decision is the one above, unchanged, and outside it no point could
// have been seen. Why the range holds them all:
//
//   - The per-point code calls a point seen only where its computed cosine is
//     at least the computed threshold less guardBand, or where the predicate
//     decides. Those values are good to 1e-14 wherever no square underflows,
//     so the exact angle φ to the point is then within acos(1 − guardBand −
//     1e-12) = 4.48e-5 rad of the threshold angle: φ ≤ θ/2 + 4.48e-5 plain,
//     and φ ≤ θ/2 + 4.48e-5 + asin(r/‖v‖) dilated, which (asin < π/2) puts
//     the point within r of the cone of half angle θ/2 + 4.48e-5 at the
//     apex. A dilated threshold is rounded worse only where r/‖v‖ is within
//     1e-6 of 1, and any such point (and any with no threshold, r/‖v‖ ≥ 1)
//     is within r' = r(1 + 2e-6) of the apex.
//   - So every such point lies in C ⊕ B(r'), C the cone of half angle
//     H = θ/2 + 1e-4 at the camera, and C ⊕ B(r') lies inside the cone of the
//     same half angle whose apex is moved back along the view axis by
//     d = r'/sin H: that cone is convex, holds the ball B(pos, r') (pos is
//     d from its apex on its axis) and with it every translate of that ball
//     along a direction of C. The apex is moved back a further 1e-9·(d + ‖pos‖)
//     so that it can be rounded and still hold the exact one's cone, and so
//     that a ball round the camera lies inside it: points too close to the
//     camera for their cosines to be trusted are in every row range. Its
//     cosine, less 1e-9, covers the rounding of the axis.
//   - A cone of half angle under π/2 meets a line in one interval: along a
//     row, g(u) = â·v(u) − c·‖v(u)‖ (v(u) from the moved apex to the point at
//     x = u) is concave, and the cone is g ≥ 0. A row whose line misses the
//     cone (Cauchy–Schwarz: sup g < 0) is skipped with a squared compare. On
//     the others, a point with g < 0 where g rises toward the interval bounds
//     the whole row beyond it by concavity (g lies under its tangent), so the
//     range is scanned out from where g peaks to the first such point on each
//     side. Every compare carries a tolerance (1e-12, relative to the sizes of
//     its terms) above the 1e-14 of its rounding, so each certifies the exact
//     statement it stands for.
//   - Wherever these bounds do not hold — θ/2 ≤ 0 or θ/2 + 1e-4 within
//     1e-6 of π/2, a camera at a NaN, infinite, zero-length or enormous
//     position, a dilated r < 0 or NaN, an apex moved past 1e100 — every
//     row is taken whole.
//
// The seen points go into a bitmap, one bit per lattice point and whole
// uint64 words per lattice row. A block is seen when one of its corners is,
// so a block row's seen blocks are its four lattice rows OR'd together as
// m | m>>1, plus the camera-inside boxes; the ids are read off those words
// in ascending order.

import (
	"math"
	"math/bits"
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
// corner planes along each axis, a bitmap of the lattice points the cones
// see (wpr words per lattice row), one word run per block row for the ids,
// and the blocks each cone's camera is inside.
type lattice struct {
	xs, ys, zs []float64
	wpr        int
	seen       []uint64
	rows       []uint64
	boxes      []box
	// decided counts the lattice points the per-point code looked at: the
	// work the row ranges leave.
	decided int
}

// box is the half-open block range, per axis, of a camera-inside test.
type box struct{ x0, x1, y0, y1, z0, z1 int }

// maxFreeLattices bounds the spent scratches kept for reuse, above the
// visible sets computed at once: a frame's lookup, the prefetch planner's,
// the server's sessions. A free list, not a sync.Pool: a Pool's Get on
// another P misses the scratch the last Put left in the first P's private
// slot, so how often a warm lookup allocated depended on the scheduler.
const maxFreeLattices = 16

var lattices struct {
	mu   sync.Mutex
	free []*lattice
}

// newLattice takes a spent scratch, or a new one, sized for g, with no point
// seen. The planes are the values WorldBounds returns, bit for bit: plane i
// sits at voxel min(i·block, res), mapped by VoxelToWorld.
func newLattice(g *grid.Grid) *lattice {
	lattices.mu.Lock()
	var l *lattice
	if n := len(lattices.free); n > 0 {
		l = lattices.free[n-1]
		lattices.free = lattices.free[:n-1]
	}
	lattices.mu.Unlock()
	if l == nil {
		l = new(lattice)
	}
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
	l.wpr = nb.X>>6 + 1
	l.seen = resize(l.seen, (nb.Y+1)*(nb.Z+1)*l.wpr)
	clear(l.seen)
	l.rows = resize(l.rows, nb.Y*nb.Z*((nb.X+63)>>6))
	l.boxes = l.boxes[:0]
	l.decided = 0
	return l
}

func resize(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func (l *lattice) release() {
	lattices.mu.Lock()
	if len(lattices.free) < maxFreeLattices {
		lattices.free = append(lattices.free, l)
	}
	lattices.mu.Unlock()
}

// mark records every lattice point the cone sees and the blocks its camera
// is inside the r-padded box of: blockVisible (dilatedVisible) over the
// whole grid, once appendIDs combines them. It returns how many lattice
// points went to the predicate.
func (l *lattice) mark(c cone) (fallbacks int) {
	axis := c.pos.Neg()
	na := axis.Norm()
	// The cosine form needs θ/2 + asin(s) inside acos's range [0, π] and a
	// view axis (AngleBetween calls the angle to a zero vector 0); NaN
	// thresholds otherwise, which no cosine compares above or below.
	cosH, sinH := math.NaN(), math.NaN()
	if h := c.theta / 2; h > 0 && h < math.Pi/2 && na != 0 {
		cosH, sinH = math.Cos(h), math.Sin(h)
	}
	rc := newRowCone(c, na)
	bitmap := l.seen
	for _, z := range l.zs {
		for _, y := range l.ys {
			row := bitmap[:l.wpr]
			bitmap = bitmap[l.wpr:]
			lo, hi := rc.span(l.xs, y, z)
			if lo >= hi {
				continue
			}
			l.decided += hi - lo
			vy, vz := y-c.pos.Y, z-c.pos.Z
			for i, x := range l.xs[lo:hi] {
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
				if seen {
					i += lo
					row[i>>6] |= 1 << (i & 63)
				}
			}
		}
	}
	x0, x1 := containing(l.xs, c.pos.X, c.r)
	y0, y1 := containing(l.ys, c.pos.Y, c.r)
	z0, z1 := containing(l.zs, c.pos.Z, c.r)
	if x0 < x1 && y0 < y1 && z0 < z1 {
		l.boxes = append(l.boxes, box{x0, x1, y0, y1, z0, z1})
	}
	return fallbacks
}

// rangeWiden is the angle the row ranges' cone is wider than θ/2 by: more
// than the 4.48e-5 rad the guard band and the rounding can move a decision.
const rangeWiden = 1e-4

// rowCone is the convex cone the row ranges are cut from (see the file
// comment): apex q, unit axis a, and c, the cosine of its half angle less
// the rounding margins. whole marks a cone with no safe bound.
type rowCone struct {
	q, a vec.V3
	c    float64
	// skip is c² less a tolerance: a row whose line has
	// a.X²ρ² + max(w, 0)² under skip·ρ² misses the cone. out2 is
	// (c − 1e-12)²: a point whose â·v is negative or has a square under
	// out2·‖v‖² has g < 0.
	skip, out2 float64
	// peak is where g tops out along a row, from the foot of the apex's
	// perpendicular, per unit ρ: a.X/√(c² − a.X²), and ±Inf where g keeps
	// rising toward one end (|a.X| ≥ c).
	peak  float64
	whole bool
}

// newRowCone builds c's range cone; na is ‖c.pos‖.
func newRowCone(c cone, na float64) rowCone {
	h := c.theta / 2
	hw := h + rangeWiden
	r := 0.0
	if c.dilated {
		r = c.r * (1 + 2e-6)
	}
	// Negated so that NaN takes the whole row too.
	if !(h > 0 && hw < math.Pi/2 && na >= 1e-100 && na <= 1e100 && r >= 0) {
		return rowCone{whole: true}
	}
	d := r / math.Sin(hw)
	back := d*(1+1e-9) + 1e-9*na
	rc := rowCone{
		q: c.pos.Scale(1 + back/na),
		a: c.pos.Scale(-1 / na),
		c: math.Cos(hw) - 1e-9,
	}
	if !(rc.c >= 1e-6 && math.Abs(rc.q.X) <= 1e100 && math.Abs(rc.q.Y) <= 1e100 && math.Abs(rc.q.Z) <= 1e100) {
		return rowCone{whole: true}
	}
	rc.skip = rc.c*rc.c - 1e-12
	rc.out2 = (rc.c - 1e-12) * (rc.c - 1e-12)
	if ax := rc.a.X; math.Abs(ax) < rc.c {
		rc.peak = ax / math.Sqrt(rc.c*rc.c-ax*ax)
	} else {
		rc.peak = math.Copysign(math.Inf(1), ax)
	}
	return rc
}

// span returns the half-open range of indices into xs, the lattice row at
// (y, z), outside which no point lies in the cone.
func (rc *rowCone) span(xs []float64, y, z float64) (lo, hi int) {
	if rc.whole {
		return 0, len(xs)
	}
	rho2, w := rc.row(y, z)
	// By Cauchy–Schwarz the cosine along the line never exceeds
	// √(a.X² + max(w, 0)²/ρ²). Below 1e-200 the squares may underflow, and
	// the row is scanned instead.
	if wp := max(w, 0); rho2 >= 1e-200 && rc.a.X*rc.a.X*rho2+wp*wp < rc.skip*rho2 {
		return 0, 0
	}
	// Start where g peaks; NaN lands on index 0.
	n := len(xs) - 1
	seed := 0
	if s := (rc.q.X + math.Sqrt(rho2)*rc.peak - xs[0]) / (xs[n] - xs[0]) * float64(n); s > 0 {
		seed = n
		if s < float64(n) {
			seed = int(s)
		}
	}
	return rc.scan(xs, rho2, w, seed)
}

// row returns ρ², the squared distance from the apex to the line of the
// lattice row at (y, z), and w, the part of â·v that does not vary along it.
func (rc *rowCone) row(y, z float64) (rho2, w float64) {
	vy, vz := y-rc.q.Y, z-rc.q.Z
	return vy*vy + vz*vz, rc.a.Y*vy + rc.a.Z*vz
}

// scan widens the range out from seed, on each side up to the first point
// that bounds the row. seed sets what the scan costs, not its answer.
func (rc *rowCone) scan(xs []float64, rho2, w float64, seed int) (lo, hi int) {
	lo = seed
	for lo >= 0 && !rc.bounds(xs[lo], rho2, w, 1) {
		lo--
	}
	hi = seed + 1
	for hi < len(xs) && !rc.bounds(xs[hi], rho2, w, -1) {
		hi++
	}
	return lo + 1, hi
}

// bounds reports whether the point at x on the row (ρ², w) certifies that
// no point beyond it lies in the cone: g(x) < 0 and g rising toward the
// inside, dir = 1 for a point bounding the row's left end, -1 its right. g is
// concave, so it lies under its tangent there. A point inside the cone is
// told apart by a squared compare, with no root.
func (rc *rowCone) bounds(x, rho2, w, dir float64) bool {
	u := x - rc.q.X
	dot, n2 := rc.a.X*u+w, u*u+rho2
	if dot >= 0 && dot*dot >= rc.out2*n2 {
		return false
	}
	n := math.Sqrt(n2)
	return dir*(rc.a.X*n-rc.c*u) > 1e-12*n
}

// containing returns the half-open range of blocks along one axis whose
// r-padded extent holds p, by the comparisons blockVisible makes. The planes
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

// appendIDs appends the seen blocks to dst in ascending order. Where dst
// lacks the room, it is copied once into a slice of exactly the length
// needed, which is counted first.
func (l *lattice) appendIDs(dst []grid.BlockID) []grid.BlockID {
	nx, ny, nz := len(l.xs)-1, len(l.ys)-1, len(l.zs)-1
	seen, rows, boxes := l.seen, l.rows, l.boxes
	wpr, wpb := l.wpr, (nx+63)>>6
	plane := (ny + 1) * wpr          // the lattice rows at one z
	last := ^uint64(0) >> (-nx & 63) // the blocks of a row's last word
	n, out := 0, 0
	for bz := 0; bz < nz; bz++ {
		for by := 0; by < ny; by++ {
			// The four lattice rows at the block row's corners are p, p+wpr,
			// p+plane and p+plane+wpr. A word's last block takes its right
			// corner from the next word's first point, so the words go right
			// to left.
			p := bz*plane + by*wpr
			var next uint64
			for w := wpr - 1; w >= 0; w-- {
				m := seen[p+w] | seen[p+wpr+w] | seen[p+plane+w] | seen[p+plane+wpr+w]
				if w < wpb {
					rows[out+w] = m | m>>1 | next<<63
				}
				next = m
			}
			rows[out+wpb-1] &= last
			for _, b := range boxes {
				if by >= b.y0 && by < b.y1 && bz >= b.z0 && bz < b.z1 {
					setBits(rows[out:out+wpb], b.x0, b.x1)
				}
			}
			for _, m := range rows[out : out+wpb] {
				n += bits.OnesCount64(m)
			}
			out += wpb
		}
	}
	if cap(dst)-len(dst) < n {
		dst = append(make([]grid.BlockID, 0, len(dst)+n), dst...)
	}
	k := len(dst)
	dst = dst[:k+n]
	for i, m := range rows {
		if m == 0 {
			continue
		}
		for base := i/wpb*nx + i%wpb<<6; m != 0; m &= m - 1 {
			dst[k] = grid.BlockID(base + bits.TrailingZeros64(m))
			k++
		}
	}
	return dst
}

// setBits sets bits [from, to) of words.
func setBits(words []uint64, from, to int) {
	for from < to {
		end := min(to, from&^63+64)
		words[from>>6] |= ^uint64(0) >> (64 - (end - from)) << (from & 63)
		from = end
	}
}

// appendVisibleSet appends to dst the union over cones of the blocks each
// one sees.
func appendVisibleSet(dst []grid.BlockID, g *grid.Grid, cones ...cone) []grid.BlockID {
	l := newLattice(g)
	defer l.release()
	for _, c := range cones {
		l.mark(c)
	}
	return l.appendIDs(dst)
}
