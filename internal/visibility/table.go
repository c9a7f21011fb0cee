package visibility

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/radius"
	"repro/internal/vec"
)

// Options configures T_visible construction.
type Options struct {
	// NAzimuth, NElevation, NDistance define the Ω sampling lattice: keys
	// are placed at every (azimuth, elevation, distance) combination, so
	// the total sampling-position count is the product.
	NAzimuth, NElevation, NDistance int
	// RMin, RMax bound the camera distance range of Ω. RMin must exceed the
	// volume's enclosing radius for cameras to stay outside the data.
	RMin, RMax float64
	// ViewAngle is the full frustum angle θ, radians.
	ViewAngle float64
	// Radius picks the vicinal radius r per sampling position (§V-B2).
	Radius radius.Strategy
}

// validate checks the options and returns the number of keys they define.
// The comparisons are written so that NaN fails them.
func (o Options) validate() (numKeys int, err error) {
	numKeys = 1
	for _, d := range []int{o.NAzimuth, o.NElevation, o.NDistance} {
		if d < 1 || numKeys > math.MaxInt/d {
			return 0, fmt.Errorf("visibility: lattice %dx%dx%d must be positive and its product fit an int",
				o.NAzimuth, o.NElevation, o.NDistance)
		}
		numKeys *= d
	}
	if !(o.RMin > 0 && o.RMax >= o.RMin) || math.IsInf(o.RMax, 1) {
		return 0, fmt.Errorf("visibility: bad distance range [%g, %g]", o.RMin, o.RMax)
	}
	if !(o.ViewAngle > 0 && o.ViewAngle < math.Pi) {
		return 0, fmt.Errorf("visibility: view angle %g out of (0, π)", o.ViewAngle)
	}
	if o.Radius == nil {
		return 0, fmt.Errorf("visibility: nil radius strategy")
	}
	return numKeys, nil
}

// Table is the paper's T_visible: sampling camera positions in Ω keyed by
// <view direction l, distance d>, each mapped to the set of blocks visible
// from its vicinal area φ. Lookup finds the nearest sampled position.
//
// The paper computes every key offline (§IV-B); here a key's set is a pure
// function of the grid, the lattice, θ, the radius and the key, computed on
// each AppendSet and kept by no one but the caller, because a path visits a
// few hundred keys of tables up to 108,000 (Fig. 7). The table holds no
// per-key state, so it is safe for concurrent use and costs nothing per key.
type Table struct {
	g       *grid.Grid
	opts    Options
	numKeys int
}

// NewTable validates options and returns a T_visible for the grid. It
// computes no set.
func NewTable(g *grid.Grid, opts Options) (*Table, error) {
	n, err := opts.validate()
	if err != nil {
		return nil, err
	}
	return &Table{g: g, opts: opts, numKeys: n}, nil
}

// NumKeys returns the total number of sampling positions.
func (t *Table) NumKeys() int { return t.numKeys }

// Grid returns the block grid the table was built over.
func (t *Table) Grid() *grid.Grid { return t.g }

// KeyPos returns the world-space camera position of key i.
func (t *Table) KeyPos(i int) vec.V3 {
	az, el, dist := t.keyCoords(i)
	return vec.FromSpherical(vec.Spherical{
		Azimuth:   2 * math.Pi * (float64(az) + 0.5) / float64(t.opts.NAzimuth),
		Elevation: -math.Pi/2 + math.Pi*(float64(el)+0.5)/float64(t.opts.NElevation),
		R:         t.distAt(dist),
	})
}

func (t *Table) distAt(k int) float64 {
	if t.opts.NDistance == 1 {
		return (t.opts.RMin + t.opts.RMax) / 2
	}
	return t.opts.RMin + (t.opts.RMax-t.opts.RMin)*(float64(k)+0.5)/float64(t.opts.NDistance)
}

func (t *Table) keyCoords(i int) (az, el, dist int) {
	az = i % t.opts.NAzimuth
	i /= t.opts.NAzimuth
	el = i % t.opts.NElevation
	dist = i / t.opts.NElevation
	return az, el, dist
}

func (t *Table) keyIndex(az, el, dist int) int {
	return az + t.opts.NAzimuth*(el+t.opts.NElevation*dist)
}

// NearestKey returns the index of the sampling position closest to pos in
// the <direction, distance> lattice. The lattice structure makes this O(1):
// the paper's linear-scan lookup cost is *charged* by the simulator
// (internal/sim) instead of being paid in wall-clock time.
func (t *Table) NearestKey(pos vec.V3) int {
	s := vec.ToSpherical(pos)
	az := int(s.Azimuth / (2 * math.Pi) * float64(t.opts.NAzimuth))
	az = ((az % t.opts.NAzimuth) + t.opts.NAzimuth) % t.opts.NAzimuth
	el := int((s.Elevation + math.Pi/2) / math.Pi * float64(t.opts.NElevation))
	el = clampInt(el, 0, t.opts.NElevation-1)
	var dist int
	if t.opts.NDistance > 1 {
		dist = int((s.R - t.opts.RMin) / (t.opts.RMax - t.opts.RMin) * float64(t.opts.NDistance))
		dist = clampInt(dist, 0, t.opts.NDistance-1)
	}
	return t.keyIndex(az, el, dist)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// AppendSet appends key i's set S_v to dst and returns it: the sorted ids
// of the blocks visible from anywhere within the vicinal radius of the key's
// position (the analytic cone dilation, §IV-B). The paper's clamp of
// over-predicted sets (§IV-C) is the planner's σ filter and budget, not
// the table's.
func (t *Table) AppendSet(dst []grid.BlockID, i int) []grid.BlockID {
	pos := t.KeyPos(i)
	r := t.opts.Radius.Radius(t.opts.ViewAngle, pos.Norm())
	return appendVisibleSet(dst, t.g, cone{pos: pos, theta: t.opts.ViewAngle, r: r, dilated: true})
}

// LatticeForTotal returns lattice dimensions (nAz, nEl, nDist) whose product
// approximates the requested total sampling-position count, holding the
// distance-ring count fixed and keeping azimuth ≈ 2× elevation (matching the
// 2:1 span ratio of the angular domain).
func LatticeForTotal(total, nDist int) (nAz, nEl, nDistOut int) {
	if nDist < 1 {
		nDist = 1
	}
	if total < nDist*2 {
		total = nDist * 2
	}
	perRing := float64(total) / float64(nDist)
	nEl = int(math.Round(math.Sqrt(perRing / 2)))
	if nEl < 1 {
		nEl = 1
	}
	nAz = int(math.Round(perRing / float64(nEl)))
	if nAz < 1 {
		nAz = 1
	}
	return nAz, nEl, nDist
}
