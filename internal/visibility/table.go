package visibility

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/entropy"
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
	// VicinalSamples > 0 computes the vicinal union exactly from that many
	// jitter points (faithful to §IV-B but expensive); 0 uses the analytic
	// cone-dilation approximation.
	VicinalSamples int
	// Lazy defers per-key visible-set computation until first lookup.
	// Contents are identical either way; lazy mode keeps huge tables
	// (Fig. 7 sweeps up to 108,000 keys) affordable when a path only
	// visits a few hundred keys. PredictedSet memoizes what it computes;
	// AppendSet does not, so a lazy table read only through a policy
	// planner, which keeps its own ranked list per key, keeps no sets.
	Lazy bool
	// QueryCostPerKey models the per-entry cost of searching the lookup
	// table; the total per-query charge is QueryCostPerKey × NumKeys. This
	// is the overhead that makes over-dense sampling lose in Fig. 7(b).
	// Default 25ns.
	QueryCostPerKey time.Duration
	// Clamp, when set, keeps only the most important blocks of each key's
	// set (§IV-C: over-predicted sets are reduced by entropy rank).
	Clamp *Clamp
}

// Clamp bounds per-key set sizes by importance.
type Clamp struct {
	// Importance ranks blocks; must cover the table's grid.
	Importance *entropy.Table
	// MaxBlocks is the per-key cap (≤ 0 disables clamping).
	MaxBlocks int
}

func (o Options) withDefaults() Options {
	if o.QueryCostPerKey == 0 {
		o.QueryCostPerKey = 25 * time.Nanosecond
	}
	return o
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
// Lazy materialization is sharded per key (one sync.Once each) rather than
// serialized behind a table-wide lock, so concurrent frames looking up
// different — or already-computed — keys never contend: the steady-state
// lookup is a single atomic load.
type Table struct {
	g    *grid.Grid
	opts Options

	sets [][]grid.BlockID // indexed by key; written once inside once[i]
	once []sync.Once
	done []atomic.Bool
}

// NewTable validates options and returns a T_visible for the grid. With
// Lazy unset, every key's visible set is materialized in parallel now.
func NewTable(g *grid.Grid, opts Options) (*Table, error) {
	opts = opts.withDefaults()
	n, err := opts.validate()
	if err != nil {
		return nil, err
	}
	t := &Table{
		g:    g,
		opts: opts,
		sets: make([][]grid.BlockID, n),
		once: make([]sync.Once, n),
		done: make([]atomic.Bool, n),
	}
	if !opts.Lazy {
		t.MaterializeAll()
	}
	return t, nil
}

// NumKeys returns the total number of sampling positions.
func (t *Table) NumKeys() int { return len(t.sets) }

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
// the paper's linear-scan lookup cost is *charged* via QueryCost instead of
// being paid in wall-clock time.
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

// QueryCost returns the simulated time of one table lookup under the linear
// scan cost model: per-entry cost × table size. Fig. 7(b)'s I/O-time minimum
// at an intermediate sampling density comes from this term.
func (t *Table) QueryCost() time.Duration {
	return time.Duration(len(t.sets)) * t.opts.QueryCostPerKey
}

// PredictedSet returns the visible-block set S_v of key i, computing and
// memoizing it on first use in lazy mode. Concurrent lookups of distinct
// keys proceed independently; concurrent lookups of one cold key compute it
// once and share the result. The returned slice is shared; callers must not
// modify it.
func (t *Table) PredictedSet(i int) []grid.BlockID {
	t.once[i].Do(func() {
		t.sets[i] = t.appendSet(nil, i)
		t.done[i].Store(true)
	})
	return t.sets[i]
}

// AppendSet appends key i's set, PredictedSet(i)'s ids, to dst and returns
// it. A materialized key's set is copied; an unmaterialized key's is
// computed into dst and not kept by the table, so a caller that keeps what
// it needs of a set (the policy planner's ranked list) is its only holder.
func (t *Table) AppendSet(dst []grid.BlockID, i int) []grid.BlockID {
	if t.Materialized(i) {
		return append(dst, t.sets[i]...)
	}
	return t.appendSet(dst, i)
}

// Materialized reports whether key i's set is memoized: always after
// MaterializeAll, and in lazy mode once PredictedSet has computed it.
func (t *Table) Materialized(i int) bool { return t.done[i].Load() }

// Predict returns the predicted visible set for an arbitrary camera
// position: the set of its nearest sampling position.
func (t *Table) Predict(pos vec.V3) []grid.BlockID {
	return t.PredictedSet(t.NearestKey(pos))
}

// appendSet appends the vicinal-union visible set of key i to dst, with the
// importance clamp applied.
func (t *Table) appendSet(dst []grid.BlockID, i int) []grid.BlockID {
	pos := t.KeyPos(i)
	r := t.opts.Radius.Radius(t.opts.ViewAngle, pos.Norm())
	start := len(dst)
	if t.opts.VicinalSamples > 0 {
		dst = appendVisibleSet(dst, t.g, vicinalCones(pos, t.opts.ViewAngle, r, t.opts.VicinalSamples)...)
	} else {
		dst = appendVisibleSet(dst, t.g, cone{pos: pos, theta: t.opts.ViewAngle, r: r, dilated: true})
	}
	if c := t.opts.Clamp; c != nil && c.MaxBlocks > 0 && len(dst)-start > c.MaxBlocks {
		set := dst[start:]
		slices.SortStableFunc(set, func(a, b grid.BlockID) int {
			if o := cmp.Compare(c.Importance.Score(b), c.Importance.Score(a)); o != 0 {
				return o
			}
			return cmp.Compare(a, b)
		})
		slices.Sort(set[:c.MaxBlocks])
		dst = dst[:start+c.MaxBlocks]
	}
	return dst
}

// MaterializeAll computes every key's set in parallel. It is idempotent.
func (t *Table) MaterializeAll() {
	var next atomic.Int64 // the next key nobody has claimed
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(t.sets)); i = next.Add(1) - 1 {
				t.PredictedSet(int(i))
			}
		}()
	}
	wg.Wait()
}

// MaterializedKeys reports how many keys have computed sets (all of them
// after MaterializeAll; only the visited ones in lazy mode).
func (t *Table) MaterializedKeys() int {
	n := 0
	for i := range t.done {
		if t.Materialized(i) {
			n++
		}
	}
	return n
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
