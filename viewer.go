package vizcache

import (
	"fmt"
	"io"

	"repro/internal/camera"
	"repro/internal/entropy"
	"repro/internal/grid"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/vec"
	"repro/internal/visibility"
)

// ViewerOptions configures an interactive Viewer session.
type ViewerOptions struct {
	// Blocks is the approximate number of blocks to partition the dataset
	// into (default 1024). BlockSize overrides it when non-zero.
	Blocks    int
	BlockSize Dims
	// ViewAngleDeg is the full frustum angle (default 10°).
	ViewAngleDeg float64
	// CacheRatio between successive memory levels (default 0.5).
	CacheRatio float64
	// SigmaQuantile selects the entropy threshold σ as the fraction of
	// blocks above it (default 0.75).
	SigmaQuantile float64
	// Variable selects the rendered/scored variable (default 0).
	Variable int
	// DistanceRange bounds the exploration domain Ω ([min, max] camera
	// distances); the default covers [1.2, 2.4]× the volume's enclosing
	// radius.
	DistanceRange [2]float64
	// SamplingPositions sizes T_visible (default 25,920, the paper's
	// Fig. 7 sweet spot).
	SamplingPositions int
	// TransferFunc used by RenderPNG (default Grayscale).
	TransferFunc TransferFunc
}

func (o ViewerOptions) withDefaults(g *grid.Grid) ViewerOptions {
	if o.Blocks == 0 {
		o.Blocks = 1024
	}
	if o.ViewAngleDeg == 0 {
		o.ViewAngleDeg = 10
	}
	if o.CacheRatio == 0 {
		o.CacheRatio = 0.5
	}
	if o.SigmaQuantile == 0 {
		o.SigmaQuantile = 0.75
	}
	if o.DistanceRange == ([2]float64{}) {
		r := g.EnclosingRadius()
		o.DistanceRange = [2]float64{1.2 * r, 2.4 * r}
	}
	if o.SamplingPositions == 0 {
		o.SamplingPositions = 25920
	}
	if o.TransferFunc == nil {
		o.TransferFunc = Grayscale
	}
	return o
}

// FrameStats reports one Goto step.
type FrameStats = sim.FrameStats

// Viewer is an interactive out-of-core visualization session: it owns the
// block grid, the importance and visibility tables, the simulator's
// application-aware executor over its memory hierarchy, and a software
// renderer. It is not safe for concurrent use.
type Viewer struct {
	ds   *Dataset
	g    *grid.Grid
	imp  *entropy.Table
	vis  *visibility.Table
	s    *sim.Session
	opts ViewerOptions

	pos     vec.V3
	visible []grid.BlockID
}

// NewViewer prepares an interactive session: partitions the dataset, builds
// T_important and T_visible, sizes the DRAM/SSD/HDD hierarchy, and pre-loads
// important blocks per Algorithm 1.
func NewViewer(ds *Dataset, opts ViewerOptions) (*Viewer, error) {
	if ds == nil {
		return nil, fmt.Errorf("vizcache: nil dataset")
	}
	probe := opts
	if probe.Blocks == 0 {
		probe.Blocks = 1024
	}
	var g *grid.Grid
	var err error
	if probe.BlockSize != (Dims{}) {
		g, err = ds.Grid(probe.BlockSize)
	} else {
		g, err = ds.GridWithBlockCount(probe.Blocks)
	}
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults(g)

	imp := entropy.Build(ds, g, entropy.Options{Variable: opts.Variable})
	nAz, nEl, nDist := visibility.LatticeForTotal(opts.SamplingPositions, 10)
	theta := vec.Radians(opts.ViewAngleDeg)
	vis, err := visibility.NewTable(g, visibility.Options{
		NAzimuth:   nAz,
		NElevation: nEl,
		NDistance:  nDist,
		RMin:       opts.DistanceRange[0],
		RMax:       opts.DistanceRange[1],
		ViewAngle:  theta,
		Radius:     sim.DefaultRadiusStrategy(sim.Config{CacheRatio: opts.CacheRatio}),
	})
	if err != nil {
		return nil, err
	}
	s, err := sim.NewAppAware(
		sim.Config{Dataset: ds, Grid: g, ViewAngle: theta, CacheRatio: opts.CacheRatio},
		sim.AppAwareConfig{Visible: vis, Importance: imp, SigmaQuantile: opts.SigmaQuantile},
	)
	if err != nil {
		return nil, err
	}
	return &Viewer{ds: ds, g: g, imp: imp, vis: vis, s: s, opts: opts}, nil
}

// Grid returns the viewer's block grid.
func (v *Viewer) Grid() *Grid { return v.g }

// Goto moves the camera to pos: the visible set is computed, missing blocks
// are fetched under the application-aware policy, and the vicinity's
// predicted blocks are prefetched.
func (v *Viewer) Goto(pos V3) FrameStats {
	cam := camera.Camera{Pos: pos, ViewAngle: vec.Radians(v.opts.ViewAngleDeg)}
	v.visible = visibility.AppendVisibleSet(v.visible[:0], v.g, cam)
	v.pos = pos
	return v.s.Step(pos, v.visible)
}

// Visible returns the current view point's visible blocks (nil before the
// first Goto). The slice is owned by the viewer and valid until the next
// Goto, which refills it in place.
func (v *Viewer) Visible() []BlockID { return v.visible }

// Metrics summarizes the session so far: what RunAppAware reports for the
// same path and tables, without the trace.
func (v *Viewer) Metrics() Metrics { return v.s.Metrics() }

// RenderPNG ray-casts the current view point into a width×height PNG.
func (v *Viewer) RenderPNG(w io.Writer, width, height int) error {
	if v.s.Metrics().Steps == 0 {
		return fmt.Errorf("vizcache: RenderPNG before any Goto")
	}
	rd := &render.Renderer{
		DS:       v.ds,
		G:        v.g,
		Variable: v.opts.Variable,
		TF:       v.opts.TransferFunc,
	}
	frame := rd.Render(v.pos, vec.Radians(v.opts.ViewAngleDeg), width, height)
	return frame.WritePNG(w)
}
