// Package sim drives a camera path through a simulated memory hierarchy
// under a replacement policy and collects the paper's metrics: total miss
// rate across the hierarchy, I/O time, prefetch time, render time, and
// total time. One executor, Session, carries out every policy: baseline
// policies (FIFO, LRU, …) pay I/O + render per step; the application-aware
// policy overlaps prefetching with rendering, so its step cost is
// I/O + max(render, prefetch + lookup) (§V-D).
package sim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/entropy"
	"repro/internal/grid"
	"repro/internal/radius"
	"repro/internal/render"
	"repro/internal/trace"
	"repro/internal/visibility"
	"repro/internal/volume"
)

// Config describes one simulation run.
type Config struct {
	Dataset *volume.Dataset
	Grid    *grid.Grid
	Path    camera.Path
	// ViewAngle is the full frustum angle θ in radians.
	ViewAngle float64
	// CacheRatio is the capacity ratio between successive memory levels
	// (§V-A: 0.5 → SSD = 50%, DRAM = 25% of the dataset).
	CacheRatio float64
	// Render is the per-frame rendering cost model; the zero value selects
	// render.DefaultCostModel.
	Render render.CostModel
}

var errEmptyPath = errors.New("sim: empty camera path")

// validate checks what a Session needs; the path is the Run functions'.
func (c Config) validate() error {
	if c.Dataset == nil || c.Grid == nil {
		return fmt.Errorf("sim: nil dataset or grid")
	}
	if c.ViewAngle <= 0 {
		return fmt.Errorf("sim: view angle %g", c.ViewAngle)
	}
	if c.CacheRatio <= 0 || c.CacheRatio >= 1 {
		return fmt.Errorf("sim: cache ratio %g out of (0, 1)", c.CacheRatio)
	}
	return nil
}

func (c Config) renderModel() render.CostModel {
	if c.Render == (render.CostModel{}) {
		return render.DefaultCostModel()
	}
	return c.Render
}

// Metrics is the outcome of one run.
type Metrics struct {
	Policy string
	Steps  int
	// MissRate is total misses over total probes across all hierarchy
	// levels; DRAMMissRate restricts to the fastest level.
	MissRate     float64
	DRAMMissRate float64
	// IOTime is demand I/O (time to load missed blocks), including lookup
	// overhead for the app-aware policy (Fig. 7 counts it there).
	IOTime time.Duration
	// QueryTime is the T_visible lookup share of IOTime (0 for baselines).
	QueryTime time.Duration
	// PrefetchTime is the transfer time spent prefetching (overlappable).
	PrefetchTime time.Duration
	// RenderTime is the modeled total rendering time.
	RenderTime time.Duration
	// TotalTime is the end-to-end interactive session time: per step,
	// baselines pay io + render; the app-aware policy pays
	// io + max(render, prefetch + query).
	TotalTime time.Duration
	// DemandFetches counts demand block transfers; Prefetches counts
	// prefetched block transfers.
	DemandFetches int
	Prefetches    int
	// MeanVisible is the average visible-set size per step.
	MeanVisible float64
	// Trace is the recorded visible-block request stream (one group per
	// view point), usable for offline Belady replay.
	Trace *trace.Trace
}

// RunBaseline simulates the path under a conventional replacement policy
// (the paper's FIFO and LRU comparators, or any other cache.Factory).
func RunBaseline(cfg Config, factory cache.Factory, name string) (Metrics, error) {
	if cfg.Path.Len() == 0 {
		return Metrics{}, errEmptyPath
	}
	s, err := NewBaseline(cfg, factory, name)
	if err != nil {
		return Metrics{}, err
	}
	return run(cfg, s), nil
}

// run steps s along cfg's path and returns its Metrics with the visible-set
// trace.
func run(cfg Config, s *Session) Metrics {
	tr := &trace.Trace{}
	var visible []grid.BlockID
	for _, pos := range cfg.Path.Steps {
		visible = visibility.AppendVisibleSet(visible[:0], cfg.Grid, camera.Camera{Pos: pos, ViewAngle: cfg.ViewAngle})
		tr.Append(visible)
		s.Step(pos, visible)
	}
	m := s.Metrics()
	m.Trace = tr
	return m
}

// AppAwareConfig carries the application-aware policy's inputs. Zero-value
// fields are built automatically from the Config.
type AppAwareConfig struct {
	// Visible is T_visible; when nil it is built from TableOpts.
	Visible *visibility.Table
	// TableOpts configures table construction when Visible is nil. The
	// zero value selects DefaultTableOptions for the run.
	TableOpts visibility.Options
	// Importance is T_important; built with default options when nil.
	Importance *entropy.Table
	// SigmaQuantile selects σ as the entropy threshold keeping the top
	// fraction of blocks (default 0.75).
	SigmaQuantile float64
	// Policy toggles Algorithm 1's phases; nil enables all three.
	Policy *Options
	// WindowedPrefetch bounds each step's prefetching to the frame's
	// render time (a real system stops speculating when the frame is
	// done). The paper's implementation is unbounded — that is what
	// produces the Fig. 13(a) crossover where OPT loses beyond 10° at
	// cache ratio 0.5 — so this defaults to false; the ablation study
	// quantifies the improvement.
	WindowedPrefetch bool
	// PrefetchBatch overrides the hierarchy's prefetch latency
	// amortization (0 keeps the default of 16). Set 1 to model the
	// paper's synchronous per-block prefetcher, whose full per-read seek
	// cost is what makes over-prediction expensive in Fig. 13(a).
	PrefetchBatch int
}

// DefaultTableOptions returns T_visible construction options sized for the
// run: ~26k sampling positions (the paper's Fig. 7 sweet spot), distance
// range covering the path, Eq. (6) dynamic radius with the path step as a
// floor, lazy materialization.
func DefaultTableOptions(cfg Config) visibility.Options {
	nAz, nEl, nDist := visibility.LatticeForTotal(25920, 10)
	rMin, rMax := pathDistanceRange(cfg.Path)
	return visibility.Options{
		NAzimuth:   nAz,
		NElevation: nEl,
		NDistance:  nDist,
		RMin:       rMin,
		RMax:       rMax,
		ViewAngle:  cfg.ViewAngle,
		Radius:     DefaultRadiusStrategy(cfg),
		Lazy:       true,
	}
}

// DefaultRadiusStrategy returns Eq. (6) with ρ = CacheRatio² (fast memory as
// a fraction of the dataset, since DRAM = ratio × SSD = ratio² × data) and
// the path's maximum step distance as the floor the paper requires (§IV-B:
// the vicinal area must contain the next camera position).
func DefaultRadiusStrategy(cfg Config) radius.Strategy {
	return radius.Dynamic{
		Ratio: cfg.CacheRatio * cfg.CacheRatio,
		Min:   cfg.Path.MaxStepDistance(),
	}
}

func pathDistanceRange(p camera.Path) (rMin, rMax float64) {
	rMin, rMax = 1e18, 0
	for _, s := range p.Steps {
		r := s.Norm()
		if r < rMin {
			rMin = r
		}
		if r > rMax {
			rMax = r
		}
	}
	if rMax <= 0 {
		return 1, 2
	}
	// Widen slightly so lattice edges are not degenerate.
	return rMin * 0.99, rMax*1.01 + 1e-9
}

// RunAppAware simulates the path under the paper's Algorithm 1.
func RunAppAware(cfg Config, ac AppAwareConfig) (Metrics, error) {
	if cfg.Path.Len() == 0 {
		return Metrics{}, errEmptyPath
	}
	s, err := NewAppAware(cfg, ac)
	if err != nil {
		return Metrics{}, err
	}
	return run(cfg, s), nil
}
