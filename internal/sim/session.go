package sim

import (
	"time"

	"repro/internal/cache"
	"repro/internal/entropy"
	"repro/internal/grid"
	"repro/internal/memhier"
	"repro/internal/policy"
	"repro/internal/render"
	"repro/internal/vec"
	"repro/internal/visibility"
)

// lookupCostPerKey is the modelled price of searching one T_visible entry:
// a lookup is charged lookupCostPerKey × the table's key count, the paper's
// linear scan, the overhead that makes over-dense sampling lose in
// Fig. 7(b).
const lookupCostPerKey = 25 * time.Nanosecond

// Options switches Algorithm 1's phases on and off for the ablation study;
// RunAppAware enables all three unless told otherwise.
type Options struct {
	// Preload enables the line-7 importance pre-load.
	Preload bool
	// PrefetchEnabled enables the line-22 predictive prefetch.
	PrefetchEnabled bool
	// StaleOnlyEviction restricts replacement to blocks whose last use
	// predates the current view point, Algorithm 1's "value in time should
	// be less than i" (falling back to plain LRU order when no stale block
	// exists).
	StaleOnlyEviction bool
}

// FrameStats reports one Step.
type FrameStats struct {
	// Step is the 0-based view-point index.
	Step int
	// VisibleBlocks is the size of the exact visible set.
	VisibleBlocks int
	// IOTime is the demand I/O spent before the frame could render,
	// including the T_visible lookup.
	IOTime time.Duration
	// PrefetchTime is the overlapped prefetch transfer time.
	PrefetchTime time.Duration
	// Prefetches counts blocks prefetched during this frame.
	Prefetches int
}

// Session is the simulated executor: a DRAM/SSD/HDD hierarchy driven one
// view point at a time, with the Metrics it adds up. Without a planner it is
// a baseline that only fetches on demand; with one it carries out the
// planner's Algorithm 1 decisions in the phases its Options enable. It is
// not safe for concurrent use.
type Session struct {
	h     *memhier.Hierarchy
	plan  *policy.Planner // nil: a baseline
	opts  Options
	model render.CostModel

	// window bounds each step's prefetching to the frame's render time.
	window bool
	// queryCost is the modelled price of one T_visible lookup.
	queryCost time.Duration
	// prefetch is the scratch the planner's list is built in each step.
	prefetch []grid.BlockID

	m          Metrics
	visibleSum int
}

// NewBaseline starts a session of demand fetches under a conventional
// replacement policy, one instance of factory per level, reported as name.
func NewBaseline(cfg Config, factory cache.Factory, name string) (*Session, error) {
	s, err := newSession(cfg, factory)
	if err != nil {
		return nil, err
	}
	s.m.Policy = name
	return s, nil
}

// NewAppAware starts a session under the paper's Algorithm 1 over LRU
// levels, building the tables ac leaves nil; cfg.Path is needed only to size
// a T_visible built here. The pre-load, if enabled, runs now.
func NewAppAware(cfg Config, ac AppAwareConfig) (*Session, error) {
	s, err := newSession(cfg, func() cache.Policy { return cache.NewLRU() })
	if err != nil {
		return nil, err
	}
	imp := ac.Importance
	if imp == nil {
		imp = entropy.Build(cfg.Dataset, cfg.Grid, entropy.Options{})
	}
	vis := ac.Visible
	if vis == nil {
		opts := ac.TableOpts
		if opts == (visibility.Options{}) {
			if cfg.Path.Len() == 0 {
				return nil, errEmptyPath
			}
			opts = DefaultTableOptions(cfg)
		}
		if vis, err = visibility.NewTable(cfg.Grid, opts); err != nil {
			return nil, err
		}
	}
	q := ac.SigmaQuantile
	if q == 0 {
		// Keep the top 75% of blocks above σ by default: aggressive enough
		// that prediction covers ambient corridor blocks, while still
		// excluding the zero-information exterior (calibrated in the
		// ablation sweep).
		q = 0.75
	}
	if s.plan, err = policy.NewPlanner(vis, imp, imp.ThresholdForQuantile(q)); err != nil {
		return nil, err
	}
	s.m.Policy = "OPT(app-aware)"
	s.queryCost = time.Duration(vis.NumKeys()) * lookupCostPerKey
	s.opts = Options{Preload: true, PrefetchEnabled: true, StaleOnlyEviction: true}
	if ac.Policy != nil {
		s.opts = *ac.Policy
	}
	s.window = ac.WindowedPrefetch
	if ac.PrefetchBatch > 0 {
		s.h.PrefetchBatch = ac.PrefetchBatch
	}
	if s.opts.Preload {
		// Line 7, stopping once fast memory is full.
		for _, id := range s.plan.Preload() {
			if !s.h.Fits(0, id) {
				break
			}
			s.h.Preload(0, id)
		}
	}
	return s, nil
}

func newSession(cfg Config, factory cache.Factory) (*Session, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	h, err := memhier.New(
		memhier.StandardConfig(cfg.Dataset.TotalBytes(), cfg.CacheRatio, factory),
		func(id grid.BlockID) int64 {
			return cfg.Grid.Bytes(id, cfg.Dataset.ValueSize, cfg.Dataset.Variables)
		},
	)
	if err != nil {
		return nil, err
	}
	return &Session{h: h, model: cfg.renderModel()}, nil
}

// Step processes the next view point at camera position pos, whose exact
// visible set is visible (computed by the renderer): it fetches the misses
// (Algorithm 1 lines 14–19), then, while the frame renders, prefetches the
// planner's list for the vicinity (lines 20–22). A baseline pays I/O +
// render; Algorithm 1 pays I/O + max(render, prefetch + lookup), because
// prefetching and the table lookup overlap rendering and demand I/O cannot.
func (s *Session) Step(pos vec.V3, visible []grid.BlockID) FrameStats {
	f := FrameStats{Step: s.m.Steps, VisibleBlocks: len(visible)}
	var demand, speculative func(grid.BlockID) bool
	if s.plan != nil {
		demand, speculative = s.plan.BeginFrame(f.Step, visible)
	}
	stale := s.plan != nil && s.opts.StaleOnlyEviction
	if stale {
		// Replacement may only claim blocks whose last use predates this
		// view point, so blocks fetched for it are protected from each
		// other's installs.
		s.restrictVictims(demand, false)
	}
	before := s.h.DemandTime
	for _, id := range visible {
		if s.h.Get(id).FoundLevel > 0 {
			s.m.DemandFetches++
		}
	}
	io := s.h.DemandTime - before
	renderT := s.model.FrameTime(len(visible))

	var query time.Duration
	if s.plan != nil && s.opts.PrefetchEnabled {
		query = s.queryCost
		if stale {
			s.restrictVictims(speculative, true)
		}
		window := time.Duration(0)
		if s.window {
			window = renderT
		}
		s.prefetch = s.plan.Prefetch(s.prefetch[:0], pos, visible, fastLevel{s.h})
		before := s.h.PrefetchTime
		for _, id := range s.prefetch {
			if window > 0 && s.h.PrefetchTime-before >= window {
				break // the frame finished rendering; stop speculating
			}
			s.h.Prefetch(id)
			f.Prefetches++
		}
		f.PrefetchTime = s.h.PrefetchTime - before
	}
	if stale {
		s.restrictVictims(nil, false)
	}

	f.IOTime = io + query
	s.m.Steps++
	s.visibleSum += len(visible)
	s.m.IOTime += f.IOTime
	s.m.QueryTime += query
	s.m.PrefetchTime += f.PrefetchTime
	s.m.RenderTime += renderT
	s.m.TotalTime += io + max(renderT, f.PrefetchTime+query)
	s.m.Prefetches += f.Prefetches
	return f
}

// Metrics summarizes the session so far; its Trace is nil.
func (s *Session) Metrics() Metrics {
	m := s.m
	m.MissRate = s.h.TotalMissRate()
	m.DRAMMissRate = s.h.Levels()[0].MissRate()
	if m.Steps > 0 {
		m.MeanVisible = float64(s.visibleSum) / float64(m.Steps)
	}
	return m
}

// restrictVictims applies one of the planner's replacement rules at every
// cache level (nil lifts it); strict installs are skipped rather than allowed
// a disallowed victim.
func (s *Session) restrictVictims(allowed func(grid.BlockID) bool, strict bool) {
	for l := 0; l < s.h.NumLevels(); l++ {
		s.h.SetEvictFilter(l, allowed, strict)
	}
}

// fastLevel is the planner's view of the hierarchy: level 0.
type fastLevel struct{ h *memhier.Hierarchy }

func (m fastLevel) AppendMissing(dst, ids []grid.BlockID) []grid.BlockID {
	for _, id := range ids {
		if !m.h.Contains(0, id) {
			dst = append(dst, id)
		}
	}
	return dst
}
func (m fastLevel) SizeOf(id grid.BlockID) int64 { return m.h.SizeOf(id) }
func (m fastLevel) Capacity() int64              { return m.h.LevelCapacity(0) }
