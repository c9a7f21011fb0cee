// Package policy implements the paper's primary contribution: the
// application-aware I/O optimization of Algorithm 1. It combines the
// T_visible camera-sampling table (package visibility) and the T_important
// entropy ranking (package entropy), and it separates deciding from doing.
//
// Planner (planner.go, which knows no memory hierarchy) decides every line:
//
//  1. Lines 1–7, Preload: the blocks whose entropy exceeds the threshold σ,
//     most important first, to fill fast memory before the first view point.
//  2. Lines 8–19, BeginFrame: time[] and the replacement rules — a visible
//     block fetched on demand may displace only a block whose last use
//     predates the current view point, protecting the frame's working set.
//  3. Lines 20–22, Prefetch: during rendering, the nearest sampling
//     position's high-entropy predicted blocks, most likely to be used next
//     first, as many as fit beside the frame's visible set (§IV-B, §IV-C).
//
// Executors carry the decisions out. AppAware runs all three on a simulated
// hierarchy (package memhier) and charges its simulated time; ooc.Runtime and
// a blocksvc session run the third on a store.MemCache, offering the list to
// their prefetch queue in the planner's order.
package policy

import (
	"fmt"
	"time"

	"repro/internal/entropy"
	"repro/internal/grid"
	"repro/internal/memhier"
	"repro/internal/vec"
	"repro/internal/visibility"
)

// Options configures the application-aware controller.
type Options struct {
	// Sigma is the entropy threshold σ: only blocks scoring above it are
	// pre-loaded and prefetched. Use entropy.Table.ThresholdForQuantile to
	// derive it from a target fraction.
	Sigma float64
	// Preload enables the line-7 importance pre-load (on by default in the
	// paper; exposed for the ablation study).
	Preload bool
	// PrefetchEnabled enables the line-22 predictive prefetch (ablation).
	PrefetchEnabled bool
	// StaleOnlyEviction restricts replacement to blocks whose last use
	// predates the current view point, Algorithm 1's "value in time should
	// be less than i" (ablation; falls back to plain LRU order when no
	// stale block exists).
	StaleOnlyEviction bool
}

// DefaultOptions returns Algorithm 1 as published: preload, prefetch, and
// stale-only eviction all enabled.
func DefaultOptions(sigma float64) Options {
	return Options{
		Sigma:             sigma,
		Preload:           true,
		PrefetchEnabled:   true,
		StaleOnlyEviction: true,
	}
}

// StepResult reports the simulated costs of one view point.
type StepResult struct {
	// IOTime is the demand I/O spent fetching missing visible blocks
	// (Algorithm 1 lines 14–19). It cannot be overlapped with rendering.
	IOTime time.Duration
	// PrefetchTime is the transfer time of predictive prefetching, which
	// the paper overlaps with rendering.
	PrefetchTime time.Duration
	// QueryCost is the T_visible lookup overhead for this step.
	QueryCost time.Duration
	// DemandFetches counts visible blocks that missed fast memory.
	DemandFetches int
	// Prefetches counts blocks moved by the prefetcher.
	Prefetches int
}

// AppAware executes the Planner's decisions on a simulated memory hierarchy
// and charges their cost to its demand and prefetch time. It is not safe for
// concurrent use.
type AppAware struct {
	h    *memhier.Hierarchy
	plan *Planner
	opts Options

	// queryCost is the modelled price of one T_visible lookup.
	queryCost time.Duration
	// prefetch is the scratch the planner's list is built in each step.
	prefetch []grid.BlockID

	// Prefetch utility accounting: pending marks, by block ID, the blocks
	// prefetched but not yet referenced by a frame; issued/used feed
	// PrefetchUtility.
	pending         []bool
	prefetchsIssued int64
	prefetchsUsed   int64
}

// fastLevel is the planner's view of the hierarchy: level 0.
type fastLevel struct{ h *memhier.Hierarchy }

func (m fastLevel) Contains(id grid.BlockID) bool { return m.h.Contains(0, id) }
func (m fastLevel) SizeOf(id grid.BlockID) int64  { return m.h.SizeOf(id) }
func (m fastLevel) Capacity() int64               { return m.h.LevelCapacity(0) }

// New wires the controller. The hierarchy, T_visible, and T_important must
// all refer to the same block grid.
func New(h *memhier.Hierarchy, vis *visibility.Table, imp *entropy.Table, opts Options) (*AppAware, error) {
	if h == nil {
		return nil, fmt.Errorf("policy: nil component")
	}
	plan, err := NewPlanner(vis, imp, opts.Sigma)
	if err != nil {
		return nil, err
	}
	a := &AppAware{
		h: h, plan: plan, opts: opts,
		queryCost: vis.QueryCost(),
		pending:   make([]bool, vis.Grid().NumBlocks()),
	}
	if opts.Preload {
		// Line 7, stopping once fast memory is full.
		for _, id := range plan.Preload() {
			if !h.Fits(0, id) {
				break
			}
			h.Preload(0, id)
		}
	}
	return a, nil
}

// Name identifies the policy in experiment output; the paper labels it OPT.
func (a *AppAware) Name() string { return "OPT(app-aware)" }

// LastUse returns Algorithm 1's time[] entry for a block (-1 = never used).
func (a *AppAware) LastUse(id grid.BlockID) int { return a.plan.LastUse(id) }

// Step processes view point i at camera position pos whose exact visible
// set is visible (computed by the renderer). It fetches misses, then
// prefetches the predicted set for the vicinity, and reports the cost split
// so the caller can overlap PrefetchTime with its render time.
//
// prefetchWindow bounds the transfer time spent prefetching this step: the
// paper overlaps prefetching with rendering, so a real implementation stops
// issuing prefetches when the frame finishes drawing. Zero means unbounded.
func (a *AppAware) Step(i int, pos vec.V3, visible []grid.BlockID, prefetchWindow time.Duration) StepResult {
	var res StepResult

	// Lines 14–19: fetch missing visible blocks. Replacement may only claim
	// blocks whose last use predates this view point, so blocks already
	// fetched for frame i are protected from each other's installs.
	demand, speculative := a.plan.BeginFrame(i, visible)
	if a.opts.StaleOnlyEviction {
		a.restrictVictims(demand, false)
	}
	demandBefore := a.h.DemandTime
	for _, id := range visible {
		r := a.h.Get(id)
		if r.FoundLevel > 0 {
			res.DemandFetches++
		}
		if a.pending[id] {
			// A previously prefetched block was referenced by a frame: the
			// speculation paid off if it was still resident above the
			// backing store.
			if r.FoundLevel < a.h.NumLevels() {
				a.prefetchsUsed++
			}
			a.pending[id] = false
		}
	}
	res.IOTime = a.h.DemandTime - demandBefore

	// Lines 20–22: during rendering, issue the planner's list in its order,
	// under the strict replacement constraint.
	if a.opts.PrefetchEnabled {
		res.QueryCost = a.queryCost
		if a.opts.StaleOnlyEviction {
			a.restrictVictims(speculative, true)
		}
		a.prefetch = a.plan.Prefetch(a.prefetch[:0], pos, visible, fastLevel{a.h})
		prefetchBefore := a.h.PrefetchTime
		for _, id := range a.prefetch {
			if prefetchWindow > 0 && a.h.PrefetchTime-prefetchBefore >= prefetchWindow {
				break // the frame finished rendering; stop speculating
			}
			a.h.Prefetch(id)
			res.Prefetches++
			if !a.pending[id] {
				a.pending[id] = true
				a.prefetchsIssued++
			}
		}
		res.PrefetchTime = a.h.PrefetchTime - prefetchBefore
	}
	if a.opts.StaleOnlyEviction {
		a.restrictVictims(nil, false)
	}
	return res
}

// PrefetchUtility reports how much speculation paid off: issued counts
// distinct blocks ever prefetched while unreferenced, used counts those
// later referenced by a frame while still cached. Their ratio is the
// prediction's precision — the diagnostic for tuning σ and the vicinal
// radius.
func (a *AppAware) PrefetchUtility() (issued, used int64) {
	return a.prefetchsIssued, a.prefetchsUsed
}

// restrictVictims applies one of the planner's replacement rules at every
// cache level (nil lifts it); strict installs are skipped rather than allowed
// a disallowed victim.
func (a *AppAware) restrictVictims(allowed func(grid.BlockID) bool, strict bool) {
	for l := 0; l < a.h.NumLevels(); l++ {
		a.h.SetEvictFilter(l, allowed, strict)
	}
}
