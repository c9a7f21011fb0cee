// Package ooc is a real-I/O out-of-core runtime implementing the paper's
// stated future work (§VI): parallel data fetching overlapped with
// rendering. It combines the file-backed block store (package store) with
// the prediction tables (packages visibility and entropy): each frame's
// visible blocks are fetched on the caller's goroutine, and the blocks
// policy.Planner lists for the vicinity are prefetched asynchronously by
// background workers while the caller renders.
//
// The demand hot path is built to do exactly one backing-store read per
// needed block with near-zero steady-state overhead: cache hits are served
// inline, a frame's misses go to the cache as one id-sorted batch that the
// reader merges into sequential I/O (and fans out across connections,
// shards or spill files when its medium is parallel), and concurrent
// demand/prefetch requests for the same block coalesce onto a single read
// inside the cache.
//
// Unlike package sim — which charges a simulated hierarchy's device cost
// models — this package moves actual bytes; it is the runtime an application
// would embed. It is therefore built for storage that fails: demand reads
// retry transient faults with backoff (package faultio), per-read deadlines
// keep a slow block from stalling the frame, and a block that is
// permanently lost degrades the frame (reported via FrameReport) instead of
// failing it.
package ooc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/entropy"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/visibility"
)

// Options configures the runtime.
type Options struct {
	// PrefetchWorkers bounds background prefetch goroutines (default 2).
	PrefetchWorkers int
	// Sigma is the entropy threshold for prefetch candidates.
	Sigma float64
	// Retry is the policy for demand reads: a block's first attempt rides
	// the frame's batch read; a retryable failure then re-reads it
	// individually under this policy, whose MaxAttempts counts the batch
	// attempt (so a block is read at most MaxAttempts times in total). Nil
	// gets the default: 4 attempts, 1ms base backoff doubling to a 50ms
	// cap, with ReadDeadline as the per-attempt deadline. Set MaxAttempts
	// to 1 to disable retries.
	Retry *faultio.Retrier
	// ReadDeadline bounds each demand-read attempt when Retry is nil
	// (0 = no per-read deadline).
	ReadDeadline time.Duration
	// Metrics, when non-nil, is the registry the runtime's counters and
	// frame-phase histograms are registered on (names under "ooc.",
	// documented in DESIGN.md §9). Nil gets a private registry: the
	// instrumentation always runs — its cost is part of every benchmarked
	// frame — it is just not externally visible. Sharing one registry
	// across runtimes aggregates their counters.
	Metrics *obs.Registry

	// queueDepth, when positive, replaces prefetchQueueDepth; this
	// package's tests use it to fill the queue on purpose.
	queueDepth int
}

// prefetchQueueDepth bounds the pending-prefetch queue; when it is full,
// further predictions are dropped rather than blocking the frame.
const prefetchQueueDepth = 256

func (o Options) withDefaults() Options {
	if o.PrefetchWorkers <= 0 {
		o.PrefetchWorkers = 2
	}
	if o.queueDepth <= 0 {
		o.queueDepth = prefetchQueueDepth
	}
	if o.Retry == nil {
		o.Retry = &faultio.Retrier{
			MaxAttempts: 4,
			BaseDelay:   time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			PerTry:      o.ReadDeadline,
		}
	}
	return o
}

// Stats counts runtime activity. Counters that belong together (a frame's
// reads, retries, and its degraded flag) are committed together under one
// lock, so a Runtime.Snapshot taken while frames run is internally
// consistent rather than a torn mix of per-field loads.
type Stats struct {
	Frames         int64
	DemandReads    int64 // demand misses that actually read the backing store
	DemandHits     int64 // demand reads served from cache memory (incl. coalesced)
	DemandBatches  int64 // frames whose misses went to the cache as a batch
	DegradedFrames int64 // frames that completed with at least one block missing
	FailedReads    int64 // demand reads lost after exhausting retries
	Retries        int64 // extra demand-read attempts beyond the first
	ChecksumErrors int64 // demand-read attempts rejected by checksum verification

	PrefetchIssued   int64 // unique blocks enqueued for prefetch
	PrefetchDeduped  int64 // predictions skipped because already queued/in flight
	PrefetchDropped  int64
	PrefetchExecuted int64
	PrefetchFailed   int64
}

// FrameReport describes how completely a frame was served. A degraded
// frame is still renderable: every block the storage could produce is
// present, and Missing names the holes so the renderer can substitute
// (a lower LOD, empty space, or a copy it kept of an earlier frame's data:
// the earlier slices themselves are released by this Frame).
type FrameReport struct {
	// Degraded is true when at least one visible block could not be read.
	Degraded bool
	// Missing lists the unreadable blocks, ascending. Their slots in the
	// returned data are nil.
	Missing []grid.BlockID
	// Failures maps each missing block to its final error.
	Failures map[grid.BlockID]error
	// Retried counts visible blocks that needed more than one read
	// attempt but were ultimately served.
	Retried int64
}

// Runtime drives a block cache with batched demand fetching and
// asynchronous predictive prefetching. Safe for use by one interactive
// loop; Close must be called to stop the prefetch workers.
//
// The runtime owns the cache's buffers: the slices a Frame returns are
// valid until the next Frame, like bufio.Scanner.Bytes. Each Frame starts by
// releasing the slices handed out before it (store.MemCache.Release), so the
// blocks evicted since are decoded into again instead of allocating. Frames
// from several goroutines at once are safe but give no longer guarantee:
// any goroutine's next Frame ends every earlier Frame's slices. A caller
// that must keep data past its next Frame copies it.
type Runtime struct {
	cache *cacheMemory
	// retryAfter re-reads a block whose batch attempt failed; it is
	// Options.Retry minus the attempt the batch already spent.
	retryAfter *faultio.Retrier
	closed     atomic.Bool

	// prefetch is the bounded queue the frame's predictions go through, so
	// consecutive frames don't enqueue the same prediction twice. plan
	// decides what is offered to it and in what order; planned is the
	// scratch its list is built in, under planMu (frames may overlap).
	prefetch *store.Prefetcher
	plan     *policy.Planner
	planMu   sync.Mutex
	planned  []grid.BlockID

	// m holds the registry-backed counters the runtime's Stats live in.
	// Hot paths accumulate into frame-local deltas and commit them under
	// statsMu in one merge, so Snapshot (same lock) sees whole frames,
	// never a half-counted one. A debug endpoint reading the same counters
	// through the registry skips the lock — near-consistent is fine there.
	statsMu sync.Mutex
	m       *runtimeMetrics
}

// cacheMemory is a MemCache over g's blocks, one float32 a voxel, as the
// planner sees it.
type cacheMemory struct {
	*store.MemCache
	g *grid.Grid
}

func (m *cacheMemory) SizeOf(id grid.BlockID) int64 { return m.g.VoxelCount(id) * 4 }

// New starts the runtime's prefetch workers and takes ownership of the
// cache's buffers: from here on, a block evicted from cache keeps its buffer
// until the runtime's next Frame (see Runtime), and the cache counts as one
// whose memory is rewritten (MemCache.RecyclingEnabled).
func New(cache *store.MemCache, vis *visibility.Table, imp *entropy.Table, opts Options) (*Runtime, error) {
	if cache == nil {
		return nil, fmt.Errorf("ooc: nil component")
	}
	plan, err := policy.NewPlanner(vis, imp, opts.Sigma)
	if err != nil {
		return nil, fmt.Errorf("ooc: %w", err)
	}
	cache.Release()
	opts = opts.withDefaults()
	r := &Runtime{
		cache: &cacheMemory{cache, vis.Grid()},
		plan:  plan,
		m:     newRuntimeMetrics(opts.Metrics),
	}
	if n := opts.Retry.MaxAttempts - 1; n > 0 {
		r.retryAfter = &faultio.Retrier{
			MaxAttempts: n,
			BaseDelay:   opts.Retry.BaseDelay,
			MaxDelay:    opts.Retry.MaxDelay,
			PerTry:      opts.Retry.PerTry,
			Seed:        opts.Retry.Seed,
		}
	}
	r.prefetch = store.NewPrefetcher(context.Background(), cache, opts.PrefetchWorkers, opts.queueDepth,
		func(err error) {
			var d Stats
			if err == nil {
				d.PrefetchExecuted = 1
			} else {
				d.PrefetchFailed = 1
			}
			r.addStats(&d)
		})
	return r, nil
}

// demand reads a frame's misses, the entries of visible that missIdx
// indexes, as one cache batch on the caller's goroutine. They are sorted by
// block ID, which is file order: the store merges adjacent blocks into
// sequential reads, a reader whose medium is parallel (a spill tier, a
// remote server) fans the batch out itself, and blocks settle in ascending
// order, so rep.Missing comes out sorted. The batch is each block's first
// attempt; a retryable failure is then re-read alone under retryAfter.
// Counter updates go to the frame-local d.
func (r *Runtime) demand(ctx context.Context, visible []grid.BlockID, missIdx []int, out [][]float32, rep *FrameReport, d *Stats) {
	slices.SortFunc(missIdx, func(a, b int) int {
		return int(visible[a]) - int(visible[b])
	})
	ids := make([]grid.BlockID, len(missIdx))
	for k, i := range missIdx {
		ids[k] = visible[i]
	}
	d.DemandBatches++
	vals, hits, errs := r.cache.GetBatch(ctx, ids)
	for k, i := range missIdx {
		err := errs[k]
		if err == nil {
			out[i] = vals[k]
			if hits[k] {
				d.DemandHits++
			} else {
				d.DemandReads++
			}
			continue
		}
		if errors.Is(err, faultio.ErrChecksum) {
			d.ChecksumErrors++
		}
		if r.retryAfter != nil && ctx.Err() == nil && faultio.Retryable(err) {
			var attempts int
			attempts, err = r.retryAfter.Do(ctx, func(c context.Context) error {
				vals, hit, e := r.cache.Get(c, ids[k])
				if e != nil {
					if errors.Is(e, faultio.ErrChecksum) {
						d.ChecksumErrors++
					}
					return e
				}
				out[i] = vals
				if hit {
					d.DemandHits++
				} else {
					d.DemandReads++
				}
				return nil
			})
			// Every attempt here is beyond the block's first (batch) attempt.
			d.Retries += int64(attempts)
		}
		switch {
		case err == nil:
			rep.Retried++
		case ctx.Err() != nil:
			// Frame-level cancellation, reported by Frame itself; not a
			// storage loss.
		default:
			d.FailedReads++
			if rep.Failures == nil {
				rep.Failures = make(map[grid.BlockID]error)
			}
			rep.Missing = append(rep.Missing, ids[k])
			rep.Failures[ids[k]] = err
		}
	}
}

// Frame fetches every visible block and returns their voxel data indexed
// like visible. Cache hits are served inline; misses are sorted by block ID
// (file order) and read as one batch on the caller's goroutine — the store
// merges adjacent blocks into sequential reads, and transient faults are
// retried per block. Blocks whose reads fail permanently are returned as nil
// entries and named in the FrameReport — the frame degrades rather than
// fails. The error return is reserved for frame-level conditions: a closed
// runtime or a done ctx. Before returning, Frame enqueues asynchronous
// prefetches of the planner's list for the camera's vicinity (Algorithm 1
// lines 20–22), which proceed while the caller renders the returned data.
//
// The returned slices are shared with the cache and must not be modified.
// They stay valid until the next Frame: a Frame begins by releasing every
// slice an earlier one returned, whose memory later reads may then reuse.
func (r *Runtime) Frame(ctx context.Context, pos vec.V3, visible []grid.BlockID) ([][]float32, FrameReport, error) {
	var rep FrameReport
	if r.closed.Load() {
		return nil, rep, fmt.Errorf("ooc: runtime closed")
	}
	if err := ctx.Err(); err != nil {
		return nil, rep, err
	}
	// Before anything is admitted: the buffers evicted since the last Frame
	// may be read into from here on.
	r.cache.Release()
	var local Stats
	local.Frames = 1
	out := make([][]float32, len(visible))

	// Demand-wait spans the whole blocking portion of the frame: the warm
	// scan, the miss batch, and its retries.
	frameStart := time.Now()
	demandSpan := r.m.phases.Begin(obs.PhaseDemandWait)

	// Inline fast path: serve every warm block without building a batch.
	var missIdx []int
	for i, id := range visible {
		if vals, ok := r.cache.GetCached(id); ok {
			out[i] = vals
			local.DemandHits++
		} else {
			if missIdx == nil {
				// Worst case every remaining block is a miss; one
				// allocation instead of append's doubling ladder.
				missIdx = make([]int, 0, len(visible)-i)
			}
			missIdx = append(missIdx, i)
		}
	}

	if len(missIdx) > 0 {
		r.demand(ctx, visible, missIdx, out, &rep, &local)
	}
	demandSpan.End()

	if err := ctx.Err(); err != nil {
		r.addStats(&local)
		return nil, FrameReport{}, err
	}
	if len(rep.Missing) > 0 {
		rep.Degraded = true
		local.DegradedFrames = 1
	}

	// Schedule the planner's prefetch list, most likely block first, so a
	// full queue drops the least likely; never block the frame.
	issueSpan := r.m.phases.Begin(obs.PhasePrefetchIssue)
	if !r.closed.Load() {
		r.planMu.Lock()
		r.planned = r.plan.Prefetch(r.planned[:0], pos, visible, r.cache)
		for _, id := range r.planned {
			switch r.prefetch.Offer(id) {
			case store.Issued:
				local.PrefetchIssued++
			case store.Duplicate:
				local.PrefetchDeduped++
			case store.Dropped:
				local.PrefetchDropped++
			}
		}
		r.planMu.Unlock()
	}
	issueSpan.End()
	r.m.frameNs.Observe(time.Since(frameStart).Nanoseconds())
	r.addStats(&local)
	return out, rep, nil
}

// addStats commits a local counter delta in one critical section.
func (r *Runtime) addStats(d *Stats) {
	r.statsMu.Lock()
	r.m.commit(d)
	r.statsMu.Unlock()
}

// Snapshot returns a consistent copy of the runtime counters, taken under
// the same lock their updates commit through — a caller printing stats
// while frames run never observes a frame's counters half-applied. With a
// shared Options.Metrics registry the counters aggregate across runtimes,
// and so does this snapshot.
func (r *Runtime) Snapshot() Stats {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.m.snapshot()
}

// Phases returns the runtime's frame-phase timer so the caller can time the
// phases it owns: PhaseVisibility around its visible-set query and
// PhaseRender around its consumption of the returned data. PhaseDemandWait
// and PhasePrefetchIssue are recorded by Frame itself.
func (r *Runtime) Phases() *obs.PhaseTimer { return r.m.phases }

// Close stops the prefetch workers and waits for them to drain. Frame must
// not be called afterwards (it fails cleanly if it is; frames already in
// flight complete, and their prefetch offers are dropped). Close is
// idempotent and safe to call concurrently with Frame.
func (r *Runtime) Close() {
	if r.closed.Swap(true) {
		return
	}
	r.prefetch.Close()
}
