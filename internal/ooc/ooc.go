// Package ooc is a real-I/O out-of-core runtime implementing the paper's
// stated future work (§VI): parallel data fetching overlapped with
// rendering. It combines the file-backed block store (package store) with
// the prediction tables (packages visibility and entropy): each frame's
// visible blocks are fetched by a persistent worker pool, and the blocks
// policy.Planner lists for the vicinity are prefetched asynchronously by
// background workers while the caller renders.
//
// The demand hot path is built to do exactly one backing-store read per
// needed block with near-zero steady-state overhead: cache hits are served
// inline without touching a worker, misses are partitioned into
// offset-contiguous batches that the store merges into sequential I/O, and
// concurrent demand/prefetch requests for the same block coalesce onto a
// single read inside the cache.
//
// Unlike package sim — which measures a simulated hierarchy on a virtual
// clock — this package moves actual bytes; it is the runtime an application
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
	"runtime"
	"slices"
	"sort"
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
	// DemandWorkers sizes the persistent demand pool: the maximum number of
	// concurrent miss batches/retries per runtime, and so the number of
	// contiguous batches a frame's miss set is split into (default
	// GOMAXPROCS).
	DemandWorkers int
	// PrefetchWorkers bounds background prefetch goroutines (default 2).
	PrefetchWorkers int
	// QueueDepth bounds the pending-prefetch queue; when full, further
	// predictions are dropped rather than blocking the frame (default 256).
	QueueDepth int
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
}

func (o Options) withDefaults() Options {
	if o.DemandWorkers <= 0 {
		o.DemandWorkers = runtime.GOMAXPROCS(0)
	}
	if o.PrefetchWorkers <= 0 {
		o.PrefetchWorkers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
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
	DemandBatches  int64 // miss batches dispatched to the demand pool
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

// Runtime drives a block cache with parallel demand fetching and
// asynchronous predictive prefetching. Safe for use by one interactive
// loop; Close must be called to stop the worker pools.
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
	opts  Options
	// retryAfter re-reads a block whose batch attempt failed; it is
	// opts.Retry minus the attempt the batch already spent.
	retryAfter *faultio.Retrier

	// mu serializes demand enqueues against Close so a late Frame never
	// sends on a closed channel.
	mu       sync.RWMutex
	demandCh chan *demandJob
	wg       sync.WaitGroup
	closed   atomic.Bool

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

// New starts the runtime's demand and prefetch workers and takes ownership
// of the cache's buffers: from here on, a block evicted from cache keeps its
// buffer until the runtime's next Frame (see Runtime), and the cache counts
// as one whose memory is rewritten (MemCache.RecyclingEnabled).
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
		cache:    &cacheMemory{cache, vis.Grid()},
		plan:     plan,
		opts:     opts,
		demandCh: make(chan *demandJob, opts.DemandWorkers),
		m:        newRuntimeMetrics(opts.Metrics),
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
	for w := 0; w < opts.DemandWorkers; w++ {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for job := range r.demandCh {
				job.run()
				job.fs.wg.Done()
			}
		}()
	}
	r.prefetch = store.NewPrefetcher(context.Background(), cache, opts.PrefetchWorkers, opts.QueueDepth,
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

// frameState is the shared context of one Frame's demand jobs.
type frameState struct {
	ctx context.Context
	r   *Runtime
	out [][]float32

	wg    sync.WaitGroup
	mu    sync.Mutex
	rep   *FrameReport
	stats Stats // per-job deltas, merged under mu; read after wg.Wait
}

// demandJob is one offset-contiguous chunk of a frame's miss set: a batch
// read through the cache (which coalesces with concurrent readers and
// merges adjacent blocks into sequential I/O), followed by per-block
// retries for this chunk's retryable failures.
type demandJob struct {
	fs   *frameState
	ids  []grid.BlockID
	idxs []int // ids[k] fills fs.out[idxs[k]]
}

func (j *demandJob) run() {
	fs, r := j.fs, j.fs.r
	var d Stats
	d.DemandBatches = 1
	vals, hits, errs := r.cache.GetBatch(fs.ctx, j.ids)
	for k := range j.ids {
		switch {
		case errs[k] == nil:
			fs.out[j.idxs[k]] = vals[k]
			if hits[k] {
				d.DemandHits++
			} else {
				d.DemandReads++
			}
		default:
			if errors.Is(errs[k], faultio.ErrChecksum) {
				d.ChecksumErrors++
			}
			j.retryBlock(k, errs[k], &d)
		}
	}
	fs.mu.Lock()
	fs.stats.add(&d)
	fs.mu.Unlock()
}

// retryBlock re-reads one block whose batch attempt failed, under the
// runtime's retry policy, and settles its final state (served, canceled, or
// missing). Counter updates go to the job-local delta d.
func (j *demandJob) retryBlock(k int, batchErr error, d *Stats) {
	fs, r := j.fs, j.fs.r
	id, idx := j.ids[k], j.idxs[k]
	err := batchErr
	attempts := 0
	if r.retryAfter != nil && fs.ctx.Err() == nil && faultio.Retryable(batchErr) {
		attempts, err = r.retryAfter.Do(fs.ctx, func(c context.Context) error {
			vals, hit, e := r.cache.Get(c, id)
			if e != nil {
				if errors.Is(e, faultio.ErrChecksum) {
					d.ChecksumErrors++
				}
				return e
			}
			fs.out[idx] = vals
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
		fs.mu.Lock()
		fs.rep.Retried++
		fs.mu.Unlock()
	case fs.ctx.Err() != nil:
		// Frame-level cancellation, reported by Frame itself; not a
		// storage loss.
	default:
		d.FailedReads++
		fs.mu.Lock()
		if fs.rep.Failures == nil {
			fs.rep.Failures = make(map[grid.BlockID]error)
		}
		fs.rep.Missing = append(fs.rep.Missing, id)
		fs.rep.Failures[id] = err
		fs.mu.Unlock()
	}
}

// dispatch hands a job to the demand pool, or runs it inline when the
// runtime is closing (frames already in flight still complete). The read
// lock fences against Close closing the channel mid-send.
func (r *Runtime) dispatch(job *demandJob) {
	job.fs.wg.Add(1)
	r.mu.RLock()
	if r.closed.Load() {
		r.mu.RUnlock()
		job.run()
		job.fs.wg.Done()
		return
	}
	r.demandCh <- job
	r.mu.RUnlock()
}

// Frame fetches every visible block and returns their voxel data indexed
// like visible. Cache hits are served inline; misses are sorted by block ID
// (file order), split into at most DemandWorkers contiguous batches, and
// read by the persistent demand pool — the store merges each batch's
// adjacent blocks into sequential reads, and transient faults are retried
// per block. Blocks whose reads fail permanently are returned as nil
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
	// scan, batch dispatch, and the wait for the last miss to land.
	frameStart := time.Now()
	demandSpan := r.m.phases.Begin(obs.PhaseDemandWait)

	// Inline fast path: serve every warm block without touching a worker.
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
		// Misses in block-ID order are file order; contiguous chunks keep
		// each batch mergeable into sequential I/O.
		slices.SortFunc(missIdx, func(a, b int) int {
			return int(visible[a]) - int(visible[b])
		})
		fs := &frameState{ctx: ctx, r: r, out: out, rep: &rep}
		chunks := r.opts.DemandWorkers
		if chunks > len(missIdx) {
			chunks = len(missIdx)
		}
		per := (len(missIdx) + chunks - 1) / chunks
		for lo := 0; lo < len(missIdx); lo += per {
			hi := lo + per
			if hi > len(missIdx) {
				hi = len(missIdx)
			}
			job := &demandJob{
				fs:   fs,
				ids:  make([]grid.BlockID, hi-lo),
				idxs: missIdx[lo:hi],
			}
			for k, i := range job.idxs {
				job.ids[k] = visible[i]
			}
			r.dispatch(job)
		}
		fs.wg.Wait()
		local.add(&fs.stats) // all jobs done: no further writers
	}
	demandSpan.End()

	if err := ctx.Err(); err != nil {
		r.addStats(&local)
		return nil, FrameReport{}, err
	}
	if len(rep.Missing) > 0 {
		sort.Slice(rep.Missing, func(a, b int) bool { return rep.Missing[a] < rep.Missing[b] })
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

// CacheStats returns the underlying cache's hit/miss counts.
func (r *Runtime) CacheStats() (hits, misses int64) { return r.cache.Stats() }

// Close stops the demand and prefetch workers and waits for them to drain.
// Frame must not be called afterwards (it fails cleanly if it is; frames
// already in flight complete, running any unsubmitted work inline). Close
// is idempotent and safe to call concurrently with Frame.
func (r *Runtime) Close() {
	if r.closed.Swap(true) {
		return
	}
	r.mu.Lock()
	close(r.demandCh)
	r.mu.Unlock()
	r.prefetch.Close()
	r.wg.Wait()
}
