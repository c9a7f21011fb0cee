package store

// MemCache is a byte-budgeted in-memory block cache over a BlockReader,
// fronted by any replacement policy. It is the real-I/O counterpart of one
// memhier level: instead of charging simulated time, it holds actual voxel
// data and reads misses from the backing reader — a BlockFile directly, or
// a faultio.Injector wrapping one.
//
// The miss path is duplicate-free: concurrent GetBatch/Prefetch calls for
// the same uncached block coalesce onto a single backing-store read
// (singleflight), and GetBatch hands whole miss sets to the reader's
// ReadBlocks so adjacent blocks merge into sequential I/O.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/grid"
	"repro/internal/obs"
)

// call is one in-flight backing-store read covering one or more blocks;
// concurrent requesters for any of its blocks share it. done is closed
// once vals/errs are set — a whole miss batch shares one call (and one
// channel), so a fully-missing batch costs two allocations, not two per
// block. Waiters find their block through an inflightRef. A prefetch's
// call carries its one id, so its read needs no ids slice of its own.
type call struct {
	done chan struct{}
	vals [][]float32
	errs []error
	one  [1]grid.BlockID
}

// inflightRef points a block at its position within a shared in-flight
// call. Stored by value in the inflight map: registering a lead allocates
// nothing beyond map growth.
type inflightRef struct {
	cl *call
	k  int
}

// MemCache caches decoded blocks in memory. Safe for concurrent use.
type MemCache struct {
	r BlockReader

	mu       sync.Mutex
	lvl      *cache.Level // resident voxels, byte budget, replacement
	inflight map[grid.BlockID]inflightRef
	onEvict  func(id grid.BlockID, vals []float32)
	// retire keeps evicted buffers in retired for the reader (Release or
	// EnableRecycling seen); recycle releases each at once
	// (EnableRecycling).
	retire, recycle bool
	retired         [][]float32 // evicted since the last release, at most maxFreeBufs

	hits, misses  int64
	coalesced     int64 // requests served by waiting on another's read
	recycled      int64 // evicted slices handed back for reuse
	recycledBytes int64 // bytes of those slices
	retireDropped int64 // evicted slices left to the GC past the retire cap
}

// CacheCounters is a snapshot of MemCache activity beyond plain hit/miss.
type CacheCounters struct {
	Hits          int64 // requests served from cached memory
	Misses        int64 // requests that initiated a backing-store read
	Coalesced     int64 // requests served by sharing another request's read
	Evictions     int64 // blocks pushed out by the replacement policy
	Recycled      int64 // evicted block buffers handed back for reuse
	RecycledBytes int64 // bytes of evicted buffers handed back for reuse
	RetireDropped int64 // evicted block buffers left to the GC: the retired list was full
}

// NewMemCache wraps the block reader with a cache of the given byte
// capacity and replacement policy. The policy must be empty and is owned by
// the cache afterwards.
func NewMemCache(r BlockReader, capacity int64, p cache.Policy) (*MemCache, error) {
	if r == nil {
		return nil, fmt.Errorf("store: nil block reader")
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("store: capacity %d", capacity)
	}
	if p == nil {
		return nil, fmt.Errorf("store: nil policy")
	}
	c := &MemCache{
		r:        r,
		lvl:      cache.NewLevel(capacity, p),
		inflight: make(map[grid.BlockID]inflightRef),
	}
	// Runs under c.mu, like every call into the level. The spill feed sees
	// the victim's voxels before the recycler may overwrite them.
	c.lvl.OnEvict = func(id grid.BlockID, e cache.Entry) {
		if c.onEvict != nil {
			c.onEvict(id, e.Vals)
		}
		if !c.retire {
			return
		}
		if len(c.retired) < maxFreeBufs {
			c.retired = append(c.retired, e.Vals)
		} else {
			c.retireDropped++
		}
		if c.recycle {
			c.releaseLocked()
		}
	}
	return c, nil
}

// Release declares that no slice this cache has handed out so far is read
// any longer, by anyone: the buffers of the blocks evicted up to now go to
// the reader's RecycleBlockBuf, so later reads decode into them instead of
// allocating. From the first call on, an evicted block's buffer is retired —
// kept, untouched, until the next Release — where before it was left to the
// GC. At most 64 wait, BufPool's bound; past that an eviction leaves its
// buffer to the GC (counted as RetireDropped).
//
// Release is for the cache's one consumer that knows when every slice it
// was handed is done with: ooc.Runtime calls it at New and at the start of
// every Frame.
func (c *MemCache) Release() {
	c.mu.Lock()
	c.retire = true
	c.releaseLocked()
	c.mu.Unlock()
}

// releaseLocked hands every retired buffer to the reader. Called with c.mu
// held.
func (c *MemCache) releaseLocked() {
	for _, v := range c.retired {
		c.recycled++
		c.recycledBytes += int64(len(v)) * 4
		c.r.RecycleBlockBuf(v)
	}
	clear(c.retired)
	c.retired = c.retired[:0]
}

// EnableRecycling makes every eviction Release at once: the victim's slice
// goes straight back to the reader (RecycleBlockBuf). The rule it imposes:
// nothing may admit into the cache — no GetBatch or Prefetch from any
// goroutine — while a caller still reads a slice it was handed, because any
// admission can evict that slice's block and the next backing read then
// decodes into the memory being read. A single caller that is done with one
// frame's slices before asking for the next, with no prefetch workers behind
// it, qualifies; a cache shared by sessions or fed by a Prefetcher does not
// — a cache an ooc.Runtime drives reuses its buffers without it, at each
// Frame (see Release).
func (c *MemCache) EnableRecycling() {
	c.mu.Lock()
	c.recycle = true
	c.retire = true
	c.mu.Unlock()
}

// RecyclingEnabled reports whether evicted buffers are being reused, at
// eviction (EnableRecycling) or at the next Release. When false, a slice
// handed out by GetBatch is immutable for its lifetime — the property
// blocksvc.NewServer requires of the cache it serves, whose slices go to
// the socket as they lie.
func (c *MemCache) RecyclingEnabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retire
}

// OnEvict registers a callback invoked for every block the replacement
// policy pushes out, carrying the block's still-valid decoded voxels —
// the write-behind feed a spill tier needs to persist evictions without
// re-reading them. The callback runs before any buffer recycling, so vals
// is intact for its duration, but it executes under the cache lock: it must
// return quickly (copy or enqueue, no I/O) and must not call back into the
// cache. A nil fn disables the feed.
func (c *MemCache) OnEvict(fn func(id grid.BlockID, vals []float32)) {
	c.mu.Lock()
	c.onEvict = fn
	c.mu.Unlock()
}

// wait blocks until the shared call completes or ctx is done, counting a
// successful shared result (demand) as a coalesced hit. again reports a
// call that failed on its leader's ctx while ctx is live: that error is not
// the caller's, and the caller takes the block up again (load).
func (c *MemCache) wait(ctx context.Context, ref inflightRef, demand bool) (vals []float32, again bool, err error) {
	select {
	case <-ctx.Done():
		return nil, false, ctx.Err()
	case <-ref.cl.done:
	}
	if err := ref.cl.errs[ref.k]; err != nil {
		foreign := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		return nil, foreign && ctx.Err() == nil, err
	}
	if demand {
		c.mu.Lock()
		c.hits++
		c.coalesced++
		c.mu.Unlock()
	}
	return ref.cl.vals[ref.k], false, nil
}

// load serves one block: from memory, by joining the read in flight, or by
// reading it as the leader. A demand load counts as a hit or a miss and
// touches the policy; a prefetch (!demand) does neither and returns no
// voxels. hit reports a block served from memory.
func (c *MemCache) load(ctx context.Context, id grid.BlockID, demand bool) (vals []float32, hit bool, err error) {
	for {
		c.mu.Lock()
		if demand {
			if e, ok := c.lvl.Get(id); ok {
				c.hits++
				c.mu.Unlock()
				return e.Vals, true, nil
			}
		} else if c.lvl.Contains(id) {
			c.mu.Unlock()
			return nil, true, nil
		}
		if ref, ok := c.inflight[id]; ok {
			c.mu.Unlock()
			vals, again, err := c.wait(ctx, ref, demand)
			if !again {
				return vals, err == nil, err
			}
			continue
		}
		if demand {
			c.misses++
		}
		cl := &call{done: make(chan struct{}), one: [1]grid.BlockID{id}}
		c.inflight[id] = inflightRef{cl: cl}
		c.mu.Unlock()
		rvals, rerrs := c.r.ReadBlocks(ctx, cl.one[:])
		c.finish(cl.one[:], cl, rvals, rerrs)
		return rvals[0], false, rerrs[0]
	}
}

// finish resolves a leader's in-flight call for all its blocks under one
// lock: installs each read block (or adopts a concurrently installed
// copy), publishes the results to waiters, and removes the in-flight
// markers. rvals/rerrs become the call's published results and are
// canonicalized in place.
func (c *MemCache) finish(ids []grid.BlockID, cl *call, rvals [][]float32, rerrs []error) {
	c.mu.Lock()
	for k, id := range ids {
		delete(c.inflight, id)
		if rerrs[k] != nil {
			continue
		}
		if existing, ok := c.lvl.Peek(id); ok {
			// Unreachable through the coalesced paths (only one reader per
			// block is in flight), but kept for safety: adopt the installed
			// copy rather than aliasing two.
			rvals[k] = existing.Vals
		} else {
			// A block larger than the whole cache is served uncached.
			c.lvl.Admit(id, cache.Entry{Size: int64(len(rvals[k])) * 4, Vals: rvals[k]})
		}
	}
	cl.vals, cl.errs = rvals, rerrs
	close(cl.done)
	c.mu.Unlock()
}

// GetResident is a frame's hit probe, under one lock: for each ids[i]
// already in memory it sets vals[i] to the block's voxels, counts a hit and
// touches the policy, in ids' order, duplicates included; every other index
// i — a block not resident, or an id outside the grid — is appended to miss,
// which it returns. vals must be at least as long as ids. It never reads the
// backing store and never waits on a read in flight: the misses are the
// caller's to batch (GetBatch). The slices set are shared with the cache;
// callers must not modify them.
func (c *MemCache) GetResident(vals [][]float32, ids []grid.BlockID, miss []int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, id := range ids {
		if e, ok := c.lvl.Get(id); ok {
			c.hits++
			vals[i] = e.Vals
		} else {
			miss = append(miss, i)
		}
	}
	return miss
}

// GetBatch serves many blocks at once with per-block results: vals[i],
// hit[i], errs[i] correspond to ids[i]. hit[i] reports whether the block was
// served from memory (cached, or coalesced onto a concurrent read), so
// callers can count true backing-store reads. Cached blocks are returned
// immediately; blocks already being read by a concurrent request are waited
// on, not re-read; the remaining misses go to the reader's ReadBlocks as one
// batch, bounded by ctx. Duplicate ids are served one read. The returned
// slices are shared with the cache; callers must not modify them.
func (c *MemCache) GetBatch(ctx context.Context, ids []grid.BlockID) (vals [][]float32, hit []bool, errs []error) {
	vals = make([][]float32, len(ids))
	hit = make([]bool, len(ids))
	errs = make([]error, len(ids))
	if err := ctx.Err(); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return vals, hit, errs
	}

	var (
		leadIdx []int                  // first occurrence of each missing id
		lead    *call                  // one shared in-flight call for every lead
		dups    map[grid.BlockID][]int // extra occurrences, resolved at the end
		waiters map[int]inflightRef    // index -> concurrent read to join
	)
	// The hot callers (an ooc frame's misses, blocksvc response runs) pass
	// sorted unique ids; one scan detects that and skips the dedup map —
	// the only per-call allocation proportional to a fully-hit batch.
	sorted := true
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			sorted = false
			break
		}
	}
	var seen map[grid.BlockID]int
	if !sorted {
		seen = make(map[grid.BlockID]int, len(ids))
	}
	c.mu.Lock()
	for i, id := range ids {
		if !sorted {
			if _, ok := seen[id]; ok {
				if dups == nil {
					dups = make(map[grid.BlockID][]int)
				}
				dups[id] = append(dups[id], i)
				continue
			}
			seen[id] = i
		}
		if e, ok := c.lvl.Get(id); ok {
			c.hits++
			vals[i], hit[i] = e.Vals, true
			continue
		}
		if ref, ok := c.inflight[id]; ok {
			if waiters == nil {
				waiters = make(map[int]inflightRef)
			}
			waiters[i] = ref
			continue
		}
		c.misses++
		if lead == nil {
			lead = &call{done: make(chan struct{})}
			// Worst case every remaining id is a miss; one allocation
			// instead of append's doubling ladder.
			leadIdx = make([]int, 0, len(ids)-i)
		}
		c.inflight[id] = inflightRef{cl: lead, k: len(leadIdx)}
		leadIdx = append(leadIdx, i)
	}
	c.mu.Unlock()

	// Issue this call's own misses as one batch, then resolve the shared
	// call so coalesced waiters (here and in concurrent calls) unblock.
	if len(leadIdx) > 0 {
		leadIDs := make([]grid.BlockID, len(leadIdx))
		for k, i := range leadIdx {
			leadIDs[k] = ids[i]
		}
		rvals, rerrs := c.r.ReadBlocks(ctx, leadIDs)
		c.finish(leadIDs, lead, rvals, rerrs)
		for k, i := range leadIdx {
			if rerrs[k] != nil {
				errs[i] = rerrs[k]
			} else {
				vals[i] = rvals[k]
			}
		}
	}

	// Join reads initiated by concurrent callers.
	for i, ref := range waiters {
		v, again, err := c.wait(ctx, ref, true)
		if again {
			vals[i], hit[i], errs[i] = c.load(ctx, ids[i], true)
			continue
		}
		vals[i], errs[i] = v, err
		hit[i] = err == nil
	}

	// Fan results out to duplicate positions.
	for id, extra := range dups {
		first := seen[id]
		for _, i := range extra {
			vals[i], errs[i] = vals[first], errs[first]
			hit[i] = errs[first] == nil
		}
	}
	return vals, hit, errs
}

// AppendMissing appends to dst, in order, each of ids that is not in memory,
// and returns it: one lock for the whole list, and no block touched.
func (c *MemCache) AppendMissing(dst, ids []grid.BlockID) []grid.BlockID {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		if !c.lvl.Contains(id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// Prefetch ensures the block is cached, reading it if needed; unlike
// GetBatch it does not return the data and never counts as a hit or miss. A
// prefetch that finds the block already being read (by a demand GetBatch or
// another prefetch) waits on that read instead of issuing its own. A waiter,
// here or in GetBatch, whose own ctx is live never returns the ctx error of
// the read it joined: it takes the block up again.
func (c *MemCache) Prefetch(ctx context.Context, id grid.BlockID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, _, err := c.load(ctx, id, false)
	return err
}

// EvictWhere evicts every resident block the predicate selects, in ascending
// block order, returning how many were evicted. Used when block ownership moves away from this
// node (a cluster topology change): the departed blocks' memory is let go
// now instead of aging out. Reads in flight are unaffected — the
// singleflight map is not touched, so a concurrent miss still completes and
// may re-install.
func (c *MemCache) EvictWhere(pred func(grid.BlockID) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lvl.EvictWhere(pred)
}

// Counters returns the cache's activity so far: hits and misses, coalesced
// requests, evictions and recycled buffers.
func (c *MemCache) Counters() CacheCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheCounters{
		Hits:          c.hits,
		Misses:        c.misses,
		Coalesced:     c.coalesced,
		Evictions:     c.lvl.Evictions,
		Recycled:      c.recycled,
		RecycledBytes: c.recycledBytes,
		RetireDropped: c.retireDropped,
	}
}

// Instrument registers the cache's counters on reg under the "cache."
// prefix as pull-style metrics: the hot path keeps its existing
// mutex-guarded fields (zero added cost per request) and the registry reads
// them only when snapshotted. Safe to call with a nil registry.
func (c *MemCache) Instrument(reg *obs.Registry) {
	reg.CounterFunc("cache.hits", func() int64 { return c.Counters().Hits })
	reg.CounterFunc("cache.misses", func() int64 { return c.Counters().Misses })
	reg.CounterFunc("cache.coalesced", func() int64 { return c.Counters().Coalesced })
	reg.CounterFunc("cache.evictions", func() int64 { return c.Counters().Evictions })
	reg.CounterFunc("cache.recycled", func() int64 { return c.Counters().Recycled })
	reg.CounterFunc("cache.recycled_bytes", func() int64 { return c.Counters().RecycledBytes })
	reg.CounterFunc("cache.retire_dropped", func() int64 { return c.Counters().RetireDropped })
	reg.GaugeFunc("cache.used_bytes", c.Used)
	reg.GaugeFunc("cache.blocks", func() int64 { return int64(c.Len()) })
}

// Capacity returns the cache's byte budget.
func (c *MemCache) Capacity() int64 { return c.lvl.Capacity }

// Used returns the bytes currently cached.
func (c *MemCache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lvl.Used()
}

// Len returns the number of cached blocks.
func (c *MemCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lvl.Len()
}
