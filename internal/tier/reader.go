package tier

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/grid"
	"repro/internal/store"
)

// batchReadParallelism bounds concurrent spill-file reads in ReadBlocks:
// enough to keep an SSD's queue busy, few enough not to starve the rest of
// the process of file descriptors.
const batchReadParallelism = 8

// Reader interposes the spill tier between store.MemCache and a backing
// block reader (typically blocksvc.RemoteReader): every DRAM miss first
// checks local flash, and only a flash miss pays the network round trip.
// It implements the whole store reader surface — BlockReader,
// ContextBlockReader, BatchBlockReader, BlockBufRecycler — by serving what
// it can from the tier and forwarding the rest to whichever of those
// interfaces the inner reader supports, so MemCache's batch and recycling
// optimizations keep working through the interposition.
type Reader struct {
	inner store.BlockReader
	tier  *Tier
}

// NewReader wraps inner with spill-tier interposition.
func NewReader(inner store.BlockReader, t *Tier) *Reader {
	return &Reader{inner: inner, tier: t}
}

// ReadBlock implements store.BlockReader.
func (r *Reader) ReadBlock(id grid.BlockID) ([]float32, error) {
	return r.ReadBlockContext(context.Background(), id)
}

// ReadBlockContext implements store.ContextBlockReader.
func (r *Reader) ReadBlockContext(ctx context.Context, id grid.BlockID) ([]float32, error) {
	if vals, ok := r.tier.Get(id); ok {
		return vals, nil
	}
	if cr, ok := r.inner.(store.ContextBlockReader); ok {
		return cr.ReadBlockContext(ctx, id)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.inner.ReadBlock(id)
}

// ReadBlocks implements store.BatchBlockReader: tier hits are peeled off
// locally — read concurrently, since each is an independent spill file —
// and only the misses travel to the inner reader, preserving its batching
// for the blocks that actually need it.
func (r *Reader) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	vals := make([][]float32, len(ids))
	errs := make([]error, len(ids))
	hit := make([]bool, len(ids))
	// The caller reads too, beside helpers drawing from one counter (never
	// more readers than Ps): a lone block or a single-P runtime spawns
	// nothing, and with no core free for a helper the caller gets through
	// the batch at serial speed instead of waiting on the scheduler.
	var next atomic.Int64
	get := func() {
		for i := next.Add(1) - 1; i < int64(len(ids)); i = next.Add(1) - 1 {
			vals[i], hit[i] = r.tier.Get(ids[i])
		}
	}
	var wg sync.WaitGroup
	for h := min(batchReadParallelism, runtime.GOMAXPROCS(0), len(ids)) - 1; h > 0; h-- {
		wg.Add(1)
		go func() { defer wg.Done(); get() }()
	}
	get()
	wg.Wait()
	var missPos []int
	var missIDs []grid.BlockID
	for i, id := range ids {
		if !hit[i] {
			missPos = append(missPos, i)
			missIDs = append(missIDs, id)
		}
	}
	if len(missIDs) == 0 {
		return vals, errs
	}
	if br, ok := r.inner.(store.BatchBlockReader); ok {
		mv, me := br.ReadBlocks(ctx, missIDs)
		for j, pos := range missPos {
			vals[pos], errs[pos] = mv[j], me[j]
		}
		return vals, errs
	}
	for j, pos := range missPos {
		vals[pos], errs[pos] = r.ReadBlockContext(ctx, missIDs[j])
	}
	return vals, errs
}

// RecycleBlockBuf implements store.BlockBufRecycler: the tier's own decode
// pool takes the buffer while it has room — tier hits are the common read
// under a warm tier — and the overflow goes to the inner reader when it
// recycles. Buffers from either source are interchangeable.
func (r *Reader) RecycleBlockBuf(vals []float32) {
	if r.tier.bufs.Put(vals) {
		return
	}
	if rec, ok := r.inner.(store.BlockBufRecycler); ok {
		rec.RecycleBlockBuf(vals)
	}
}
