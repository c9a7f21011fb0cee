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
// It implements store.BlockReader by serving what it can from the tier and
// forwarding the rest to the inner reader's ReadBlocks and RecycleBlockBuf,
// so MemCache's batching and buffer reuse keep working through the
// interposition.
type Reader struct {
	inner store.BlockReader
	tier  *Tier

	mu   sync.Mutex
	free []*readBatch // spent batch states, at most maxFreeBatches
}

// readBatch is one ReadBlocks call's spill-read state: the hit flags, the
// counter the caller and its helpers draw indexes from, the helpers'
// WaitGroup and the misses' positions and ids. Reused: a Reader keeps the
// spent ones on a free list, so a batch of hits allocates only the results
// it returns.
type readBatch struct {
	r       *Reader
	ids     []grid.BlockID
	vals    [][]float32
	hit     []bool
	next    atomic.Int64
	wg      sync.WaitGroup
	help    func() // a helper's body, built once: starting a helper allocates no closure
	missPos []int
	missIDs []grid.BlockID
}

// maxFreeBatches bounds the spent batch states a Reader keeps, above the
// batches it serves at once: a frame's demand read and the prefetch
// workers'.
const maxFreeBatches = 16

// get reads the batch's blocks from the tier, drawing indexes from next
// until none is left.
func (b *readBatch) get() {
	for i := b.next.Add(1) - 1; i < int64(len(b.ids)); i = b.next.Add(1) - 1 {
		b.vals[i], b.hit[i] = b.r.tier.Get(b.ids[i])
	}
}

// takeBatch returns a batch state for ids and their results, all unread.
func (r *Reader) takeBatch(ids []grid.BlockID, vals [][]float32) *readBatch {
	var b *readBatch
	r.mu.Lock()
	if n := len(r.free); n > 0 {
		b = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
	}
	r.mu.Unlock()
	if b == nil {
		b = &readBatch{r: r}
		b.help = func() { defer b.wg.Done(); b.get() }
	}
	b.ids, b.vals = ids, vals
	if cap(b.hit) < len(ids) {
		b.hit = make([]bool, len(ids))
	}
	b.hit = b.hit[:len(ids)]
	clear(b.hit)
	b.next.Store(0)
	return b
}

// putBatch drops the caller's slices from a spent batch state and returns
// it.
func (r *Reader) putBatch(b *readBatch) {
	b.ids, b.vals = nil, nil
	r.mu.Lock()
	if len(r.free) < maxFreeBatches {
		r.free = append(r.free, b)
	}
	r.mu.Unlock()
}

// NewReader wraps inner with spill-tier interposition.
func NewReader(inner store.BlockReader, t *Tier) *Reader {
	return &Reader{inner: inner, tier: t}
}

// ReadBlock implements store.BlockReader: a batch of one.
func (r *Reader) ReadBlock(id grid.BlockID) ([]float32, error) {
	vals, errs := r.ReadBlocks(context.Background(), []grid.BlockID{id})
	return vals[0], errs[0]
}

// ReadBlocks implements store.BlockReader: tier hits are peeled off
// locally — read concurrently, since each is an independent spill file —
// and only the misses travel to the inner reader, preserving its batching
// for the blocks that actually need it.
func (r *Reader) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	vals := make([][]float32, len(ids))
	errs := make([]error, len(ids))
	if err := ctx.Err(); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return vals, errs
	}
	b := r.takeBatch(ids, vals)
	defer r.putBatch(b)
	// The caller reads too, beside helpers drawing from one counter (never
	// more readers than Ps): a lone block or a single-P runtime spawns
	// nothing, and with no core free for a helper the caller gets through
	// the batch at serial speed instead of waiting on the scheduler.
	for h := min(batchReadParallelism, runtime.GOMAXPROCS(0), len(ids)) - 1; h > 0; h-- {
		b.wg.Add(1)
		go b.help()
	}
	b.get()
	b.wg.Wait()
	missPos, missIDs := b.missPos[:0], b.missIDs[:0]
	for i, id := range ids {
		if !b.hit[i] {
			missPos = append(missPos, i)
			missIDs = append(missIDs, id)
		}
	}
	b.missPos, b.missIDs = missPos, missIDs
	if len(missIDs) == 0 {
		return vals, errs
	}
	mv, me := r.inner.ReadBlocks(ctx, missIDs)
	for j, pos := range missPos {
		vals[pos], errs[pos] = mv[j], me[j]
	}
	return vals, errs
}

// RecycleBlockBuf implements store.BlockReader: the tier's own decode pool
// takes the buffer while it has room — tier hits are the common read under
// a warm tier — and the overflow goes to the inner reader. Buffers from
// either source are interchangeable.
func (r *Reader) RecycleBlockBuf(vals []float32) {
	if !r.tier.bufs.Put(vals) {
		r.inner.RecycleBlockBuf(vals)
	}
}
