package store

import (
	"context"
	"sync"

	"repro/internal/grid"
)

// Prefetcher is the bounded, de-duplicating prefetch queue of Algorithm 1
// (lines 20–22) in front of a MemCache: callers offer predicted blocks
// without ever blocking, a fixed set of workers pulls them into the cache,
// and a block sits in the queue at most once however many consecutive frames
// predict it. Which blocks are worth offering, and what the outcomes count
// towards, is the owner's business (ooc.Runtime per runtime, blocksvc per
// session). Safe for concurrent use.
type Prefetcher struct {
	cache *MemCache
	ctx   context.Context
	done  func(err error)
	wg    sync.WaitGroup

	mu         sync.Mutex
	closed     bool
	prefetchCh chan grid.BlockID
	// queued holds the blocks sitting in prefetchCh or being prefetched
	// right now.
	queued map[grid.BlockID]struct{}
}

// NewPrefetcher starts workers goroutines prefetching into cache from a queue
// of the given depth. Each prefetch is a single best-effort attempt under
// ctx — a failure only means the block will be demand-read later, and the
// cache coalesces it with any concurrent demand read of the same block.
// done, when non-nil, is called from the worker with each prefetch's
// outcome. Workers stop when ctx is done, abandoning the queue, or on Close,
// after draining it.
func NewPrefetcher(ctx context.Context, cache *MemCache, workers, depth int, done func(err error)) *Prefetcher {
	p := &Prefetcher{
		cache:      cache,
		ctx:        ctx,
		done:       done,
		prefetchCh: make(chan grid.BlockID, depth),
		queued:     make(map[grid.BlockID]struct{}),
	}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.work()
	}
	return p
}

func (p *Prefetcher) work() {
	defer p.wg.Done()
	for {
		select {
		case <-p.ctx.Done():
			return
		case id, ok := <-p.prefetchCh:
			if !ok {
				return
			}
			err := p.cache.Prefetch(p.ctx, id)
			p.mu.Lock()
			delete(p.queued, id)
			p.mu.Unlock()
			if p.done != nil {
				p.done(err)
			}
		}
	}
}

// Offer queues a frame's planned blocks for prefetch in ids' order, under
// one lock, and reports what became of them: issued (queued; a worker will
// prefetch it), duplicate (already queued or being prefetched) and dropped
// (the queue was full, or the prefetcher closed: predictions are shed rather
// than allowed to block the frame that made them, so with the list in
// priority order a full queue drops its tail). The issued blocks are moved to
// the front of ids, in order: ids[:issued]. It never blocks and starts no
// goroutine.
func (p *Prefetcher) Offer(ids []grid.BlockID) (issued, duplicate, dropped int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range ids {
		if _, dup := p.queued[id]; dup {
			duplicate++
			continue
		}
		if p.closed {
			dropped++
			continue
		}
		select {
		case p.prefetchCh <- id:
			p.queued[id] = struct{}{}
			ids[issued] = id
			issued++
		default:
			dropped++
		}
	}
	return issued, duplicate, dropped
}

// Close stops the workers and waits for them: queued blocks are still
// prefetched unless the prefetcher's ctx is done. Offers after Close are
// dropped. Idempotent.
func (p *Prefetcher) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.prefetchCh)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
