package store

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/grid"
)

// fixedReader serves block id as blocks[id] and hands back the same
// preallocated result slices on every batch: a reader that allocates
// nothing, so an allocation count over it is the cache's own. Not safe for
// concurrent batches.
type fixedReader struct {
	blocks [][]float32
	vals   [][]float32
	errs   []error
}

func newFixedReader(n int) *fixedReader {
	r := &fixedReader{blocks: make([][]float32, n), vals: make([][]float32, n), errs: make([]error, n)}
	for id := range r.blocks {
		r.blocks[id] = []float32{float32(id), 1, 2, 3}
	}
	return r
}

func (r *fixedReader) ReadBlock(id grid.BlockID) ([]float32, error) { return r.blocks[id], nil }
func (r *fixedReader) RecycleBlockBuf([]float32)                    {}
func (r *fixedReader) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	vals, errs := r.vals[:len(ids)], r.errs[:len(ids)]
	for k, id := range ids {
		vals[k], errs[k] = r.blocks[id], nil
	}
	return vals, errs
}

// TestPrefetchMissAllocatesNothing: a prefetch that misses and evicts,
// over a reader that allocates nothing, allocates nothing either — its
// in-flight record is a reused one.
func TestPrefetchMissAllocatesNothing(t *testing.T) {
	c, err := NewMemCache(newFixedReader(2), 16, cache.NewLRU()) // room for one block
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	id := grid.BlockID(0)
	prefetch := func() { // each evicts the other block
		id ^= 1
		if err := c.Prefetch(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	prefetch()
	if allocs := testing.AllocsPerRun(100, prefetch); allocs != 0 {
		t.Errorf("a prefetch miss makes %v allocations, want 0", allocs)
	}
	if cc := c.Counters(); cc.Evictions < 100 {
		t.Fatalf("%d evictions: the prefetches did not all miss", cc.Evictions)
	}
}

// TestSortedMissBatchAllocatesItsResults: a GetBatch of sorted ids, every
// one a miss, over a reader that allocates nothing, allocates exactly its
// three results (vals, hit, errs) — no record, channel or index slice.
func TestSortedMissBatchAllocatesItsResults(t *testing.T) {
	const n = 16
	c, err := NewMemCache(newFixedReader(2*n), n*16/2, cache.NewLRU()) // room for half a batch
	if err != nil {
		t.Fatal(err)
	}
	var sets [2][]grid.BlockID
	for i := 0; i < n; i++ {
		sets[0] = append(sets[0], grid.BlockID(i))
		sets[1] = append(sets[1], grid.BlockID(n+i))
	}
	ctx := context.Background()
	k := 0
	batch := func() { // the two disjoint sets in turn: every block misses
		k++
		_, hit, errs := c.GetBatch(ctx, sets[k%2])
		for i := range hit {
			if hit[i] || errs[i] != nil {
				t.Fatalf("block %d: hit %v, err %v; want a clean miss", sets[k%2][i], hit[i], errs[i])
			}
		}
	}
	batch()
	batch()
	if allocs := testing.AllocsPerRun(50, batch); allocs != 3 {
		t.Errorf("a sorted all-miss GetBatch makes %v allocations, want 3", allocs)
	}
}

// slowReader serves block id as four voxels that all read float32(id),
// freshly allocated, after a short random pause that the read's ctx cuts
// short, failing the whole batch with the ctx's error as a reader does.
type slowReader struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func (r *slowReader) ReadBlock(id grid.BlockID) ([]float32, error) {
	v := float32(id)
	return []float32{v, v, v, v}, nil
}
func (r *slowReader) RecycleBlockBuf([]float32) {}
func (r *slowReader) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	r.mu.Lock()
	pause := time.Duration(r.rng.Intn(200)) * time.Microsecond
	r.mu.Unlock()
	vals, errs := make([][]float32, len(ids)), make([]error, len(ids))
	select {
	case <-time.After(pause):
		for k, id := range ids {
			vals[k], errs[k] = r.ReadBlock(id)
		}
	case <-ctx.Done():
		for k := range ids {
			errs[k] = ctx.Err()
		}
	}
	return vals, errs
}

// TestReusedCallsUnderCancels runs overlapping GetBatch and Prefetch callers
// over a slow reader with random ctx cancels, so reads are shared, left by
// waiters, failed on their leader's ctx and taken up again while their
// records are reused. Every slice delivered must be its own block's, and a
// failed block must fail on its caller's own ctx. Afterwards nothing is in
// flight and every spent record is back, emptied, on a bounded free list.
func TestReusedCallsUnderCancels(t *testing.T) {
	const blocks = 24
	c, err := NewMemCache(&slowReader{rng: rand.New(rand.NewSource(1))}, 8*16, cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	check := func(ctx context.Context, id grid.BlockID, v []float32, err error) {
		if err != nil {
			if !errors.Is(err, context.Canceled) || ctx.Err() == nil {
				t.Errorf("block %d: %v with the caller's ctx at %v", id, err, ctx.Err())
			}
			return
		}
		if len(v) != 4 {
			t.Errorf("block %d: %d voxels, want 4", id, len(v))
			return
		}
		for _, x := range v {
			if x != float32(id) {
				t.Errorf("block %d delivered block %v's voxels", id, x)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < 150; it++ {
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(3) == 0 {
					time.AfterFunc(time.Duration(rng.Intn(150))*time.Microsecond, cancel)
				}
				if rng.Intn(3) == 0 {
					id := grid.BlockID(rng.Intn(blocks))
					if err := c.Prefetch(ctx, id); err != nil {
						check(ctx, id, nil, err)
					}
				} else {
					ids := make([]grid.BlockID, 1+rng.Intn(6))
					for i := range ids {
						ids[i] = grid.BlockID(rng.Intn(blocks)) // unsorted, duplicates too
					}
					if rng.Intn(2) == 0 { // the ascending batch the hot callers pass
						slices.Sort(ids)
						ids = slices.Compact(ids)
					}
					vals, _, errs := c.GetBatch(ctx, ids)
					for i, id := range ids {
						check(ctx, id, vals[i], errs[i])
					}
				}
				cancel()
			}
		}(int64(w))
	}
	wg.Wait()
	if cc := c.Counters(); cc.Coalesced == 0 {
		t.Errorf("%+v: no read was shared", cc)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.inflight) != 0 {
		t.Errorf("%d blocks still in flight", len(c.inflight))
	}
	if len(c.free) == 0 || len(c.free) > maxFreeCalls {
		t.Errorf("%d records on the free list, want 1..%d", len(c.free), maxFreeCalls)
	}
	for _, cl := range c.free {
		if cl.holds != 0 || len(cl.done) != 0 || cl.vals != nil || cl.errs != nil || len(cl.ids) != 0 || len(cl.idx) != 0 {
			t.Fatalf("a spent record kept state: holds %d, token %d, vals %v, errs %v, ids %v, idx %v",
				cl.holds, len(cl.done), cl.vals != nil, cl.errs != nil, cl.ids, cl.idx)
		}
	}
}
