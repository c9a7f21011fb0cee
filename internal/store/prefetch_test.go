package store

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/grid"
	"repro/internal/testutil"
)

// gatedPrefetcher is a prefetcher over a cache whose backing reads block
// until gr.release is closed; done gets a token per block prefetched.
func gatedPrefetcher(t *testing.T, ctx context.Context, workers, depth int) (*Prefetcher, *MemCache, *gatedReader, chan struct{}) {
	t.Helper()
	gr := &gatedReader{entered: make(chan struct{}, 16), release: make(chan struct{})}
	c, err := NewMemCache(gr, 1<<20, cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{}, 16)
	p := NewPrefetcher(ctx, c, workers, depth, func(err error) {
		if err == nil {
			done <- struct{}{}
		} else if ctx.Err() == nil {
			t.Errorf("prefetch: %v", err)
		}
	})
	return p, c, gr, done
}

func offer(t *testing.T, p *Prefetcher, id grid.BlockID, want Offered) {
	t.Helper()
	if got := p.Offer(id); got != want {
		t.Errorf("Offer(%d) = %d, want %d", id, got, want)
	}
}

func TestPrefetcherOffer(t *testing.T) {
	p, c, gr, done := gatedPrefetcher(t, context.Background(), 1, 2)
	defer p.Close()

	offer(t, p, 1, Issued)
	<-gr.entered              // the worker is inside the backing store with block 1
	offer(t, p, 1, Duplicate) // in flight
	offer(t, p, 2, Issued)
	offer(t, p, 2, Duplicate) // queued
	offer(t, p, 3, Issued)
	// The queue (depth 2) is full and its one worker is stuck: the offer
	// must come back at once, and must not leave block 4 marked as pending.
	offer(t, p, 4, Dropped)
	offer(t, p, 4, Dropped)

	close(gr.release)
	for i := 0; i < 3; i++ {
		<-done
	}
	if n := gr.reads.Load(); n != 3 {
		t.Fatalf("%d backing reads, want 3", n)
	}
	for id := grid.BlockID(1); id <= 3; id++ {
		if !c.Contains(id) {
			t.Errorf("block %d not cached", id)
		}
	}
	// Finished blocks are no longer pending. Whether a cached block is worth
	// offering is the owner's call; offered, it costs no read.
	offer(t, p, 1, Issued)
	<-done
	if n := gr.reads.Load(); n != 3 {
		t.Fatalf("%d backing reads after re-offering a cached block, want 3", n)
	}
}

// countingReader counts backing reads per block and is slow enough for a
// demand read and a prefetch of the same block to overlap.
type countingReader struct {
	mu    sync.Mutex
	reads map[grid.BlockID]int
}

func (r *countingReader) ReadBlock(id grid.BlockID) ([]float32, error) {
	r.mu.Lock()
	r.reads[id]++
	r.mu.Unlock()
	time.Sleep(100 * time.Microsecond)
	return []float32{float32(id)}, nil
}

func (r *countingReader) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	return testutil.ReadEach(ctx, ids, r.ReadBlock)
}

func (r *countingReader) RecycleBlockBuf([]float32) {}

func TestPrefetcherCoalescesWithDemand(t *testing.T) {
	const blocks = 200
	cr := &countingReader{reads: make(map[grid.BlockID]int)}
	c, err := NewMemCache(cr, 1<<20, cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPrefetcher(context.Background(), c, 2, blocks, nil)
	ctx := context.Background()
	var wg sync.WaitGroup
	for id := grid.BlockID(0); id < blocks; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if vals, _, err := getOne(ctx, c, id); err != nil || vals[0] != float32(id) {
				t.Errorf("GetBatch(%d) = %v, %v", id, vals, err)
			}
		}()
		offer(t, p, id, Issued)
	}
	wg.Wait()
	p.Close() // drains the queue
	for id := grid.BlockID(0); id < blocks; id++ {
		if n := cr.reads[id]; n != 1 {
			t.Errorf("block %d read %d times, want 1", id, n)
		}
	}
}

func TestPrefetcherCloseDrains(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	p, c, gr, _ := gatedPrefetcher(t, context.Background(), 2, 8)
	for id := grid.BlockID(0); id < 6; id++ {
		offer(t, p, id, Issued)
	}
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with reads still gated")
	case <-time.After(10 * time.Millisecond):
	}
	close(gr.release)
	<-closed
	for id := grid.BlockID(0); id < 6; id++ {
		if !c.Contains(id) {
			t.Errorf("block %d queued before Close was not prefetched", id)
		}
	}
	offer(t, p, 9, Dropped)
	p.Close() // idempotent
}

func TestPrefetcherStopsOnContext(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	p, c, gr, done := gatedPrefetcher(t, ctx, 1, 8)
	offer(t, p, 1, Issued)
	<-gr.entered
	offer(t, p, 2, Issued)
	cancel()
	close(gr.release)
	<-done // block 1's read was already under way and lands
	p.Close()
	// Block 2 was abandoned in the queue, or taken and refused by the
	// canceled context; either way it cost no read.
	if n := gr.reads.Load(); n != 1 || c.Contains(2) {
		t.Fatalf("%d backing reads, block 2 cached %v; want 1, false", n, c.Contains(2))
	}
}
