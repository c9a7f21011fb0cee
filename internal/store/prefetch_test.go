package store

import (
	"context"
	"slices"
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

// offered is what became of one block offered to a Prefetcher.
type offered int

const (
	issued offered = iota
	duplicate
	dropped
)

// offer offers the one block and checks what became of it.
func offer(t *testing.T, p *Prefetcher, id grid.BlockID, want offered) {
	t.Helper()
	ids := []grid.BlockID{id}
	n := [3]int{}
	n[issued], n[duplicate], n[dropped] = p.Offer(ids)
	if n[want] != 1 {
		t.Errorf("Offer(%d) = %v issued/duplicate/dropped, want outcome %d", id, n, want)
	}
}

func TestPrefetcherOffer(t *testing.T) {
	p, c, gr, done := gatedPrefetcher(t, context.Background(), 1, 3)
	defer p.Close()

	offer(t, p, 1, issued)
	<-gr.entered              // the worker is inside the backing store with block 1
	offer(t, p, 1, duplicate) // in flight
	offer(t, p, 2, issued)
	offer(t, p, 2, duplicate) // queued
	// A frame's list, in one call: a block pending or listed twice is a
	// duplicate. The queue (depth 3, block 2 in it) takes 3 and 4; it is then
	// full and its one worker is stuck, so the rest of the list must be
	// dropped at once and must not be left marked as pending.
	ids := []grid.BlockID{3, 1, 4, 3, 5, 6}
	if in, dup, drop := p.Offer(ids); in != 2 || dup != 2 || drop != 2 {
		t.Errorf("Offer(3 1 4 3 5 6) = %d issued, %d duplicate, %d dropped; want 2, 2, 2", in, dup, drop)
	}
	if want := []grid.BlockID{3, 4}; !slices.Equal(ids[:2], want) {
		t.Errorf("issued blocks at the list's front: %v, want %v", ids[:2], want)
	}
	offer(t, p, 5, dropped)

	close(gr.release)
	for i := 0; i < 4; i++ {
		<-done
	}
	if got, want := gr.order(), []grid.BlockID{1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("backing reads %v, want %v: the queue keeps the offers' order", got, want)
	}
	for id := grid.BlockID(1); id <= 4; id++ {
		if !resident(c, id) {
			t.Errorf("block %d not cached", id)
		}
	}
	// Finished blocks are no longer pending. Whether a cached block is worth
	// offering is the owner's call; offered, it costs no read.
	offer(t, p, 1, issued)
	<-done
	if n := gr.reads.Load(); n != 4 {
		t.Fatalf("%d backing reads after re-offering a cached block, want 4", n)
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
		offer(t, p, id, issued)
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
		offer(t, p, id, issued)
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
		if !resident(c, id) {
			t.Errorf("block %d queued before Close was not prefetched", id)
		}
	}
	offer(t, p, 9, dropped)
	p.Close() // idempotent
}

func TestPrefetcherStopsOnContext(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	p, c, gr, done := gatedPrefetcher(t, ctx, 1, 8)
	offer(t, p, 1, issued)
	<-gr.entered
	offer(t, p, 2, issued)
	cancel()
	close(gr.release)
	<-done // block 1's read was already under way and lands
	p.Close()
	// Block 2 was abandoned in the queue, or taken and refused by the
	// canceled context; either way it cost no read.
	if n := gr.reads.Load(); n != 1 || resident(c, 2) {
		t.Fatalf("%d backing reads, block 2 cached %v; want 1, false", n, resident(c, 2))
	}
}
