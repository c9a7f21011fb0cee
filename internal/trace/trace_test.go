package trace

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/grid"
)

func sampleTrace() *Trace {
	t := &Trace{}
	t.Append([]grid.BlockID{1, 2, 3})
	t.Append([]grid.BlockID{2, 3, 4})
	t.Append(nil)
	t.Append([]grid.BlockID{1})
	return t
}

func TestTraceBasics(t *testing.T) {
	tr := sampleTrace()
	if tr.steps() != 4 {
		t.Errorf("Steps = %d", tr.steps())
	}
	if tr.TotalRequests() != 7 {
		t.Errorf("TotalRequests = %d", tr.TotalRequests())
	}
	if tr.uniqueBlocks() != 4 {
		t.Errorf("uniqueBlocks = %d", tr.uniqueBlocks())
	}
	flat := tr.Flatten()
	want := []grid.BlockID{1, 2, 3, 2, 3, 4, 1}
	if len(flat) != len(want) {
		t.Fatalf("Flatten = %v", flat)
	}
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("Flatten = %v, want %v", flat, want)
		}
	}
}

func TestAppendCopies(t *testing.T) {
	tr := &Trace{}
	ids := []grid.BlockID{1, 2}
	tr.Append(ids)
	ids[0] = 99
	if tr.Requests[0][0] != 1 {
		t.Error("Append aliased caller slice")
	}
}

func TestReplayLRU(t *testing.T) {
	tr := &Trace{}
	tr.Append([]grid.BlockID{1, 2, 3})
	tr.Append([]grid.BlockID{1, 2, 3})
	res := Replay(tr, cache.NewLRU(), 3)
	if res.Misses != 3 || res.Hits != 3 {
		t.Errorf("misses/hits = %d/%d, want 3/3", res.Misses, res.Hits)
	}
	if got := res.MissRate(); got != 0.5 {
		t.Errorf("MissRate = %g", got)
	}
	if res.Policy != "LRU" {
		t.Errorf("Policy = %q", res.Policy)
	}
}

func TestReplayCapacityZero(t *testing.T) {
	res := Replay(sampleTrace(), cache.NewLRU(), 0)
	if res.Hits != 0 || res.Misses != 0 {
		t.Errorf("capacity 0 replay = %+v", res)
	}
	if res.MissRate() != 0 {
		t.Errorf("empty MissRate = %g", res.MissRate())
	}
}

func TestReplayBeladyBeatsLRUOnCyclicTrace(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 10; i++ {
		tr.Append([]grid.BlockID{1, 2, 3})
	}
	flat := tr.Flatten()
	lru := Replay(tr, cache.NewLRU(), 2)
	fifo := Replay(tr, cache.NewFIFO(), 2)
	opt := Replay(tr, cache.NewBelady(flat), 2)
	if opt.Misses >= lru.Misses || opt.Misses >= fifo.Misses {
		t.Errorf("Belady %d misses not below LRU %d / FIFO %d",
			opt.Misses, lru.Misses, fifo.Misses)
	}
}

func TestReplayBeladyIsLowerBound(t *testing.T) {
	// On a pseudo-random trace Belady must not lose to any online policy.
	tr := &Trace{}
	x := uint32(12345)
	for i := 0; i < 50; i++ {
		var group []grid.BlockID
		for j := 0; j < 8; j++ {
			x = x*1664525 + 1013904223
			group = append(group, grid.BlockID(x%24))
		}
		tr.Append(group)
	}
	flat := tr.Flatten()
	for _, cap := range []int{4, 8, 16} {
		opt := Replay(tr, cache.NewBelady(flat), cap)
		for _, mk := range []cache.Factory{
			func() cache.Policy { return cache.NewLRU() },
			func() cache.Policy { return cache.NewFIFO() },
			func() cache.Policy { return cache.NewARC() },
		} {
			online := Replay(tr, mk(), cap)
			if opt.Misses > online.Misses {
				t.Errorf("cap %d: Belady %d misses > %s %d",
					cap, opt.Misses, online.Policy, online.Misses)
			}
		}
	}
}
