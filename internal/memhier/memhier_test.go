package memhier

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cache"
	"repro/internal/grid"
	"repro/internal/storage"
)

// testConfig builds a 2-level hierarchy with uniform block size and small
// capacities so evictions are easy to trigger.
func testConfig(dramBlocks, ssdBlocks int64, blockSize int64) Config {
	return Config{
		Levels: []LevelConfig{
			{Device: storage.DRAM(), Capacity: dramBlocks * blockSize, Policy: cache.NewLRU()},
			{Device: storage.SSD(), Capacity: ssdBlocks * blockSize, Policy: cache.NewLRU()},
		},
		Backing: storage.HDD(),
	}
}

func uniform(size int64) func(grid.BlockID) int64 {
	return func(grid.BlockID) int64 { return size }
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, uniform(1)); err == nil {
		t.Error("no levels accepted")
	}
	if _, err := New(testConfig(1, 2, 10), nil); err == nil {
		t.Error("nil sizeOf accepted")
	}
	bad := testConfig(1, 2, 10)
	bad.Levels[0].Capacity = 0
	if _, err := New(bad, uniform(10)); err == nil {
		t.Error("zero capacity accepted")
	}
	bad2 := testConfig(1, 2, 10)
	bad2.Levels[1].Policy = nil
	if _, err := New(bad2, uniform(10)); err == nil {
		t.Error("nil policy accepted")
	}
}

func TestColdMissGoesToBacking(t *testing.T) {
	h, err := New(testConfig(2, 4, 100), uniform(100))
	if err != nil {
		t.Fatal(err)
	}
	res := h.Get(1)
	if res.FoundLevel != 2 {
		t.Errorf("FoundLevel = %d, want 2 (backing)", res.FoundLevel)
	}
	want := storage.HDD().TransferTime(100)
	if res.Time != want {
		t.Errorf("Time = %v, want %v", res.Time, want)
	}
	// The block is now resident at both cache levels.
	if !h.Contains(0, 1) || !h.Contains(1, 1) {
		t.Error("block not installed in cache levels")
	}
	if h.DemandTime != want || h.PrefetchTime != 0 {
		t.Errorf("DemandTime, PrefetchTime = %v, %v, want %v, 0", h.DemandTime, h.PrefetchTime, want)
	}
}

func TestWarmHitIsFree(t *testing.T) {
	h, _ := New(testConfig(2, 4, 100), uniform(100))
	h.Get(1)
	res := h.Get(1)
	if res.FoundLevel != 0 {
		t.Errorf("FoundLevel = %d, want 0", res.FoundLevel)
	}
	if res.Time != 0 {
		t.Errorf("DRAM hit cost = %v, want 0", res.Time)
	}
}

func TestSSDHitCost(t *testing.T) {
	h, _ := New(testConfig(1, 4, 100), uniform(100))
	h.Get(1)
	h.Get(2) // evicts 1 from DRAM (capacity 1 block); 1 stays on SSD
	res := h.Get(1)
	if res.FoundLevel != 1 {
		t.Errorf("FoundLevel = %d, want 1 (SSD)", res.FoundLevel)
	}
	want := storage.SSD().TransferTime(100)
	if res.Time != want {
		t.Errorf("Time = %v, want %v", res.Time, want)
	}
}

func TestMissAccounting(t *testing.T) {
	h, _ := New(testConfig(2, 4, 100), uniform(100))
	h.Get(1) // miss at DRAM and SSD
	h.Get(1) // hit at DRAM
	h.Get(2) // miss both
	levels := h.Levels()
	if levels[0].Hits != 1 || levels[0].Misses != 2 {
		t.Errorf("DRAM hits/misses = %d/%d, want 1/2", levels[0].Hits, levels[0].Misses)
	}
	if levels[1].Hits != 0 || levels[1].Misses != 2 {
		t.Errorf("SSD hits/misses = %d/%d, want 0/2", levels[1].Hits, levels[1].Misses)
	}
	// Total: probes = 3 DRAM + 2 SSD = 5, misses = 4.
	if got := h.TotalMissRate(); got != 4.0/5.0 {
		t.Errorf("TotalMissRate = %g, want 0.8", got)
	}
	if got := levels[0].MissRate(); got != 2.0/3.0 {
		t.Errorf("DRAM MissRate = %g", got)
	}
}

func TestEvictionRespectsCapacity(t *testing.T) {
	h, _ := New(testConfig(3, 6, 100), uniform(100))
	for i := 1; i <= 10; i++ {
		h.Get(grid.BlockID(i))
	}
	l := h.Levels()
	if l[0].Used() > l[0].Capacity {
		t.Errorf("DRAM used %d > capacity %d", l[0].Used(), l[0].Capacity)
	}
	if l[1].Used() > l[1].Capacity {
		t.Errorf("SSD used %d > capacity %d", l[1].Used(), l[1].Capacity)
	}
	if l[0].Len() != 3 || l[1].Len() != 6 {
		t.Errorf("resident blocks = %d/%d, want 3/6", l[0].Len(), l[1].Len())
	}
	if l[0].Evictions == 0 || l[1].Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

func TestLRUEvictionOrderAcrossHierarchy(t *testing.T) {
	h, _ := New(testConfig(2, 8, 100), uniform(100))
	h.Get(1)
	h.Get(2)
	h.Get(1) // 1 is now MRU in DRAM
	h.Get(3) // evicts 2 (LRU), not 1
	if !h.Contains(0, 1) {
		t.Error("block 1 evicted despite recent use")
	}
	if h.Contains(0, 2) {
		t.Error("block 2 still in DRAM")
	}
	if !h.Contains(1, 2) {
		t.Error("block 2 should remain on SSD")
	}
}

func TestEvictFilterProtectsBlocks(t *testing.T) {
	h, _ := New(testConfig(2, 8, 100), uniform(100))
	h.Get(1)
	h.Get(2)
	// Protect block 1 (as Algorithm 1 protects blocks used this frame).
	h.SetEvictFilter(0, func(id grid.BlockID) bool { return id != 1 }, false)
	h.Get(3) // must evict 2 even though 1 is LRU... (1 is LRU here)
	if !h.Contains(0, 1) {
		t.Error("protected block evicted")
	}
	if h.Contains(0, 2) {
		t.Error("unprotected block survived")
	}
}

func TestEvictFilterFallsBackWhenNothingAllowed(t *testing.T) {
	h, _ := New(testConfig(1, 8, 100), uniform(100))
	h.Get(1)
	h.SetEvictFilter(0, func(grid.BlockID) bool { return false }, false)
	h.Get(2) // nothing allowed: falls back to unrestricted victim
	if !h.Contains(0, 2) {
		t.Error("install failed despite fallback")
	}
	if h.Contains(0, 1) {
		t.Error("old block still resident in level of capacity 1")
	}
}

func TestPrefetchSeparateAccounting(t *testing.T) {
	h, _ := New(testConfig(2, 4, 100), uniform(100))
	h.Prefetch(1)
	if h.DemandTime != 0 {
		t.Errorf("DemandTime = %v after prefetch", h.DemandTime)
	}
	if h.PrefetchTime == 0 {
		t.Error("PrefetchTime not recorded")
	}
	l := h.Levels()
	if l[0].Hits+l[0].Misses+l[1].Hits+l[1].Misses != 0 {
		t.Error("prefetch perturbed hit/miss statistics")
	}
	// The prefetched block now hits for free.
	res := h.Get(1)
	if res.FoundLevel != 0 || res.Time != 0 {
		t.Errorf("post-prefetch Get = %+v", res)
	}
}

func TestPreload(t *testing.T) {
	h, _ := New(testConfig(2, 4, 100), uniform(100))
	h.Preload(0, 7)
	if !h.Contains(0, 7) || !h.Contains(1, 7) {
		t.Error("Preload(0) should install at level 0 and below")
	}
	if h.DemandTime != 0 || h.PrefetchTime != 0 {
		t.Error("Preload charged time")
	}
	h2, _ := New(testConfig(2, 4, 100), uniform(100))
	h2.Preload(1, 9)
	if h2.Contains(0, 9) {
		t.Error("Preload(1) should not install at level 0")
	}
	if !h2.Contains(1, 9) {
		t.Error("Preload(1) should install at level 1")
	}
}

func TestOversizedBlockNotCached(t *testing.T) {
	h, _ := New(testConfig(2, 4, 100), func(id grid.BlockID) int64 {
		if id == 99 {
			return 10000 // larger than every level
		}
		return 100
	})
	res := h.Get(99)
	if res.Time == 0 {
		t.Error("oversized fetch should still pay transfer")
	}
	if h.Contains(0, 99) || h.Contains(1, 99) {
		t.Error("oversized block cached")
	}
	// Hierarchy still works afterwards.
	h.Get(1)
	if !h.Contains(0, 1) {
		t.Error("hierarchy broken after oversized request")
	}
}

func TestResetStats(t *testing.T) {
	h, _ := New(testConfig(2, 4, 100), uniform(100))
	h.Get(1)
	h.Prefetch(2)
	h.ResetStats()
	if h.DemandTime != 0 || h.PrefetchTime != 0 {
		t.Error("times not reset")
	}
	if h.TotalMissRate() != 0 {
		t.Error("miss stats not reset")
	}
	// Residency survives reset.
	if !h.Contains(0, 1) || !h.Contains(0, 2) {
		t.Error("residency lost on ResetStats")
	}
}

func TestStandardConfigRatios(t *testing.T) {
	cfg := StandardConfig(1000, 0.5, func() cache.Policy { return cache.NewLRU() })
	if len(cfg.Levels) != 2 {
		t.Fatalf("levels = %d", len(cfg.Levels))
	}
	if cfg.Levels[1].Capacity != 500 {
		t.Errorf("SSD capacity = %d, want 500 (50%% of dataset)", cfg.Levels[1].Capacity)
	}
	if cfg.Levels[0].Capacity != 250 {
		t.Errorf("DRAM capacity = %d, want 250 (25%% of dataset)", cfg.Levels[0].Capacity)
	}
	if cfg.Backing.Name != "HDD" {
		t.Errorf("backing = %s", cfg.Backing.Name)
	}
	// Ratio 0.7 (Fig. 13b).
	cfg7 := StandardConfig(1000, 0.7, func() cache.Policy { return cache.NewLRU() })
	if cfg7.Levels[1].Capacity != 700 || cfg7.Levels[0].Capacity != 489 {
		t.Errorf("0.7 capacities = %d/%d", cfg7.Levels[0].Capacity, cfg7.Levels[1].Capacity)
	}
	// Policies are distinct instances.
	if cfg.Levels[0].Policy == cfg.Levels[1].Policy {
		t.Error("levels share a policy instance")
	}
}

// TestDemandCounterRecordsSourceLevel: a demand read served from the SSD
// counts as an SSD hit and charges DemandTime the SSD's transfer time.
func TestDemandCounterRecordsSourceLevel(t *testing.T) {
	h, _ := New(testConfig(1, 4, 100), uniform(100))
	h.Get(1)
	h.Get(2) // 1 falls out of DRAM
	before := h.DemandTime
	h.Get(1) // served from SSD
	if h.Levels()[1].Hits != 1 {
		t.Errorf("SSD hits = %d, want 1", h.Levels()[1].Hits)
	}
	if got, want := h.DemandTime-before, storage.SSD().TransferTime(100); got != want {
		t.Errorf("SSD demand read charged %v, want %v", got, want)
	}
}

// Property: residency never exceeds capacity and a Get always makes the
// block resident at level 0 (when it fits), for random request streams.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(reqs []uint8) bool {
		h, err := New(testConfig(4, 8, 10), uniform(10))
		if err != nil {
			return false
		}
		for _, r := range reqs {
			id := grid.BlockID(r % 32)
			h.Get(id)
			for _, l := range h.Levels() {
				if l.Used() > l.Capacity {
					return false
				}
			}
			if !h.Contains(0, id) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: DemandTime is the sum of per-request times and is monotone.
func TestDemandTimeMonotoneProperty(t *testing.T) {
	f := func(reqs []uint8) bool {
		h, err := New(testConfig(2, 4, 10), uniform(10))
		if err != nil {
			return false
		}
		var sum time.Duration
		for _, r := range reqs {
			res := h.Get(grid.BlockID(r % 16))
			if res.Time < 0 {
				return false
			}
			sum += res.Time
		}
		return h.DemandTime == sum
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
