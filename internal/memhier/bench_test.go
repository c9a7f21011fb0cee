package memhier

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/grid"
	"repro/internal/storage"
)

// benchBlocks is the ID space the benchmarks draw from.
const benchBlocks = 4096

// benchHierarchy returns a hierarchy of 32 KiB blocks with every per-block
// slice already grown to benchBlocks, so the timed loops allocate only what
// an access does. Block benchBlocks-1 is left resident at every level.
func benchHierarchy(b *testing.B, dramBlocks, ssdBlocks int64) *Hierarchy {
	b.Helper()
	h, err := New(testBenchConfig(dramBlocks, ssdBlocks, 1<<15), uniformBench(1<<15))
	if err != nil {
		b.Fatal(err)
	}
	h.Prefetch(benchBlocks - 1)
	return h
}

func testBenchConfig(dramBlocks, ssdBlocks, blockSize int64) Config {
	return Config{
		Levels: []LevelConfig{
			{Device: storage.DRAM(), Capacity: dramBlocks * blockSize, Policy: cache.NewLRU()},
			{Device: storage.SSD(), Capacity: ssdBlocks * blockSize, Policy: cache.NewLRU()},
		},
		Backing: storage.HDD(),
	}
}

func uniformBench(size int64) func(grid.BlockID) int64 {
	return func(grid.BlockID) int64 { return size }
}

func BenchmarkGetHit(b *testing.B) {
	h := benchHierarchy(b, 1024, 2048)
	h.Get(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Get(1)
	}
}

func BenchmarkGetMissWithEviction(b *testing.B) {
	h := benchHierarchy(b, 256, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Get(grid.BlockID(i % benchBlocks))
	}
}

func BenchmarkPrefetch(b *testing.B) {
	h := benchHierarchy(b, 1024, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Prefetch(grid.BlockID(i % benchBlocks))
	}
}

func BenchmarkGetWithEvictFilter(b *testing.B) {
	h := benchHierarchy(b, 256, 512)
	h.SetEvictFilter(0, func(id grid.BlockID) bool { return id%2 == 0 }, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Get(grid.BlockID(i % benchBlocks))
	}
}

// BenchmarkFilteredInstalls is the replacement work of one AppAware step at
// viewer_sim_ball's scale: a DRAM level of 455 blocks, a strict filter
// protecting the 40 at its LRU front — the blocks the last frames used — and
// 180 prefetch installs, each of which evicts the first block past them.
// Steps run untimed until every id has been installed once, so the levels'
// one-time slice growth stays out of B/op whatever b.N is.
func BenchmarkFilteredInstalls(b *testing.B) {
	const resident, protected, installs = 455, 40, 180
	h := benchHierarchy(b, resident, 4*resident)
	for id := 0; id < resident; id++ {
		h.Prefetch(grid.BlockID(id)) // the last one pushes benchBlocks-1 out
	}
	allowed := func(id grid.BlockID) bool { return id >= protected }
	next := resident
	step := func() {
		h.SetEvictFilter(0, allowed, true)
		for k := 0; k < installs; k++ {
			h.Prefetch(grid.BlockID(protected + next%(benchBlocks-protected)))
			next++
		}
		h.SetEvictFilter(0, nil, false)
	}
	for next < benchBlocks {
		step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
