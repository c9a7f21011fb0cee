package memhier

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/grid"
	"repro/internal/storage"
)

func benchHierarchy(b *testing.B, dramBlocks, ssdBlocks int64) *Hierarchy {
	b.Helper()
	h, err := New(testBenchConfig(dramBlocks, ssdBlocks, 1<<15), uniformBench(1<<15))
	if err != nil {
		b.Fatal(err)
	}
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
		h.Get(grid.BlockID(i % 4096))
	}
}

func BenchmarkPrefetch(b *testing.B) {
	h := benchHierarchy(b, 1024, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Prefetch(grid.BlockID(i % 4096))
	}
}

func BenchmarkGetWithEvictFilter(b *testing.B) {
	h := benchHierarchy(b, 256, 512)
	h.SetEvictFilter(0, func(id grid.BlockID) bool { return id%2 == 0 }, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Get(grid.BlockID(i % 4096))
	}
}
