package store

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/grid"
	"repro/internal/volume"
)

func benchFile(b *testing.B) (*BlockFile, *grid.Grid) {
	b.Helper()
	ds := volume.Ball().Scale(1.0 / 16) // 64³
	g, err := ds.Grid(grid.Dims{X: 16, Y: 16, Z: 16})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.bvol")
	if err := Write(path, ds, g, 0); err != nil {
		b.Fatal(err)
	}
	bf, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { bf.Close() })
	return bf, g
}

func BenchmarkReadBlock(b *testing.B) {
	bf, g := benchFile(b)
	b.SetBytes(bf.BlockBytes(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bf.ReadBlock(grid.BlockID(i % g.NumBlocks())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemCacheHit is a resident block's lookup, the hit path a frame
// takes (ooc's GetResident probe), for a probe of one block.
func BenchmarkMemCacheHit(b *testing.B) {
	bf, _ := benchFile(b)
	c, err := NewMemCache(bf, 64*bf.BlockBytes(0), cache.NewLRU())
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Prefetch(context.Background(), 3); err != nil {
		b.Fatal(err)
	}
	ids := []grid.BlockID{3}
	vals := make([][]float32, 1)
	var miss []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if miss = c.GetResident(vals, ids, miss[:0]); len(miss) != 0 {
			b.Fatal("block 3 not resident")
		}
	}
}

// BenchmarkMemCacheMissWithEviction is a single-block miss that evicts, the
// read a prefetch makes, with no recycling: every buffer is fresh.
func BenchmarkMemCacheMissWithEviction(b *testing.B) {
	bf, g := benchFile(b)
	c, err := NewMemCache(bf, 8*bf.BlockBytes(0), cache.NewLRU())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Prefetch(ctx, grid.BlockID(i%g.NumBlocks())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemCachePrefetch is a prefetch miss that evicts, with the owner's
// Release each iteration so the evicted buffer is the next read's: what is
// left is the in-flight record (reused) and the reader's two result slices.
func BenchmarkMemCachePrefetch(b *testing.B) {
	bf, g := benchFile(b)
	c, err := NewMemCache(bf, 8*bf.BlockBytes(0), cache.NewLRU())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Release()
		if err := c.Prefetch(ctx, grid.BlockID(i%g.NumBlocks())); err != nil {
			b.Fatal(err)
		}
	}
}
