package ooc

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/entropy"
	"repro/internal/grid"
	"repro/internal/radius"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/visibility"
	"repro/internal/volume"
)

// benchFixture writes a 512-block file and returns a cache of cacheFrac of
// its volume over it, with the tables a runtime needs.
func benchFixture(b *testing.B, cacheFrac float64) (*store.MemCache, *grid.Grid, *visibility.Table, *entropy.Table) {
	b.Helper()
	ds := volume.Ball().Scale(1.0 / 16)
	g, err := ds.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.bvol")
	if err := store.Write(path, ds, g, 0); err != nil {
		b.Fatal(err)
	}
	bf, err := store.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { bf.Close() })
	mc, err := store.NewMemCache(bf, int64(cacheFrac*float64(ds.TotalBytes())), cache.NewLRU())
	if err != nil {
		b.Fatal(err)
	}
	imp := entropy.Build(ds, g, entropy.Options{})
	vis, err := visibility.NewTable(g, visibility.Options{
		NAzimuth: 16, NElevation: 8, NDistance: 2,
		RMin: 2.5, RMax: 3.5,
		ViewAngle: vec.Radians(10),
		Radius:    radius.Fixed(0.2),
	})
	if err != nil {
		b.Fatal(err)
	}
	return mc, g, vis, imp
}

// BenchmarkFrame measures one warm out-of-core frame (inline cache hits plus
// prefetch scheduling) on a 512-block file.
func BenchmarkFrame(b *testing.B) {
	mc, g, vis, imp := benchFixture(b, 1)
	rt, err := New(mc, vis, imp, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(10)}
	visible := visibility.VisibleSet(g, cam)
	ctx := context.Background()
	if _, _, err := rt.Frame(ctx, cam.Pos, visible); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rt.Frame(ctx, cam.Pos, visible); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameChurn measures frames that evict on every step: an orbit of
// the 512-block file through a cache of a quarter of the volume, with σ above
// every score so nothing is prefetched. A frame reads its misses as one batch
// on the calling goroutine, so the churn is the same on every run with no
// setting to pin it. Its B/op is the buffer-reuse gate: a block evicted
// during one Frame is read into again after the next, so a frame allocates
// its bookkeeping, not the blocks it reads.
func BenchmarkFrameChurn(b *testing.B) {
	mc, g, vis, imp := benchFixture(b, 0.25)
	rt, err := New(mc, vis, imp, Options{Sigma: imp.MaxScore() + 1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	steps := camera.Orbit(3, 32).Steps
	visible := make([][]grid.BlockID, len(steps))
	for i, pos := range steps {
		visible[i] = visibility.VisibleSet(g, camera.Camera{Pos: pos, ViewAngle: vec.Radians(10)})
	}
	ctx := context.Background()
	frame := func(i int) {
		k := i % len(steps)
		if _, _, err := rt.Frame(ctx, steps[k], visible[k]); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2*len(steps); i++ {
		frame(i) // fill the cache and the reader's free list
	}
	evictions := mc.Counters().Evictions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(mc.Counters().Evictions-evictions)/float64(b.N), "evictions/op")
}
