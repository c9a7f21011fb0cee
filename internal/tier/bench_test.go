package tier

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/ooc"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/visibility"
)

// BenchmarkTieredFrame measures a steady-state frame served from a warm
// SSD spill tier: the DRAM cache is a passthrough (as in
// BenchmarkRemoteFrame, its blocksvc counterpart), so every demand read
// falls through to the tier and is answered from local flash instead of
// the wire. Comparing the two quantifies what the persistent tier buys a
// reconnecting session: a spill-file read + checksum instead of a network
// round trip.
func BenchmarkTieredFrame(b *testing.B) { benchTieredFrame(b, 8) }

// BenchmarkTieredFrame128k is the same frame over the same block grid with
// the blocks the repository's benchmark moves: 32³ voxels, 128 KiB a spill
// file, where a copy or a checksum of the payload is what a hit costs.
func BenchmarkTieredFrame128k(b *testing.B) { benchTieredFrame(b, 32) }

func benchTieredFrame(b *testing.B, edge int) {
	f := startRemoteBlocks(b, edge)
	tr, err := Open(Config{
		Dir:      b.TempDir(),
		Capacity: int64(f.g.NumBlocks()) * int64(spillHeaderSize+f.bf.BlockBytes(0)),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	// Warm the tier with the whole dataset, as a prior session's write-
	// behind would have.
	for _, id := range f.g.All() {
		vals, err := f.bf.ReadBlock(id)
		if err != nil {
			b.Fatal(err)
		}
		put(tr, id, vals) // one at a time: a full spill queue drops
	}

	r := f.dial(b)
	mc, err := store.NewMemCache(NewReader(r, tr), 4, cache.NewLRU()) // passthrough: never caches
	if err != nil {
		b.Fatal(err)
	}
	rt, err := ooc.New(mc, f.vis, f.imp, ooc.Options{
		Sigma: f.imp.MaxScore() + 1, // no prefetch: steady-state demand only
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(20)}
	visible := visibility.VisibleSet(f.g, cam)
	if _, _, err := rt.Frame(ctx, cam.Pos, visible); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(visible)) * f.bf.BlockBytes(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := rt.Frame(ctx, cam.Pos, visible)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Degraded {
			b.Fatalf("degraded benchmark frame: %+v", rep)
		}
	}
	b.StopTimer()
	if c := tr.Counters(); c.SpillHits == 0 {
		b.Fatalf("benchmark never hit the tier: %+v", c)
	}
}
