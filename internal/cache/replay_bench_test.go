package cache_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/grid"
	"repro/internal/trace"
	"repro/internal/vec"
	"repro/internal/visibility"
)

// BenchmarkReplayBelady32k replays the offline bound at the paper's block
// count: the visible-set trace of a 100-step random path around a volume of
// 32 768 blocks (32³), through Belady at 8 192 blocks, a quarter of them. The
// trace is built before the clock starts; each op is one whole replay,
// Belady's occurrence index included.
func BenchmarkReplayBelady32k(b *testing.B) {
	g, err := grid.New(grid.Dims{X: 256, Y: 256, Z: 256}, grid.Dims{X: 8, Y: 8, Z: 8})
	if err != nil {
		b.Fatal(err)
	}
	d := 2 * g.HalfExtent().Norm()
	path := camera.Random(d*0.93, d*1.07, 10, 15, 100, 1)
	tr := &trace.Trace{}
	var visible []grid.BlockID
	for _, pos := range path.Steps {
		visible = visibility.AppendVisibleSet(visible[:0], g, camera.Camera{Pos: pos, ViewAngle: vec.Radians(10)})
		tr.Append(visible)
	}
	flat := tr.Flatten()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := trace.Replay(tr, cache.NewBelady(flat), 8192); res.Misses == 0 {
			b.Fatal("a replay with no miss")
		}
	}
}
