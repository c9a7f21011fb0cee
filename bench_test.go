package vizcache

// Microbenchmarks for the load-bearing components of the simulated stack.
// The paper's tables and figures are regenerated and compared byte for byte
// by `make repro-check`, not benchmarked; the tracked real-I/O hot paths
// live beside their packages (Makefile BENCH_PKGS).

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/entropy"
	"repro/internal/grid"
	"repro/internal/radius"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/vec"
	"repro/internal/visibility"
	"repro/internal/volume"
)

func benchGrid(b *testing.B) (*volume.Dataset, *grid.Grid) {
	b.Helper()
	ds := volume.Ball().Scale(0.125)
	g, err := ds.GridWithBlockCount(2048)
	if err != nil {
		b.Fatal(err)
	}
	return ds, g
}

// BenchmarkVisibleSet measures the per-frame exact visibility test (Eq. 1
// over all blocks).
func BenchmarkVisibleSet(b *testing.B) {
	_, g := benchGrid(b)
	cam := camera.Camera{Pos: vec.New(0.4, 0.8, 2.8), ViewAngle: vec.Radians(10)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if set := visibility.VisibleSet(g, cam); len(set) == 0 {
			b.Fatal("empty visible set")
		}
	}
}

// BenchmarkEntropyBuild measures T_important construction (parallel block
// entropy scoring).
func BenchmarkEntropyBuild(b *testing.B) {
	ds, g := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := entropy.Build(ds, g, entropy.Options{})
		if tab.MaxScore() <= 0 {
			b.Fatal("no entropy")
		}
	}
}

// BenchmarkVisibilityTableKey measures computing one T_visible key's set
// (vicinal dilated visible set) into a reused buffer.
func BenchmarkVisibilityTableKey(b *testing.B) {
	_, g := benchGrid(b)
	tab, err := visibility.NewTable(g, visibility.Options{
		NAzimuth: 72, NElevation: 36, NDistance: 10,
		RMin: 2.5, RMax: 3.5,
		ViewAngle: vec.Radians(10),
		Radius:    radius.Fixed(0.2),
	})
	if err != nil {
		b.Fatal(err)
	}
	var buf []grid.BlockID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tab.AppendSet(buf[:0], i%tab.NumKeys())
	}
}

// BenchmarkNearestKey measures the O(1) lattice lookup.
func BenchmarkNearestKey(b *testing.B) {
	_, g := benchGrid(b)
	tab, err := visibility.NewTable(g, visibility.Options{
		NAzimuth: 72, NElevation: 36, NDistance: 10,
		RMin: 2.5, RMax: 3.5,
		ViewAngle: vec.Radians(10),
		Radius:    radius.Fixed(0.2),
	})
	if err != nil {
		b.Fatal(err)
	}
	pos := vec.New(1.1, -0.7, 2.6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.NearestKey(pos)
	}
}

// BenchmarkPolicyOps measures raw replacement-policy operation cost: one
// admission a step into a level of 256 unit-sized blocks.
func BenchmarkPolicyOps(b *testing.B) {
	for _, mk := range []struct {
		name string
		f    cache.Factory
	}{
		{"FIFO", func() cache.Policy { return cache.NewFIFO() }},
		{"LRU", func() cache.Policy { return cache.NewLRU() }},
		{"ARC", func() cache.Policy { return cache.NewARC() }},
	} {
		b.Run(mk.name, func(b *testing.B) {
			l := cache.NewLevel(256, mk.f())
			for i := 0; i < b.N; i++ {
				l.Admit(grid.BlockID(i%512), cache.Entry{Size: 1})
			}
		})
	}
}

// BenchmarkAppAwareStep measures one full Algorithm 1 step (demand fetch +
// prediction + prefetch) in steady state.
func BenchmarkAppAwareStep(b *testing.B) {
	ds, g := benchGrid(b)
	path := camera.Orbit(3, 360)
	cfg := sim.Config{
		Dataset: ds, Grid: g, Path: path,
		ViewAngle: vec.Radians(10), CacheRatio: 0.5,
	}
	// One warm run amortizes table construction; the benchmark then
	// re-runs the whole path per iteration (360 steps each).
	imp := entropy.Build(ds, g, entropy.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunAppAware(cfg, sim.AppAwareConfig{Importance: imp}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(360, "steps/op")
}

// BenchmarkRenderFrame measures the software ray-caster (128×96, 64 steps).
func BenchmarkRenderFrame(b *testing.B) {
	ds, g := benchGrid(b)
	rd := &render.Renderer{DS: ds, G: g, TF: render.Grayscale, Steps: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Render(vec.New(0, 0, 3), vec.Radians(20), 128, 96)
	}
}

// BenchmarkBlockSamples measures on-demand block value extraction.
func BenchmarkBlockSamples(b *testing.B) {
	ds, g := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.BlockSamples(g, grid.BlockID(i%g.NumBlocks()), 0, 8)
	}
}
