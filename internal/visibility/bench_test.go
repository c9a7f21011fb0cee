package visibility

import (
	"fmt"
	"testing"

	"repro/internal/camera"
	"repro/internal/grid"
	"repro/internal/radius"
	"repro/internal/vec"
)

// The benchmarks run on bench/'s geometry: a 256³ volume cut into 32³-,
// 16³- or 8³-voxel blocks (512, 4 096 or 32 768 of them), a 10° frustum,
// and the 5° spherical orbit at distance 3 — one camera per iteration, so a
// number is the mean over the views a session meets, not one fixed view.
// The kernel benchmarks also run on the viewer's grid (benchViewer).
const benchViewDeg = 10

var benchOrbit = camera.Spherical(3, 5, 360).Steps

// benchViewer stands for the viewer's grid in benchGrid: 256³ voxels in
// 24×24×16-voxel blocks, 11×11×16 of them, the last x and y blocks ragged.
// Its x rows are 12 lattice points long, so a cost paid once per row weighs
// more there than on the cubic grids.
const benchViewer = -1

func benchGrid(b testing.TB, blocks int) *grid.Grid {
	b.Helper()
	block := grid.Dims{X: 24, Y: 24, Z: 16}
	if blocks != benchViewer {
		edge := map[int]int{512: 32, 4096: 16, 32768: 8}[blocks]
		block = grid.Dims{X: edge, Y: edge, Z: edge}
	}
	g, err := grid.New(grid.Dims{X: 256, Y: 256, Z: 256}, block)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchName names a sub-benchmark by its block count, the viewer's grid
// as "viewer".
func benchName(blocks int) string {
	if blocks == benchViewer {
		return "viewer"
	}
	return fmt.Sprint(blocks)
}

// benchTableOpts is bench/'s T_visible: 32 × 16 × 3 = 1 536 keys, r = 0.3.
func benchTableOpts() Options {
	return Options{
		NAzimuth: 32, NElevation: 16, NDistance: 3,
		RMin: 2.5, RMax: 3.5,
		ViewAngle: vec.Radians(benchViewDeg),
		Radius:    radius.Fixed(0.3),
	}
}

var benchSink []grid.BlockID

func BenchmarkBlockVisible(b *testing.B) {
	g := benchGrid(b, 4096)
	theta := vec.Radians(benchViewDeg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BlockVisible(benchOrbit[0], theta, g, grid.BlockID(i%g.NumBlocks()))
	}
}

func BenchmarkVisibleSet(b *testing.B) {
	for _, blocks := range []int{512, 4096, 32768, benchViewer} {
		b.Run(benchName(blocks), func(b *testing.B) {
			g := benchGrid(b, blocks)
			theta := vec.Radians(benchViewDeg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = VisibleSet(g, camera.Camera{Pos: benchOrbit[i%len(benchOrbit)], ViewAngle: theta})
			}
		})
	}
}

func BenchmarkDilatedVisibleSet(b *testing.B) {
	for _, blocks := range []int{512, 32768, benchViewer} {
		b.Run(benchName(blocks), func(b *testing.B) {
			g := benchGrid(b, blocks)
			theta := vec.Radians(benchViewDeg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = DilatedVisibleSet(g, benchOrbit[i%len(benchOrbit)], theta, 0.3)
			}
		})
	}
}

func BenchmarkVicinalUnionJitter(b *testing.B) {
	g := benchGrid(b, 512)
	theta := vec.Radians(benchViewDeg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = VicinalUnion(g, benchOrbit[i%len(benchOrbit)], theta, 0.3, 8)
	}
}

// BenchmarkTableBuild is the full T_visible of bench/'s fixture: all 1 536
// keys, each computed and memoized by PredictedSet. No path pays it whole —
// a table computes only the keys a path visits — so it is the upper bound.
func BenchmarkTableBuild(b *testing.B) {
	g := benchGrid(b, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := NewTable(g, benchTableOpts())
		if err != nil {
			b.Fatal(err)
		}
		for k := range tab.NumKeys() {
			tab.PredictedSet(k)
		}
	}
}

func predictBenchTable(b *testing.B) *Table {
	b.Helper()
	tab, err := NewTable(benchGrid(b, 4096), benchTableOpts())
	if err != nil {
		b.Fatal(err)
	}
	return tab
}

// BenchmarkTablePredictParallel measures contention on memoized lookups: many
// goroutines hitting already-materialized keys, the steady state of
// concurrent interactive frames sharing one table.
func BenchmarkTablePredictParallel(b *testing.B) {
	tab := predictBenchTable(b)
	for _, pos := range benchOrbit {
		tab.Predict(pos) // materialize
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			tab.Predict(benchOrbit[i%len(benchOrbit)])
			i++
		}
	})
}

func BenchmarkTablePredict(b *testing.B) {
	tab := predictBenchTable(b)
	tab.Predict(benchOrbit[0]) // materialize once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Predict(benchOrbit[0])
	}
}
