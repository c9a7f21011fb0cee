package entropy

import (
	"testing"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/volume"
)

func benchDataset(b *testing.B) (*volume.Dataset, *grid.Grid) {
	b.Helper()
	ds := volume.Ball().Scale(0.125)
	g, err := ds.GridWithBlockCount(2048)
	if err != nil {
		b.Fatal(err)
	}
	return ds, g
}

func BenchmarkShannon(b *testing.B) {
	counts := make([]int64, 64)
	for i := range counts {
		counts[i] = int64(i * i % 97)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Shannon(counts)
	}
}

func BenchmarkHistogramAddAll(b *testing.B) {
	rng := field.NewRand(7)
	vals := make([]float32, 4096)
	for i := range vals {
		vals[i] = float32(rng.Float64())
	}
	h := NewHistogram(64, 0, 1)
	b.SetBytes(int64(len(vals) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AddAll(vals)
	}
}

func BenchmarkBlockEntropy(b *testing.B) {
	rng := field.NewRand(1)
	vals := make([]float32, 512)
	for i := range vals {
		vals[i] = float32(rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BlockEntropy(vals, 64)
	}
}

func BenchmarkBuildTable(b *testing.B) {
	ds, g := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(ds, g, Options{})
	}
}

func BenchmarkThresholdForQuantile(b *testing.B) {
	ds, g := benchDataset(b)
	tab := Build(ds, g, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.ThresholdForQuantile(0.75)
	}
}
