package analytics

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/volume"
)

func climateFixture(t *testing.T) (*volume.Dataset, *grid.Grid) {
	t.Helper()
	ds := volume.Climate().Scale(0.2).WithVariables(6)
	g, err := ds.GridWithBlockCount(64)
	if err != nil {
		t.Fatal(err)
	}
	return ds, g
}

func TestRegionHistogram(t *testing.T) {
	ds, g := climateFixture(t)
	blocks := []grid.BlockID{0, 1, 2, 3}
	h, err := RegionHistogram(ds, g, blocks, 0, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Counts) != 16 {
		t.Errorf("bins = %d", len(h.Counts))
	}
	var total int64
	for _, c := range h.Counts {
		total += c
	}
	if total != 4*4*4*4 {
		t.Errorf("total = %d, want %d", total, 4*4*4*4)
	}
}

func TestRegionHistogramErrors(t *testing.T) {
	ds, g := climateFixture(t)
	if _, err := RegionHistogram(ds, g, nil, 0, 16, 4); err == nil {
		t.Error("empty block set accepted")
	}
	if _, err := RegionHistogram(ds, g, []grid.BlockID{0}, 0, 0, 4); err == nil {
		t.Error("zero bins accepted")
	}
}

func TestRegionHistogramConstantRegion(t *testing.T) {
	ds := &volume.Dataset{
		Name: "const", Res: grid.Dims{X: 16, Y: 16, Z: 16},
		Variables: 1, ValueSize: 4,
		Field: constantField{},
	}
	g, err := ds.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	h, err := RegionHistogram(ds, g, []grid.BlockID{0}, 0, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	// All mass in one bin; entropy zero.
	if h.Entropy() != 0 {
		t.Errorf("constant-region entropy = %g", h.Entropy())
	}
}

type constantField struct{}

func (constantField) Name() string                          { return "c" }
func (constantField) Variables() int                        { return 1 }
func (constantField) Sample(_ int, _, _, _ float64) float64 { return 7 }

func TestCorrelationMatrixProperties(t *testing.T) {
	ds, g := climateFixture(t)
	blocks := []grid.BlockID{0, 5, 10, 20, 30}
	vars := []int{0, 1, 2, 3, 4}
	m, err := CorrelationMatrix(ds, g, blocks, vars, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 5 {
		t.Fatalf("matrix size %d", len(m))
	}
	for i := range m {
		if m[i][i] != 1 {
			t.Errorf("diag[%d] = %g, want 1", i, m[i][i])
		}
		for j := range m[i] {
			if m[i][j] != m[j][i] {
				t.Errorf("asymmetric at (%d,%d): %g vs %g", i, j, m[i][j], m[j][i])
			}
			if m[i][j] < -1-1e-9 || m[i][j] > 1+1e-9 {
				t.Errorf("correlation out of [-1,1]: %g", m[i][j])
			}
		}
	}
	// Off-diagonal correlations must not all be zero: derived climate
	// variables are constructed as mixtures of the base fields.
	var maxOff float64
	for i := range m {
		for j := range m[i] {
			if i != j && math.Abs(m[i][j]) > maxOff {
				maxOff = math.Abs(m[i][j])
			}
		}
	}
	if maxOff < 0.1 {
		t.Errorf("max off-diagonal correlation %g; expected structure", maxOff)
	}
}

func TestCorrelationMatrixErrors(t *testing.T) {
	ds, g := climateFixture(t)
	if _, err := CorrelationMatrix(ds, g, nil, []int{0}, 4); err == nil {
		t.Error("empty blocks accepted")
	}
	if _, err := CorrelationMatrix(ds, g, []grid.BlockID{0}, nil, 4); err == nil {
		t.Error("empty vars accepted")
	}
	if _, err := CorrelationMatrix(ds, g, []grid.BlockID{0}, []int{99}, 4); err == nil {
		t.Error("out-of-range variable accepted")
	}
}

func TestCorrelationSelfIdentity(t *testing.T) {
	ds, g := climateFixture(t)
	// Correlating a variable with itself across the same samples is 1.
	m, err := CorrelationMatrix(ds, g, []grid.BlockID{1, 2}, []int{1, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m[0][1]-1) > 1e-9 {
		t.Errorf("self correlation = %g, want 1", m[0][1])
	}
}

func TestRegionStats(t *testing.T) {
	ds, g := climateFixture(t)
	st, err := RegionStats(ds, g, []grid.BlockID{0, 1, 2}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 3*64 {
		t.Errorf("Count = %d", st.Count)
	}
	if st.Min > st.Mean || st.Mean > st.Max {
		t.Errorf("ordering violated: min %g mean %g max %g", st.Min, st.Mean, st.Max)
	}
	if st.StdDev < 0 {
		t.Errorf("StdDev = %g", st.StdDev)
	}
	if _, err := RegionStats(ds, g, nil, 0, 4); err == nil {
		t.Error("empty blocks accepted")
	}
}

func TestStatsOfConstantRegion(t *testing.T) {
	ds := &volume.Dataset{
		Name: "const", Res: grid.Dims{X: 16, Y: 16, Z: 16},
		Variables: 1, ValueSize: 4, Field: constantField{},
	}
	g, _ := ds.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	st, err := RegionStats(ds, g, []grid.BlockID{0}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Min != 7 || st.Max != 7 || st.Mean != 7 {
		t.Errorf("stats = %+v", st)
	}
	if st.StdDev != 0 {
		t.Errorf("StdDev = %g, want 0", st.StdDev)
	}
}
