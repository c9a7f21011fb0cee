package volume

import (
	"testing"

	"repro/internal/grid"
)

func TestNewTimeSeriesValidation(t *testing.T) {
	if _, err := NewTimeSeries(nil, 5, 1); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := NewTimeSeries(Ball(), 0, 1); err == nil {
		t.Error("zero timesteps accepted")
	}
}

func TestTimeSeriesBasics(t *testing.T) {
	base := Ball().Scale(1.0 / 32)
	ts, err := NewTimeSeries(base, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Timesteps != 10 || ts.Res != base.Res {
		t.Errorf("series = %+v", ts)
	}
	if ts.totalBytes() != base.TotalBytes()*10 {
		t.Errorf("TotalBytes = %d", ts.totalBytes())
	}
	g, err := ts.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumBlocks() != 64 {
		t.Errorf("blocks = %d", g.NumBlocks())
	}
}

func TestTimeSeriesTimestepsDiffer(t *testing.T) {
	base := Ball().Scale(1.0 / 32)
	ts, err := NewTimeSeries(base, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := ts.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	a := ts.At(0).BlockSamples(g, 10, 0, 4)
	b := ts.At(10).BlockSamples(g, 10, 0, 4)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("timesteps 0 and 10 identical")
	}
	// Names are distinct per timestep.
	if ts.At(0).Name == ts.At(1).Name {
		t.Error("timestep names collide")
	}
}

func TestTimeSeriesAtClamps(t *testing.T) {
	ts, err := NewTimeSeries(Ball().Scale(1.0/32), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ts.At(-3).Name != ts.At(0).Name {
		t.Error("negative timestep not clamped")
	}
	if ts.At(99).Name != ts.At(4).Name {
		t.Error("overflow timestep not clamped")
	}
}
