package volume

// Time-varying dataset support: a TimeSeries produces one Dataset per
// timestep of an evolving field, so the block/caching machinery (which is
// timestep-agnostic) can treat temporal playback as a sequence of volumes.

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/grid"
)

// TimeSeries is a time-varying dataset: a fixed geometry with per-timestep
// field contents.
type TimeSeries struct {
	Name      string
	Res       grid.Dims
	Variables int
	ValueSize int
	Timesteps int
	Field     field.Evolving
}

// NewTimeSeries wraps a dataset with temporal dynamics over the given
// number of timesteps.
func NewTimeSeries(base *Dataset, timesteps int, seed uint64) (*TimeSeries, error) {
	if base == nil {
		return nil, fmt.Errorf("volume: nil base dataset")
	}
	if timesteps < 1 {
		return nil, fmt.Errorf("volume: timesteps %d", timesteps)
	}
	return &TimeSeries{
		Name:      base.Name + "-t",
		Res:       base.Res,
		Variables: base.Variables,
		ValueSize: base.ValueSize,
		Timesteps: timesteps,
		Field:     field.NewAdvected(base.Field, seed),
	}, nil
}

// At returns the Dataset of timestep t (clamped to [0, Timesteps)).
func (ts *TimeSeries) At(t int) *Dataset {
	if t < 0 {
		t = 0
	}
	if t >= ts.Timesteps {
		t = ts.Timesteps - 1
	}
	return &Dataset{
		Name:        fmt.Sprintf("%s%04d", ts.Name, t),
		Description: "timestep " + fmt.Sprint(t),
		Res:         ts.Res,
		Variables:   ts.Variables,
		ValueSize:   ts.ValueSize,
		Field:       field.TimeSlice(ts.Field, float64(t)),
	}
}

// totalBytes returns the footprint of the whole series.
func (ts *TimeSeries) totalBytes() int64 {
	return ts.Res.Count() * int64(ts.Variables) * int64(ts.ValueSize) * int64(ts.Timesteps)
}

// Grid partitions the (shared) geometry into blocks.
func (ts *TimeSeries) Grid(block grid.Dims) (*grid.Grid, error) {
	return grid.New(ts.Res, block)
}
