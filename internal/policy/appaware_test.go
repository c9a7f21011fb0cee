package policy

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/entropy"
	"repro/internal/grid"
	"repro/internal/memhier"
	"repro/internal/radius"
	"repro/internal/storage"
	"repro/internal/vec"
	"repro/internal/visibility"
	"repro/internal/volume"
)

type fixture struct {
	ds  *volume.Dataset
	g   *grid.Grid
	imp *entropy.Table
	vis *visibility.Table
	h   *memhier.Hierarchy
}

// newFixture builds a small end-to-end setup: 64³ ball, 8³ blocks of 8³
// voxels, DRAM holding 25% and SSD 50% of the data.
func newFixture(t testing.TB, ratio float64) *fixture {
	t.Helper()
	ds := volume.Ball().Scale(1.0 / 16)
	g, err := ds.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	imp := entropy.Build(ds, g, entropy.Options{})
	vis, err := visibility.NewTable(g, visibility.Options{
		NAzimuth: 24, NElevation: 12, NDistance: 3,
		RMin: 2, RMax: 4,
		ViewAngle: vec.Radians(10),
		Radius:    radius.Fixed(0.25),
		Lazy:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := memhier.New(
		memhier.StandardConfig(ds.TotalBytes(), ratio, func() cache.Policy { return cache.NewLRU() }),
		func(id grid.BlockID) int64 { return g.Bytes(id, ds.ValueSize, ds.Variables) },
	)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{ds: ds, g: g, imp: imp, vis: vis, h: h}
}

func TestNewValidation(t *testing.T) {
	f := newFixture(t, 0.5)
	if _, err := New(nil, f.vis, f.imp, DefaultOptions(0)); err == nil {
		t.Error("nil hierarchy accepted")
	}
	if _, err := New(f.h, nil, f.imp, DefaultOptions(0)); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := New(f.h, f.vis, nil, DefaultOptions(0)); err == nil {
		t.Error("nil importance accepted")
	}
	// Mismatched importance table size.
	if _, err := New(f.h, f.vis, entropy.NewTable([]float64{1, 2}), DefaultOptions(0)); err == nil {
		t.Error("mismatched importance table accepted")
	}
}

func TestPreloadFillsFastMemory(t *testing.T) {
	f := newFixture(t, 0.5)
	sigma := f.imp.ThresholdForQuantile(0.5)
	a, err := New(f.h, f.vis, f.imp, DefaultOptions(sigma))
	if err != nil {
		t.Fatal(err)
	}
	_ = a
	l0 := f.h.Levels()[0]
	if l0.Len() == 0 {
		t.Fatal("preload left fast memory empty")
	}
	// Preloaded blocks are the most important ones.
	for _, id := range f.imp.TopN(3) {
		if !f.h.Contains(0, id) {
			t.Errorf("top block %d not preloaded", id)
		}
	}
	// Preload charges no time.
	if f.h.DemandTime != 0 || f.h.PrefetchTime != 0 {
		t.Error("preload charged time")
	}
}

func TestPreloadDisabled(t *testing.T) {
	f := newFixture(t, 0.5)
	opts := DefaultOptions(0)
	opts.Preload = false
	if _, err := New(f.h, f.vis, f.imp, opts); err != nil {
		t.Fatal(err)
	}
	if f.h.Levels()[0].Len() != 0 {
		t.Error("preload ran despite being disabled")
	}
}

func TestPreloadRespectsSigma(t *testing.T) {
	f := newFixture(t, 0.5)
	// σ above the maximum entropy: nothing qualifies for preload.
	sigma := f.imp.MaxScore() + 1
	if _, err := New(f.h, f.vis, f.imp, DefaultOptions(sigma)); err != nil {
		t.Fatal(err)
	}
	if f.h.Levels()[0].Len() != 0 {
		t.Error("blocks preloaded despite σ above max entropy")
	}
}

func TestStepFetchesVisibleBlocks(t *testing.T) {
	f := newFixture(t, 0.5)
	opts := DefaultOptions(0)
	opts.Preload = false
	opts.PrefetchEnabled = false
	a, err := New(f.h, f.vis, f.imp, opts)
	if err != nil {
		t.Fatal(err)
	}
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(10)}
	visible := visibility.VisibleSet(f.g, cam)
	res := a.Step(0, cam.Pos, visible, 0)
	if res.IOTime == 0 {
		t.Error("cold step cost no I/O time")
	}
	if res.DemandFetches != len(visible) {
		t.Errorf("fetches = %d, want %d (all cold)", res.DemandFetches, len(visible))
	}
	// All visible blocks are now in fast memory (they fit: 25% cache).
	for _, id := range visible {
		if !f.h.Contains(0, id) {
			t.Errorf("visible block %d not resident after step", id)
		}
	}
	// lastUse updated.
	if a.LastUse(visible[0]) != 0 {
		t.Errorf("LastUse = %d, want 0", a.LastUse(visible[0]))
	}
	// Second step at the same position is nearly free.
	res2 := a.Step(1, cam.Pos, visible, 0)
	if res2.DemandFetches != 0 {
		t.Errorf("warm step fetched %d blocks", res2.DemandFetches)
	}
	if res2.IOTime != 0 {
		t.Errorf("warm step I/O = %v", res2.IOTime)
	}
}

func TestPrefetchOverlapsAndFills(t *testing.T) {
	f := newFixture(t, 0.5)
	a, err := New(f.h, f.vis, f.imp, DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(10)}
	visible := visibility.VisibleSet(f.g, cam)
	res := a.Step(0, cam.Pos, visible, 0)
	if res.QueryCost == 0 {
		t.Error("no query cost charged for T_visible lookup")
	}
	if res.Prefetches == 0 {
		t.Error("nothing prefetched on a cold step")
	}
	if res.PrefetchTime == 0 {
		t.Error("prefetch cost zero despite prefetches")
	}
	// Demand and prefetch accounting are separate in the hierarchy.
	if f.h.PrefetchTime != res.PrefetchTime {
		t.Errorf("hierarchy prefetch %v != step %v", f.h.PrefetchTime, res.PrefetchTime)
	}
}

func TestPrefetchDisabled(t *testing.T) {
	f := newFixture(t, 0.5)
	opts := DefaultOptions(0)
	opts.PrefetchEnabled = false
	a, _ := New(f.h, f.vis, f.imp, opts)
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(10)}
	res := a.Step(0, cam.Pos, visibility.VisibleSet(f.g, cam), 0)
	if res.Prefetches != 0 || res.PrefetchTime != 0 || res.QueryCost != 0 {
		t.Errorf("prefetch ran despite being disabled: %+v", res)
	}
}

func TestSigmaFiltersPrefetch(t *testing.T) {
	f := newFixture(t, 0.5)
	// σ at the max score: no block qualifies for prefetch.
	opts := DefaultOptions(f.imp.MaxScore())
	opts.Preload = false
	a, _ := New(f.h, f.vis, f.imp, opts)
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(10)}
	res := a.Step(0, cam.Pos, visibility.VisibleSet(f.g, cam), 0)
	if res.Prefetches != 0 {
		t.Errorf("prefetched %d blocks with σ = max entropy", res.Prefetches)
	}
}

func TestStaleOnlyEvictionProtectsFrame(t *testing.T) {
	// Build a tiny DRAM that can hold only part of a frame's visible set;
	// with stale-only eviction, blocks fetched this frame survive the
	// frame's own installs (eviction falls back only when all are fresh).
	f := newFixture(t, 0.5)
	ds := f.ds
	blockBytes := f.g.Bytes(0, ds.ValueSize, ds.Variables)
	h, err := memhier.New(memhier.Config{
		Levels: []memhier.LevelConfig{
			{Device: storage.DRAM(), Capacity: 4 * blockBytes, Policy: cache.NewLRU()},
			{Device: storage.SSD(), Capacity: 64 * blockBytes, Policy: cache.NewLRU()},
		},
		Backing: storage.HDD(),
	}, func(id grid.BlockID) int64 { return f.g.Bytes(id, ds.ValueSize, ds.Variables) })
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(0)
	opts.Preload = false
	opts.PrefetchEnabled = false
	a, err := New(h, f.vis, f.imp, opts)
	if err != nil {
		t.Fatal(err)
	}
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(10)}
	visible := visibility.VisibleSet(f.g, cam)
	if len(visible) <= 4 {
		t.Skip("visible set too small to stress eviction")
	}
	a.Step(0, cam.Pos, visible, 0)
	// DRAM can hold 4 blocks; all must be from this frame's visible set.
	l0 := h.Levels()[0]
	if l0.Len() != 4 {
		t.Fatalf("resident = %d, want 4", l0.Len())
	}
	for _, id := range visible {
		if h.Contains(0, id) && a.LastUse(id) != 0 {
			t.Errorf("resident block %d has lastUse %d", id, a.LastUse(id))
		}
	}
}

func TestLowerMissRateThanLRUOnRevisitPath(t *testing.T) {
	// End-to-end sanity: on an orbit that revisits vicinities, the
	// app-aware policy's demand miss traffic is below plain LRU's.
	runLRU := func() float64 {
		f := newFixture(t, 0.5)
		path := camera.Orbit(3, 60)
		for _, pos := range path.Steps {
			cam := camera.Camera{Pos: pos, ViewAngle: vec.Radians(10)}
			for _, id := range visibility.VisibleSet(f.g, cam) {
				f.h.Get(id)
			}
		}
		return f.h.TotalMissRate()
	}
	runOPT := func() float64 {
		f := newFixture(t, 0.5)
		sigma := f.imp.ThresholdForQuantile(0.8)
		a, err := New(f.h, f.vis, f.imp, DefaultOptions(sigma))
		if err != nil {
			t.Fatal(err)
		}
		path := camera.Orbit(3, 60)
		for i, pos := range path.Steps {
			cam := camera.Camera{Pos: pos, ViewAngle: vec.Radians(10)}
			a.Step(i, pos, visibility.VisibleSet(f.g, cam), 0)
		}
		return f.h.TotalMissRate()
	}
	lru, opt := runLRU(), runOPT()
	if opt >= lru {
		t.Errorf("OPT miss rate %.3f >= LRU %.3f", opt, lru)
	}
}

func TestPrefetchUtilityAccounting(t *testing.T) {
	f := newFixture(t, 0.5)
	a, err := New(f.h, f.vis, f.imp, DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	theta := vec.Radians(10)
	// Walk a small orbit: prefetched vicinity blocks become next frames'
	// visible blocks, so some speculation must pay off.
	path := camera.Orbit(3, 30)
	for i, pos := range path.Steps {
		cam := camera.Camera{Pos: pos, ViewAngle: theta}
		a.Step(i, pos, visibility.VisibleSet(f.g, cam), 0)
	}
	issued, used := a.PrefetchUtility()
	if issued == 0 {
		t.Fatal("no prefetches issued")
	}
	if used == 0 {
		t.Error("no prefetch ever used; prediction totally wasted")
	}
	if used > issued {
		t.Errorf("used %d > issued %d", used, issued)
	}
}

func TestName(t *testing.T) {
	f := newFixture(t, 0.5)
	a, _ := New(f.h, f.vis, f.imp, DefaultOptions(0))
	if a.Name() == "" {
		t.Error("empty name")
	}
}
