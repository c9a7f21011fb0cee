package sim

import (
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/grid"
	"repro/internal/render"
	"repro/internal/vec"
	"repro/internal/volume"
)

// testConfig builds a fast end-to-end configuration: 64³ ball in 512 blocks,
// 15° frustum, 60-step orbit at distance 3.
func testConfig(t *testing.T, path camera.Path, ratio float64) Config {
	t.Helper()
	ds := volume.Ball().Scale(1.0 / 16)
	g, err := ds.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Dataset:    ds,
		Grid:       g,
		Path:       path,
		ViewAngle:  vec.Radians(10),
		CacheRatio: ratio,
	}
}

func lruFactory() cache.Policy  { return cache.NewLRU() }
func fifoFactory() cache.Policy { return cache.NewFIFO() }

func TestConfigValidation(t *testing.T) {
	good := testConfig(t, camera.Orbit(3, 10), 0.5)
	bad := []Config{
		{},
		func() Config { c := good; c.Path = camera.Path{}; return c }(),
		func() Config { c := good; c.ViewAngle = 0; return c }(),
		func() Config { c := good; c.CacheRatio = 0; return c }(),
		func() Config { c := good; c.CacheRatio = 1; return c }(),
	}
	for i, c := range bad {
		if _, err := RunBaseline(c, lruFactory, "LRU"); err == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := RunAppAware(c, AppAwareConfig{}); err == nil {
			t.Errorf("app-aware case %d accepted", i)
		}
	}
}

func TestBaselineMetricsConsistency(t *testing.T) {
	cfg := testConfig(t, camera.Orbit(3, 40), 0.5)
	m, err := RunBaseline(cfg, lruFactory, "LRU")
	if err != nil {
		t.Fatal(err)
	}
	if m.Policy != "LRU" || m.Steps != 40 {
		t.Errorf("metadata = %q/%d", m.Policy, m.Steps)
	}
	if m.MissRate <= 0 || m.MissRate > 1 {
		t.Errorf("MissRate = %g", m.MissRate)
	}
	if m.IOTime <= 0 {
		t.Error("no I/O time on a cold run")
	}
	if m.RenderTime <= 0 {
		t.Error("no render time")
	}
	if m.TotalTime != m.IOTime+m.RenderTime {
		t.Errorf("baseline total %v != io %v + render %v", m.TotalTime, m.IOTime, m.RenderTime)
	}
	if m.PrefetchTime != 0 || m.QueryTime != 0 || m.Prefetches != 0 {
		t.Error("baseline recorded prefetch activity")
	}
	if m.MeanVisible <= 0 {
		t.Error("no visible blocks")
	}
	if len(m.Trace.Requests) != 40 {
		t.Errorf("trace steps = %d", len(m.Trace.Requests))
	}
	if m.DemandFetches <= 0 {
		t.Error("no demand fetches")
	}
}

func TestAppAwareMetricsConsistency(t *testing.T) {
	cfg := testConfig(t, camera.Orbit(3, 40), 0.5)
	m, err := RunAppAware(cfg, AppAwareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Steps != 40 {
		t.Errorf("steps = %d", m.Steps)
	}
	if m.QueryTime <= 0 {
		t.Error("no query time charged")
	}
	if m.Prefetches <= 0 {
		t.Error("no prefetches")
	}
	// Total accounting: io already includes query; total must be at least
	// io (render overlap can only add).
	if m.TotalTime < m.IOTime {
		t.Errorf("total %v < io %v", m.TotalTime, m.IOTime)
	}
	// Total never exceeds the non-overlapped sum.
	if m.TotalTime > m.IOTime+m.RenderTime+m.PrefetchTime {
		t.Errorf("total %v exceeds unoverlapped sum", m.TotalTime)
	}
}

func TestAppAwareBeatsBaselinesOnMissRate(t *testing.T) {
	// The paper's headline result (Fig. 12): OPT's miss rate is well below
	// FIFO's and LRU's on both path families.
	paths := []camera.Path{
		camera.Spherical(3, 10, 60),
		camera.Random(2.8, 3.2, 10, 15, 60, 11),
	}
	for _, p := range paths {
		cfg := testConfig(t, p, 0.5)
		lru, err := RunBaseline(cfg, lruFactory, "LRU")
		if err != nil {
			t.Fatal(err)
		}
		fifo, err := RunBaseline(cfg, fifoFactory, "FIFO")
		if err != nil {
			t.Fatal(err)
		}
		opt, err := RunAppAware(cfg, AppAwareConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if opt.MissRate >= lru.MissRate {
			t.Errorf("%s: OPT miss %.3f >= LRU %.3f", p.Name, opt.MissRate, lru.MissRate)
		}
		if opt.MissRate >= fifo.MissRate {
			t.Errorf("%s: OPT miss %.3f >= FIFO %.3f", p.Name, opt.MissRate, fifo.MissRate)
		}
	}
}

func TestLRUNoWorseThanFIFO(t *testing.T) {
	// On revisit-heavy exploration LRU should not lose to FIFO (the paper
	// consistently reports LRU ≤ FIFO).
	cfg := testConfig(t, camera.Spherical(3, 5, 80), 0.5)
	lru, _ := RunBaseline(cfg, lruFactory, "LRU")
	fifo, _ := RunBaseline(cfg, fifoFactory, "FIFO")
	if lru.MissRate > fifo.MissRate*1.05 {
		t.Errorf("LRU miss %.3f > FIFO %.3f", lru.MissRate, fifo.MissRate)
	}
}

func TestBiggerCacheRatioLowersMissRate(t *testing.T) {
	path := camera.Random(2.8, 3.2, 10, 15, 50, 5)
	m5, err := RunAppAware(testConfig(t, path, 0.5), AppAwareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m7, err := RunAppAware(testConfig(t, path, 0.7), AppAwareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m7.MissRate > m5.MissRate {
		t.Errorf("ratio 0.7 miss %.3f > ratio 0.5 %.3f", m7.MissRate, m5.MissRate)
	}
}

func TestSmallerStepsLowerMissRate(t *testing.T) {
	// Fig. 12(a): 1°-per-step spherical paths replace fewer blocks than
	// 30°-per-step paths under every policy.
	small := testConfig(t, camera.Spherical(3, 1, 60), 0.5)
	large := testConfig(t, camera.Spherical(3, 30, 60), 0.5)
	for _, f := range []struct {
		name string
		mk   cache.Factory
	}{{"LRU", lruFactory}, {"FIFO", fifoFactory}} {
		ms, _ := RunBaseline(small, f.mk, f.name)
		ml, _ := RunBaseline(large, f.mk, f.name)
		if ms.MissRate >= ml.MissRate {
			t.Errorf("%s: 1° miss %.3f >= 30° miss %.3f", f.name, ms.MissRate, ml.MissRate)
		}
	}
}

func TestAppAwarePolicyAblationToggles(t *testing.T) {
	cfg := testConfig(t, camera.Orbit(3, 30), 0.5)
	stripped, err := RunAppAware(cfg, AppAwareConfig{Policy: &Options{}})
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunAppAware(cfg, AppAwareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if stripped.Prefetches != 0 {
		t.Error("stripped config still prefetched")
	}
	// Full Algorithm 1 must not be worse than the stripped variant.
	if full.MissRate > stripped.MissRate {
		t.Errorf("full OPT miss %.3f > stripped %.3f", full.MissRate, stripped.MissRate)
	}
}

func TestCustomRenderModelUsed(t *testing.T) {
	cfg := testConfig(t, camera.Orbit(3, 10), 0.5)
	cfg.Render = render.CostModel{Base: time.Second, PerBlock: 0}
	m, err := RunBaseline(cfg, lruFactory, "LRU")
	if err != nil {
		t.Fatal(err)
	}
	if m.RenderTime != 10*time.Second {
		t.Errorf("RenderTime = %v, want 10s", m.RenderTime)
	}
}

func TestDefaultTableOptionsCoverPath(t *testing.T) {
	cfg := testConfig(t, camera.Random(2.5, 3.5, 5, 10, 50, 3), 0.5)
	opts := DefaultTableOptions(cfg)
	// The table's distance range must cover every distance the path
	// actually visits.
	for i, s := range cfg.Path.Steps {
		r := s.Norm()
		if r < opts.RMin || r > opts.RMax {
			t.Errorf("step %d distance %g outside table range [%g, %g]",
				i, r, opts.RMin, opts.RMax)
		}
	}
	total := opts.NAzimuth * opts.NElevation * opts.NDistance
	if total < 20000 || total > 32000 {
		t.Errorf("default lattice size = %d, want ≈ 25920", total)
	}
}

func TestTraceReplayableAgainstBelady(t *testing.T) {
	// The recorded trace feeds the offline-optimal ablation.
	cfg := testConfig(t, camera.Orbit(3, 20), 0.5)
	m, err := RunBaseline(cfg, lruFactory, "LRU")
	if err != nil {
		t.Fatal(err)
	}
	if m.Trace.TotalRequests() == 0 {
		t.Fatal("empty trace")
	}
}
