package sim

import (
	"testing"

	"repro/internal/camera"
	"repro/internal/entropy"
	"repro/internal/grid"
	"repro/internal/memhier"
	"repro/internal/radius"
	"repro/internal/storage"
	"repro/internal/vec"
	"repro/internal/visibility"
)

// allPhases is Algorithm 1 as published.
var allPhases = Options{Preload: true, PrefetchEnabled: true, StaleOnlyEviction: true}

// fixture is testConfig's 512-block grid with a small T_visible and the
// grid's T_important.
type fixture struct {
	cfg Config
	imp *entropy.Table
	vis *visibility.Table
}

func newFixture(t *testing.T) fixture {
	t.Helper()
	cfg := testConfig(t, camera.Orbit(3, 60), 0.5)
	vis, err := visibility.NewTable(cfg.Grid, visibility.Options{
		NAzimuth: 24, NElevation: 12, NDistance: 3,
		RMin: 2, RMax: 4,
		ViewAngle: cfg.ViewAngle,
		Radius:    radius.Fixed(0.25),
	})
	if err != nil {
		t.Fatal(err)
	}
	return fixture{cfg: cfg, imp: entropy.Build(cfg.Dataset, cfg.Grid, entropy.Options{}), vis: vis}
}

// session starts an app-aware session with σ at quantile q (1e-9: the
// maximum entropy, so no block is above it) and the given phases.
func (f fixture) session(t *testing.T, q float64, opts Options) *Session {
	t.Helper()
	s, err := NewAppAware(f.cfg, AppAwareConfig{Visible: f.vis, Importance: f.imp, SigmaQuantile: q, Policy: &opts})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// view is the camera on the +z axis at distance 3 and its visible set.
func (f fixture) view() (vec.V3, []grid.BlockID) {
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: f.cfg.ViewAngle}
	return cam.Pos, visibility.VisibleSet(f.cfg.Grid, cam)
}

func TestNewAppAwareValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := NewAppAware(Config{}, AppAwareConfig{Visible: f.vis, Importance: f.imp}); err == nil {
		t.Error("empty config accepted")
	}
	noPath := f.cfg
	noPath.Path = camera.Path{}
	if _, err := NewAppAware(noPath, AppAwareConfig{Importance: f.imp}); err == nil {
		t.Error("default T_visible built without a path to size it")
	}
	if _, err := NewAppAware(noPath, AppAwareConfig{Visible: f.vis, Importance: f.imp}); err != nil {
		t.Errorf("a session with its tables needs no path: %v", err)
	}
	if _, err := NewAppAware(f.cfg, AppAwareConfig{Visible: f.vis, Importance: entropy.NewTable([]float64{1, 2})}); err == nil {
		t.Error("mismatched importance table accepted")
	}
}

func TestPreloadFillsFastMemory(t *testing.T) {
	f := newFixture(t)
	s := f.session(t, 0.5, allPhases)
	if s.h.Levels()[0].Len() == 0 {
		t.Fatal("preload left fast memory empty")
	}
	// Preloaded blocks are the most important ones.
	for _, id := range f.imp.TopN(3) {
		if !s.h.Contains(0, id) {
			t.Errorf("top block %d not preloaded", id)
		}
	}
	// Preload charges no time.
	if s.h.DemandTime != 0 || s.h.PrefetchTime != 0 {
		t.Error("preload charged time")
	}
}

func TestPreloadDisabled(t *testing.T) {
	f := newFixture(t)
	opts := allPhases
	opts.Preload = false
	if s := f.session(t, 1, opts); s.h.Levels()[0].Len() != 0 {
		t.Error("preload ran despite being disabled")
	}
}

func TestPreloadRespectsSigma(t *testing.T) {
	f := newFixture(t)
	if s := f.session(t, 1e-9, allPhases); s.h.Levels()[0].Len() != 0 {
		t.Error("blocks preloaded despite σ at the maximum entropy")
	}
}

func TestStepFetchesVisibleBlocks(t *testing.T) {
	f := newFixture(t)
	s := f.session(t, 1, Options{StaleOnlyEviction: true})
	pos, visible := f.view()
	res := s.Step(pos, visible)
	if res.IOTime == 0 {
		t.Error("cold step cost no I/O time")
	}
	if got := s.Metrics().DemandFetches; got != len(visible) {
		t.Errorf("fetches = %d, want %d (all cold)", got, len(visible))
	}
	// All visible blocks are now in fast memory (they fit: 25% cache).
	for _, id := range visible {
		if !s.h.Contains(0, id) {
			t.Errorf("visible block %d not resident after step", id)
		}
	}
	// A second step at the same position is free.
	res2 := s.Step(pos, visible)
	if got := s.Metrics().DemandFetches; got != len(visible) {
		t.Errorf("warm step fetched %d blocks", got-len(visible))
	}
	if res2.IOTime != 0 {
		t.Errorf("warm step I/O = %v", res2.IOTime)
	}
}

func TestPrefetchOverlapsAndFills(t *testing.T) {
	f := newFixture(t)
	s := f.session(t, 1, allPhases)
	pos, visible := f.view()
	res := s.Step(pos, visible)
	m := s.Metrics()
	if m.QueryTime == 0 || res.IOTime != s.h.DemandTime+m.QueryTime {
		t.Errorf("T_visible lookup not charged to I/O: step %v, demand %v, query %v", res.IOTime, s.h.DemandTime, m.QueryTime)
	}
	if res.Prefetches == 0 {
		t.Error("nothing prefetched on a cold step")
	}
	if res.PrefetchTime == 0 {
		t.Error("prefetch cost zero despite prefetches")
	}
	// Demand and prefetch accounting are separate in the hierarchy.
	if s.h.PrefetchTime != res.PrefetchTime {
		t.Errorf("hierarchy prefetch %v != step %v", s.h.PrefetchTime, res.PrefetchTime)
	}
}

func TestPrefetchDisabled(t *testing.T) {
	f := newFixture(t)
	opts := allPhases
	opts.PrefetchEnabled = false
	s := f.session(t, 1, opts)
	res := s.Step(f.view())
	if res.Prefetches != 0 || res.PrefetchTime != 0 || s.Metrics().QueryTime != 0 {
		t.Errorf("prefetch ran despite being disabled: %+v", res)
	}
}

func TestSigmaFiltersPrefetch(t *testing.T) {
	f := newFixture(t)
	opts := allPhases
	opts.Preload = false
	s := f.session(t, 1e-9, opts)
	if res := s.Step(f.view()); res.Prefetches != 0 {
		t.Errorf("prefetched %d blocks with σ = max entropy", res.Prefetches)
	}
}

func TestStaleOnlyEvictionProtectsFrame(t *testing.T) {
	// A DRAM of four blocks holds only part of a frame's visible set; with
	// stale-only eviction, blocks fetched this frame survive the frame's own
	// installs (eviction falls back only when all are fresh).
	f := newFixture(t)
	s := f.session(t, 1, Options{StaleOnlyEviction: true})
	blockBytes := f.cfg.Grid.Bytes(0, f.cfg.Dataset.ValueSize, f.cfg.Dataset.Variables)
	h, err := memhier.New(memhier.Config{
		Levels: []memhier.LevelConfig{
			{Device: storage.DRAM(), Capacity: 4 * blockBytes, Policy: lruFactory()},
			{Device: storage.SSD(), Capacity: 64 * blockBytes, Policy: lruFactory()},
		},
		Backing: storage.HDD(),
	}, s.h.SizeOf)
	if err != nil {
		t.Fatal(err)
	}
	s.h = h
	pos, visible := f.view()
	if len(visible) <= 4 {
		t.Skip("visible set too small to stress eviction")
	}
	s.Step(pos, visible)
	l0 := h.Levels()[0]
	if l0.Len() != 4 {
		t.Fatalf("resident = %d, want 4", l0.Len())
	}
	inFrame := make(map[grid.BlockID]bool, len(visible))
	for _, id := range visible {
		inFrame[id] = true
	}
	for id := grid.BlockID(0); int(id) < f.cfg.Grid.NumBlocks(); id++ {
		if h.Contains(0, id) && !inFrame[id] {
			t.Errorf("resident block %d is not the frame's", id)
		}
	}
}

func TestLowerMissRateThanLRUOnRevisitPath(t *testing.T) {
	// On an orbit that revisits vicinities, the app-aware policy's demand
	// miss traffic is below plain LRU's.
	f := newFixture(t)
	lru, err := RunBaseline(f.cfg, lruFactory, "LRU")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := RunAppAware(f.cfg, AppAwareConfig{Visible: f.vis, Importance: f.imp, SigmaQuantile: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if opt.MissRate >= lru.MissRate {
		t.Errorf("OPT miss rate %.3f >= LRU %.3f", opt.MissRate, lru.MissRate)
	}
}

func TestName(t *testing.T) {
	f := newFixture(t)
	if got := f.session(t, 1, allPhases).Metrics().Policy; got != "OPT(app-aware)" {
		t.Errorf("app-aware session named %q", got)
	}
	s, err := NewBaseline(f.cfg, fifoFactory, "FIFO")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Policy; got != "FIFO" {
		t.Errorf("baseline session named %q", got)
	}
}

// TestAllPhasesOffIsTheBaseline pins that the executor with no phase on is
// plain LRU fetching, whichever constructor built it.
func TestAllPhasesOffIsTheBaseline(t *testing.T) {
	for _, p := range []camera.Path{camera.Spherical(3, 10, 60), camera.Random(2.8, 3.2, 10, 15, 60, 11)} {
		cfg := testConfig(t, p, 0.5)
		lru, err := RunBaseline(cfg, lruFactory, "LRU")
		if err != nil {
			t.Fatal(err)
		}
		off, err := RunAppAware(cfg, AppAwareConfig{Policy: &Options{}})
		if err != nil {
			t.Fatal(err)
		}
		if lru.MissRate != off.MissRate || lru.DRAMMissRate != off.DRAMMissRate ||
			lru.IOTime != off.IOTime || lru.TotalTime != off.TotalTime ||
			lru.DemandFetches != off.DemandFetches {
			t.Errorf("%s: LRU %+v\nall phases off %+v", p.Name, lru, off)
		}
	}
}

func TestWarmStepAllocatesNothing(t *testing.T) {
	f := newFixture(t)
	base, err := NewBaseline(f.cfg, lruFactory, "LRU")
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Session{"app-aware": f.session(t, 0.75, allPhases), "baseline": base} {
		pos, visible := f.view()
		s.Step(pos, visible) // fetches the frame, ranks its key, sizes the scratch
		s.Step(pos, visible)
		if n := testing.AllocsPerRun(50, func() { s.Step(pos, visible) }); n != 0 {
			t.Errorf("%s: a warm step allocates %v times", name, n)
		}
	}
}
