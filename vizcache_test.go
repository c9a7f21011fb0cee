package vizcache

import (
	"bytes"
	"image/png"
	"testing"
	"time"

	"repro/internal/vec"
)

func TestDatasetCatalogFacade(t *testing.T) {
	if len(Datasets()) != 4 {
		t.Fatalf("Datasets = %d", len(Datasets()))
	}
	if DatasetByName("3d_ball") == nil || DatasetByName("x") != nil {
		t.Error("DatasetByName broken")
	}
	ball := Ball()
	if ball.Res.X != 1024 {
		t.Errorf("Ball res = %v", ball.Res)
	}
}

func TestPolicyConstructorsFacade(t *testing.T) {
	policies := []Policy{NewFIFO(), NewLRU(), NewARC(), NewBelady(nil)}
	for _, p := range policies {
		if p.Name() == "" {
			t.Error("unnamed policy")
		}
		p.Insert(BlockID(1))
		if v, ok := p.Victim(2, VictimFilter{}); !ok || v != 1 {
			t.Errorf("%s: Insert/Victim broken", p.Name())
		}
	}
}

func TestPathGeneratorsFacade(t *testing.T) {
	if SphericalPath(3, 5, 10).Len() != 10 {
		t.Error("SphericalPath")
	}
	if RandomPath(2, 4, 5, 10, 10, 1).Len() != 10 {
		t.Error("RandomPath")
	}
	if ZoomPath(Vec(1, 0, 0), 4, 2, 10).Len() != 10 {
		t.Error("ZoomPath")
	}
	if OrbitPath(3, 10).Len() != 10 {
		t.Error("OrbitPath")
	}
}

func TestRunnersFacade(t *testing.T) {
	ds := Ball().Scale(1.0 / 16)
	g, err := ds.GridWithBlockCount(512)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig{
		Dataset:    ds,
		Grid:       g,
		Path:       OrbitPath(3, 20),
		ViewAngle:  0.17,
		CacheRatio: 0.5,
	}
	lru, err := RunBaseline(cfg, func() Policy { return NewLRU() }, "LRU")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := RunAppAware(cfg, AppAwareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.MissRate >= lru.MissRate {
		t.Errorf("OPT %.3f >= LRU %.3f", opt.MissRate, lru.MissRate)
	}
}

func TestBuildImportanceFacade(t *testing.T) {
	ds := Ball().Scale(1.0 / 16)
	g, _ := ds.GridWithBlockCount(512)
	imp := BuildImportance(ds, g)
	if imp.Len() != g.NumBlocks() {
		t.Errorf("importance len = %d", imp.Len())
	}
	if imp.MaxScore() <= 0 {
		t.Error("no entropy found")
	}
}

func TestVisibleBlocksFacade(t *testing.T) {
	ds := Ball().Scale(1.0 / 16)
	g, _ := ds.GridWithBlockCount(512)
	set := VisibleBlocks(g, Camera{Pos: Vec(0, 0, 3), ViewAngle: 0.26})
	if len(set) == 0 || len(set) >= g.NumBlocks() {
		t.Errorf("visible = %d of %d", len(set), g.NumBlocks())
	}
}

func TestViewerSession(t *testing.T) {
	ds := Ball().Scale(1.0 / 16)
	v, err := NewViewer(ds, ViewerOptions{Blocks: 512})
	if err != nil {
		t.Fatal(err)
	}
	if v.Grid().NumBlocks() != 512 {
		t.Errorf("blocks = %d", v.Grid().NumBlocks())
	}
	path := OrbitPath(3, 15)
	var lastIO FrameStats
	for i, pos := range path.Steps {
		st := v.Goto(pos)
		if st.Step != i {
			t.Fatalf("step = %d, want %d", st.Step, i)
		}
		if st.VisibleBlocks == 0 {
			t.Fatalf("no visible blocks at step %d", i)
		}
		lastIO = st
	}
	_ = lastIO
	m := v.Metrics()
	if m.Steps != 15 {
		t.Errorf("Steps = %d", m.Steps)
	}
	if m.MissRate <= 0 || m.MissRate >= 1 {
		t.Errorf("MissRate = %g", m.MissRate)
	}
	if len(v.Visible()) == 0 {
		t.Error("Visible empty after Goto")
	}
	// Revisiting the orbit start is cheap: most blocks cached.
	st := v.Goto(path.Steps[0])
	if st.IOTime > lastIO.IOTime && st.IOTime > 0 {
		// Revisit should not cost more than a fresh frame; tolerate only
		// equality or less.
		t.Errorf("revisit IOTime %v > cold %v", st.IOTime, lastIO.IOTime)
	}
}

// TestViewerIsTheSimulator pins that a Viewer is the simulator: driven over
// a path, it reports what RunAppAware reports for that path on its tables,
// and its frames add up to its Metrics.
func TestViewerIsTheSimulator(t *testing.T) {
	ds := Ball().Scale(1.0 / 16)
	v, err := NewViewer(ds, ViewerOptions{Blocks: 512})
	if err != nil {
		t.Fatal(err)
	}
	path := RandomPath(2.8, 3.2, 10, 15, 40, 7)
	var io, prefetch time.Duration
	var prefetches int
	for _, pos := range path.Steps {
		st := v.Goto(pos)
		io += st.IOTime
		prefetch += st.PrefetchTime
		prefetches += st.Prefetches
	}
	got := v.Metrics()
	want, err := RunAppAware(SimConfig{
		Dataset: ds, Grid: v.Grid(), Path: path, ViewAngle: vec.Radians(10), CacheRatio: 0.5,
	}, AppAwareConfig{Visible: v.Visibility(), Importance: v.Importance()})
	if err != nil {
		t.Fatal(err)
	}
	want.Trace = nil
	if got != want {
		t.Errorf("Viewer.Metrics() = %+v\nRunAppAware     = %+v", got, want)
	}
	if io != got.IOTime || prefetch != got.PrefetchTime || prefetches != got.Prefetches {
		t.Errorf("frames add up to I/O %v, prefetch %v in %d blocks; Metrics says %v, %v in %d",
			io, prefetch, prefetches, got.IOTime, got.PrefetchTime, got.Prefetches)
	}
}

func TestViewerRenderPNG(t *testing.T) {
	ds := Ball().Scale(1.0 / 32)
	v, err := NewViewer(ds, ViewerOptions{Blocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.RenderPNG(&bytes.Buffer{}, 8, 8); err == nil {
		t.Error("RenderPNG before Goto should fail")
	}
	v.Goto(Vec(0, 0, 3))
	var buf bytes.Buffer
	if err := v.RenderPNG(&buf, 16, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := png.Decode(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestViewerAnalytics(t *testing.T) {
	ds := Climate().Scale(0.2).WithVariables(4)
	v, err := NewViewer(ds, ViewerOptions{Blocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	// All analytics fail before the first Goto.
	if _, err := v.Histogram(0, 8); err == nil {
		t.Error("Histogram before Goto succeeded")
	}
	if _, err := v.Correlation([]int{0, 1}); err == nil {
		t.Error("Correlation before Goto succeeded")
	}
	if _, err := v.Stats(0); err == nil {
		t.Error("Stats before Goto succeeded")
	}
	v.Goto(Vec(0, 0, 3))
	h, err := v.Histogram(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() == 0 {
		t.Error("empty histogram")
	}
	m, err := v.Correlation([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 || m[0][0] != 1 {
		t.Errorf("correlation = %v", m)
	}
	st, err := v.Stats(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count == 0 || st.Min > st.Max {
		t.Errorf("stats = %+v", st)
	}
}

func TestViewerValidation(t *testing.T) {
	if _, err := NewViewer(nil, ViewerOptions{}); err == nil {
		t.Error("nil dataset accepted")
	}
	ds := Ball().Scale(1.0 / 32)
	// Explicit block size is honored.
	v, err := NewViewer(ds, ViewerOptions{BlockSize: Dims{X: 16, Y: 16, Z: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Grid().BlockSize() != (Dims{X: 16, Y: 16, Z: 16}) {
		t.Errorf("block size = %v", v.Grid().BlockSize())
	}
}

func TestQueryFacade(t *testing.T) {
	ds := LiftedRR().Scale(1.0 / 16)
	g, err := ds.GridWithBlockCount(128)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := BuildSummaries(ds, g, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := sums.Select(Query{{Variable: 0, Min: 0.4, Max: 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 || len(sel) >= g.NumBlocks() {
		t.Errorf("flame query selected %d of %d", len(sel), g.NumBlocks())
	}
	// AutoTransfer composes with the facade transfer functions.
	tf := AutoTransfer([]int64{100, 10, 1}, Hot)
	if _, _, _, a := tf(0.5); a < 0 || a > 1 {
		t.Errorf("auto opacity = %g", a)
	}
}

func TestTransferFuncsFacade(t *testing.T) {
	for _, tf := range []TransferFunc{Grayscale, Hot, CoolWarm, Isosurface(0.5, 0.1, Hot)} {
		r, g, b, a := tf(0.5)
		for _, c := range []float64{r, g, b, a} {
			if c < 0 || c > 1 {
				t.Error("transfer func out of range")
			}
		}
	}
}
