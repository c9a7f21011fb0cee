package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/grid"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/visibility"
)

// testScale shrinks every workload's frame counts for go test.
const testScale = 1.0 / 50

// manifest is BENCHMARK.json, the benchmark's contract with its driver.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesHarness holds BENCHMARK.json and the harness's own
// tables together: the gated workloads, the same metrics, units, directions
// and bounds, all within the contract's limits.
func TestManifestMatchesHarness(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var gated []workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(m.Workloads) != len(gated) {
		t.Fatalf("manifest has %d workloads, the harness gates %d", len(m.Workloads), len(gated))
	}
	for i, w := range gated {
		mw := m.Workloads[i]
		if mw.Name != w.name || mw.Why != w.why {
			t.Errorf("workload %d: manifest %q %q, harness %q %q", i, mw.Name, mw.Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name, or why of %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, harness %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: manifest %+v, harness %+v", kind, i, g, d)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
				t.Errorf("%s %q: name or unit %q outside the contract", kind, d.name, d.unit)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %q: manifest bound %v, harness %v", kind, d.name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q: per-layer metrics have no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if m.RunSeconds < 1 || m.RunSeconds > 60 || !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("run_seconds %d, paths %v", m.RunSeconds, m.Paths)
	}
}

var (
	fixturesOnce sync.Once
	fixtures     map[string]*fixture
	fixturesDir  string
	fixturesErr  error
)

// sharedFixture builds each volume once for the whole test binary; building
// vol128k per workload would alone take the package past ten seconds.
func sharedFixture(t *testing.T, volume string) *fixture {
	t.Helper()
	if volume == "" {
		return nil
	}
	fixturesOnce.Do(func() {
		dir, err := os.MkdirTemp("/dev/shm", "bench-fixtures-")
		if err != nil {
			if dir, err = os.MkdirTemp("", "bench-fixtures-"); err != nil {
				fixturesErr = err
				return
			}
		}
		fixturesDir = dir
		fixtures = map[string]*fixture{}
		for name, spec := range volumes {
			if fixtures[name], fixturesErr = buildFixture(spec, dir); fixturesErr != nil {
				return
			}
		}
	})
	if fixturesErr != nil {
		t.Fatal(fixturesErr)
	}
	return fixtures[volume]
}

func TestMain(m *testing.M) {
	code := m.Run()
	for _, fx := range fixtures {
		fx.close()
	}
	if fixturesDir != "" {
		os.RemoveAll(fixturesDir)
	}
	os.Exit(code)
}

// scratchDir is a directory for one run's spill files: on tmpfs where there
// is one, as the fixtures are, because a warm tier is 512 fsyncs and on a disk
// those alone take a second per run.
func scratchDir(t *testing.T) string {
	t.Helper()
	if dir, err := os.MkdirTemp("/dev/shm", "bench-test-"); err == nil {
		t.Cleanup(func() { os.RemoveAll(dir) })
		return dir
	}
	return t.TempDir()
}

func metricNames(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func defNames(defs []metricDef) []string {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

// TestWorkloads runs every workload at 1/50 scale, untraced then traced: no
// frame may fail, outputs must verify, nothing may leak, each run must report
// exactly the declared metrics, and the spans must account for the frames. No
// timing is asserted.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{
				w: w, seed: 1, scale: testScale, trace: true, setups: 1,
				dir: scratchDir(t), out: t.TempDir(),
				spanCap: 1 << 18, fixture: sharedFixture(t, w.volume),
			}
			res := run(context.Background(), cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.problems)
			}
			// The run's untraced half reports the end-to-end metrics.
			if got, want := metricNames(res.reference), defNames(endToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("untraced half reports %v, declared %v", got, want)
			}
			for _, d := range endToEnd {
				if v := res.reference[d.name].Value; v <= 0 || math.IsNaN(v) {
					t.Errorf("%s = %v: end-to-end metrics are never 0", d.name, v)
				}
			}
			if got, want := metricNames(res.Metrics), defNames(perLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("traced run reports %v, declared %v", got, want)
			}
			if c := res.Metrics["trace.coverage"].Value; c < 0.9 || c > 1.1 {
				t.Errorf("trace.coverage = %v, want within [0.9, 1.1]", c)
			}
			if _, err := os.Stat(cfg.out + "/" + w.name + ".trace.json"); err != nil {
				t.Errorf("no trace written: %v", err)
			}
			// The layers a workload bypasses must read zero.
			zero := func(names ...string) {
				for _, n := range names {
					if v := res.Metrics[n].Value; v != 0 {
						t.Errorf("%s = %v on a workload that bypasses that layer", n, v)
					}
				}
			}
			if w.tierCap == 0 {
				zero("tier.hit_ratio", "tier.spill_writes_per_frame", "tier.fs.ops_per_hit", "tier.read_self_us_per_block")
			}
			if !w.server {
				zero("blocksvc.client.requests_per_frame", "blocksvc.client.dials")
			}
			if w.tierWarm {
				zero("blocksvc.client.requests_per_frame", "tier.spill_writes_per_frame")
			}
			if w.server && w.serverCache >= 1 {
				zero("store.blockfile.blocks_read_per_frame")
			}
		})
	}
}

// TestCountedMetricsIgnoreRunLength: a time-bound run reads its counters at a
// fixed frame, so a run that gets twice as far reports the same miss rate.
func TestCountedMetricsIgnoreRunLength(t *testing.T) {
	w, _ := workloadByName("viewer_sim_ball")
	rate := func(frames int) (float64, int64) {
		s, err := buildStack(w, filepath.Join(scratchDir(t), "sim"), 1, 200, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		p := s.runFrames(context.Background(), 0, true, 40, func(done int, _ time.Duration) bool { return done >= frames })
		return demandMissRate(s, p), p.countedFrames
	}
	short, n1 := rate(60)
	long, n2 := rate(120)
	if short != long || short == 0 || n1 != 40 || n2 != 40 {
		t.Errorf("miss rate %v over %d frames of 60, %v over %d of 120", short, n1, long, n2)
	}
	// A run that ends before the mark counts what it did.
	if _, n := rate(30); n != 30 {
		t.Errorf("a 30-frame run counted over %d frames", n)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {95, 100}, {90, 90}, {91, 100}, {10, 10}, {1, 10}, {100, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 95); got != 7 {
		t.Errorf("one sample: p95 = %d", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("no samples: p50 = %d", got)
	}
}

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		iv   []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {20, 30}}, 20},
		{[]interval{{0, 10}, {5, 15}}, 15},         // overlap counted once
		{[]interval{{5, 15}, {0, 10}, {2, 4}}, 15}, // unsorted, nested
		{[]interval{{0, 10}, {10, 20}}, 20},        // abutting
	} {
		if got := unionLen(c.iv); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

// TestSelfTimes checks the attribution on a frame shaped like a real one: two
// demand chunks reading in parallel under ooc.frame, one with a child of its
// own, next to a visibility span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: spServerRoot, Parent: noSpan, Frame: -1, Start: 0, End: 1000},
		{Name: spFrame, Parent: noSpan, Frame: 0, Start: 100, End: 200},
		{Name: spVisibleSet, Parent: 1, Frame: 0, Start: 100, End: 110},
		{Name: spOOCFrame, Parent: 1, Frame: 0, Start: 112, End: 198},
		{Name: spTierRead, Parent: 3, Frame: 0, Start: 120, End: 180},
		{Name: spTierRead, Parent: 3, Frame: 0, Start: 130, End: 190},
		{Name: spClientRead, Parent: 5, Frame: 0, Start: 150, End: 185},
		{Name: spFileRead, Parent: 0, Frame: -1, Start: 160, End: 170},
	}
	lt := selfTimes(spans, 0)
	want := map[spanName]int64{
		spVisibleSet: 10,
		spOOCFrame:   86 - 70,  // its interval less the union [120,190) of its two reads
		spTierRead:   70 - 35,  // the union of the two reads less the wire read under one
		spClientRead: 35,       // the server's read has no parent on the wire: not taken out
		spFrame:      100 - 96, // less visibility [100,110) and ooc [112,198)
	}
	for n, w := range want {
		if lt.self[n] != w {
			t.Errorf("self[%s] = %d, want %d", spanNames[n], lt.self[n], w)
		}
	}
	if lt.total[spTierRead] != 120 || lt.count[spTierRead] != 2 || lt.total[spFileRead] != 10 {
		t.Errorf("totals: tier.read %d over %d spans, file read %d", lt.total[spTierRead], lt.count[spTierRead], lt.total[spFileRead])
	}
	if got := lt.coverage(); got != 0.96 {
		t.Errorf("coverage = %v, want 0.96", got)
	}
	// Spans before the mark belong to warm-up and are left out.
	if lt := selfTimes(spans, 7); lt.total[spFrame] != 0 || lt.total[spFileRead] != 10 {
		t.Errorf("mark ignored: %+v", lt.total)
	}
}

func TestPathsFollowSeed(t *testing.T) {
	a, _ := pathSteps("flythrough", cameraRadius, 500, 1)
	b, _ := pathSteps("flythrough", cameraRadius, 500, 1)
	c, _ := pathSteps("flythrough", cameraRadius, 500, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two fly-throughs")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave the same fly-through")
	}
	o1, _ := pathSteps("orbit", cameraRadius, 500, 1)
	o2, _ := pathSteps("orbit", cameraRadius, 500, 2)
	if !reflect.DeepEqual(o1, o2) {
		t.Error("the orbit is the paper's fixed spherical path and must not depend on the seed")
	}
	for _, p := range a {
		if r := p.Norm(); r < 2.5 || r > 3.5 {
			t.Fatalf("fly-through leaves T_visible's range: r=%v", r)
		}
	}
	if _, err := pathSteps("zigzag", cameraRadius, 1, 1); err == nil {
		t.Error("unknown path accepted")
	}
}

// TestSeedsKeepTheGrid: the 48 seeds' fly-throughs are 48 different paths,
// and at every step each sees as many blocks as the others do, because the
// block grid is carried onto itself.
func TestSeedsKeepTheGrid(t *testing.T) {
	g, err := grid.New(grid.Dims{X: 64, Y: 64, Z: 64}, grid.Dims{X: 8, Y: 8, Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var want []int
	for seed := uint64(0); seed < 48; seed++ {
		steps, _ := pathSteps("flythrough", cameraRadius, 40, seed)
		if seen[fmt.Sprint(steps)] {
			t.Fatalf("seed %d walks where an earlier seed did", seed)
		}
		seen[fmt.Sprint(steps)] = true
		var got []int
		for _, p := range steps {
			got = append(got, len(visibility.VisibleSet(g, camera.Camera{Pos: p, ViewAngle: vec.Radians(viewAngleDeg)})))
		}
		if want == nil {
			want = got
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d sees %v blocks along the walk, seed 0 %v", seed, got, want)
		}
	}
}

// fullReader implements the whole store reader surface and counts calls.
type fullReader struct {
	single, batches, batchBlocks, recycled int
}

func (r *fullReader) ReadBlock(id grid.BlockID) ([]float32, error) {
	r.single++
	return make([]float32, 4), nil
}

func (r *fullReader) ReadBlockContext(_ context.Context, id grid.BlockID) ([]float32, error) {
	return r.ReadBlock(id)
}

func (r *fullReader) ReadBlocks(_ context.Context, ids []grid.BlockID) ([][]float32, []error) {
	r.batches++
	r.batchBlocks += len(ids)
	vals := make([][]float32, len(ids))
	for i := range vals {
		vals[i] = make([]float32, 4)
	}
	return vals, make([]error, len(ids))
}

func (r *fullReader) RecycleBlockBuf([]float32) { r.recycled++ }

// TestWrapperKeepsBatchingAndRecycling: interposing the timing wrapper must
// not change what MemCache does to the reader below it.
func TestWrapperKeepsBatchingAndRecycling(t *testing.T) {
	tr, err := newTracer(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.release()
	inner := &fullReader{}
	seam := &tracedReader{tr: tr, inner: inner, batch: spClientRead, one: spClientRead, root: tr.background}
	mc, err := store.NewMemCache(seam, 2*16, cache.NewLRU()) // room for two 16-byte blocks
	if err != nil {
		t.Fatal(err)
	}
	mc.EnableRecycling()
	if !mc.RecyclingEnabled() {
		t.Fatal("the wrapper hides BlockBufRecycler from MemCache")
	}
	ctx := withSpan(context.Background(), spanRef{frame: 3, span: tr.begin(spOOCFrame, noSpan, 3)})
	if _, _, errs := mc.GetBatch(ctx, []grid.BlockID{1, 2, 3, 4}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if inner.batches != 1 || inner.batchBlocks != 4 || inner.single != 0 {
		t.Errorf("a miss batch of 4 reached the reader as %d batches of %d blocks and %d single reads",
			inner.batches, inner.batchBlocks, inner.single)
	}
	if inner.recycled != 2 {
		t.Errorf("%d evicted buffers reached the reader, want 2", inner.recycled)
	}
	if seam.blocks.Load() != 4 {
		t.Errorf("seam counted %d blocks", seam.blocks.Load())
	}
	spans := tr.recorded()
	last := spans[len(spans)-1]
	if last.Name != spClientRead || last.Frame != 3 || spans[last.Parent].Name != spOOCFrame {
		t.Errorf("the read's span is %+v: the frame's context did not reach the wrapper", last)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
	if got := quartileSpread([]float64{10, 12, 11}); math.Abs(got-2.0/11) > 1e-12 {
		t.Errorf("spread = %v, want 2/11", got)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("one run has spread %v", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "frame_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "frames_per_s", better: "higher", bound: 0.10}
	for _, c := range []struct {
		d          metricDef
		base, cand []float64
		want       string
	}{
		{lower, []float64{1.00, 1.01, 0.99}, []float64{1.05, 1.06, 1.04}, "ok"},
		{lower, []float64{1.00, 1.01, 0.99}, []float64{1.15, 1.16, 1.14}, "regressed"},
		{higher, []float64{100, 101, 99}, []float64{85, 86, 84}, "regressed"},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, "ok"},
		{lower, []float64{1.0}, []float64{1.2}, "regressed"},
		// Runs spread wider than the bound and overlap: the data cannot tell.
		{lower, []float64{1.0, 1.3, 0.8, 1.1}, []float64{1.2, 0.9, 1.4, 1.1}, "unresolved"},
		// Spread wide, but every candidate run beats every baseline run.
		{lower, []float64{1.0, 1.3, 0.9, 1.1}, []float64{0.5, 0.8, 0.6, 0.7}, "ok"},
		// Spread wide, and every candidate run is worse than every baseline run.
		{lower, []float64{1.0, 1.3, 0.9, 1.1}, []float64{2.0, 2.6, 1.8, 2.2}, "regressed"},
		// A baseline of 0 has no share to worsen by: any rise off it regresses.
		{lower, []float64{0, 0, 0}, []float64{0.1, 0.1, 0.1}, "regressed"},
		{lower, []float64{0, 0, 0}, []float64{0, 0, 0}, "ok"},
		{higher, []float64{0, 0, 0}, []float64{5, 5, 5}, "ok"},
	} {
		if got, _ := verdict(c.d, c.base, c.cand); got != c.want {
			t.Errorf("%s base %v cand %v: %s, want %s", c.d.name, c.base, c.cand, got, c.want)
		}
	}
}

// TestCompareMissingMetric: a candidate report that lacks a metric, cut short
// or renamed, must fail the comparison, not pass it as a fall to 0.
func TestCompareMissingMetric(t *testing.T) {
	full := map[string]metric{}
	for _, d := range endToEnd {
		full[d.name] = metric{Value: 1, Unit: d.unit}
	}
	short := map[string]metric{}
	for n, m := range full {
		if n != "frame_p50_ms" {
			short[n] = m
		}
	}
	write := func(name string, ms map[string]metric) string {
		rep := report{Workloads: []workloadReport{{Name: "w", Runs: []result{{Correct: true, Attempted: 1, Metrics: ms}}}}}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.json", full), write("b.json", short)
	if err := compareReports(io.Discard, a, a); err != nil {
		t.Errorf("a report against itself: %v", err)
	}
	if err := compareReports(io.Discard, a, b); err == nil {
		t.Error("a candidate without frame_p50_ms passed")
	}
	if err := compareReports(io.Discard, b, a); err == nil {
		t.Error("a baseline without frame_p50_ms passed")
	}
}
