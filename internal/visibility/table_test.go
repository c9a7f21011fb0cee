package visibility

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/camera"
	"repro/internal/entropy"
	"repro/internal/grid"
	"repro/internal/radius"
	"repro/internal/vec"
)

func tableOpts() Options {
	return Options{
		NAzimuth:   12,
		NElevation: 6,
		NDistance:  3,
		RMin:       2,
		RMax:       4,
		ViewAngle:  vec.Radians(30),
		Radius:     radius.Fixed(0.1),
	}
}

func newTestTable(t testing.TB, opts Options) (*grid.Grid, *Table) {
	t.Helper()
	g, err := grid.New(grid.Dims{X: 64, Y: 64, Z: 64}, grid.Dims{X: 16, Y: 16, Z: 16})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g, tab
}

func TestNewTableValidation(t *testing.T) {
	g, _ := grid.New(grid.Dims{X: 32, Y: 32, Z: 32}, grid.Dims{X: 16, Y: 16, Z: 16})
	bad := []Options{
		func() Options { o := tableOpts(); o.NAzimuth = 0; return o }(),
		func() Options { o := tableOpts(); o.RMin = 0; return o }(),
		func() Options { o := tableOpts(); o.RMax = 1; return o }(),
		func() Options { o := tableOpts(); o.ViewAngle = 0; return o }(),
		func() Options { o := tableOpts(); o.ViewAngle = 4; return o }(),
		func() Options { o := tableOpts(); o.Radius = nil; return o }(),
	}
	for i, o := range bad {
		if _, err := NewTable(g, o); err == nil {
			t.Errorf("case %d: bad options accepted", i)
		}
	}
}

func TestTableKeyCount(t *testing.T) {
	_, tab := newTestTable(t, tableOpts())
	if got := tab.NumKeys(); got != 12*6*3 {
		t.Errorf("NumKeys = %d, want %d", got, 12*6*3)
	}
}

func TestKeyPosWithinDistanceRange(t *testing.T) {
	_, tab := newTestTable(t, tableOpts())
	for i := 0; i < tab.NumKeys(); i++ {
		r := tab.KeyPos(i).Norm()
		if r < 2 || r > 4 {
			t.Fatalf("key %d at distance %g outside [2, 4]", i, r)
		}
	}
}

func TestNearestKeyRoundTrips(t *testing.T) {
	// The nearest key of a key's own position is that key.
	_, tab := newTestTable(t, tableOpts())
	for i := 0; i < tab.NumKeys(); i++ {
		if got := tab.NearestKey(tab.KeyPos(i)); got != i {
			t.Fatalf("NearestKey(KeyPos(%d)) = %d", i, got)
		}
	}
}

func TestNearestKeyIsActuallyNearest(t *testing.T) {
	// Brute-force check on random positions: the lattice lookup matches a
	// linear scan over all key positions in <l, d> space.
	_, tab := newTestTable(t, tableOpts())
	positions := []vec.V3{
		vec.New(2.5, 0.3, 0.4),
		vec.New(-1.8, 1.2, 2.2),
		vec.New(0.5, -2.5, 1.0),
		vec.New(3.3, 0.1, -0.8),
	}
	for _, p := range positions {
		got := tab.NearestKey(p)
		// The chosen key must be no farther than 2x the true nearest
		// (lattice rounding in spherical space is not exactly Euclidean).
		best := -1
		bestD := 0.0
		for i := 0; i < tab.NumKeys(); i++ {
			d := tab.KeyPos(i).Dist(p)
			if best < 0 || d < bestD {
				best, bestD = i, d
			}
		}
		gotD := tab.KeyPos(got).Dist(p)
		if gotD > 2*bestD+1e-9 {
			t.Errorf("pos %v: lattice key dist %g, true nearest %g", p, gotD, bestD)
		}
	}
}

func TestPredictCoversActualVisibleSet(t *testing.T) {
	// The whole point of T_visible: the predicted set for a camera position
	// should cover most of the exact visible set of that position.
	g, tab := newTestTable(t, Options{
		NAzimuth:   36,
		NElevation: 18,
		NDistance:  4,
		RMin:       2,
		RMax:       4,
		ViewAngle:  vec.Radians(30),
		Radius:     radius.Fixed(0.3),
	})
	cam := camera.Camera{Pos: vec.New(0.4, 0.3, 2.9), ViewAngle: vec.Radians(30)}
	exact := VisibleSet(g, cam)
	pred := tab.Predict(cam.Pos)
	covered := len(Intersect(exact, pred))
	if float64(covered) < 0.7*float64(len(exact)) {
		t.Errorf("prediction covers %d of %d visible blocks, want >= 70%%", covered, len(exact))
	}
}

func TestLazyMaterialization(t *testing.T) {
	o := tableOpts()
	o.Lazy = true
	_, tab := newTestTable(t, o)
	if got := tab.MaterializedKeys(); got != 0 {
		t.Fatalf("lazy table materialized %d keys at build", got)
	}
	s := tab.PredictedSet(5)
	if len(s) == 0 {
		t.Error("empty predicted set for an outside camera")
	}
	if got := tab.MaterializedKeys(); got != 1 {
		t.Errorf("materialized %d, want 1", got)
	}
	// Second access reuses the memoized set (same backing array).
	s2 := tab.PredictedSet(5)
	if &s[0] != &s2[0] {
		t.Error("predicted set recomputed instead of memoized")
	}
}

func TestEagerMatchesLazy(t *testing.T) {
	o := tableOpts()
	_, eager := newTestTable(t, o)
	o.Lazy = true
	_, lazy := newTestTable(t, o)
	for i := 0; i < eager.NumKeys(); i++ {
		a, b := eager.PredictedSet(i), lazy.PredictedSet(i)
		if len(a) != len(b) {
			t.Fatalf("key %d: eager %d blocks, lazy %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("key %d differs at %d", i, j)
			}
		}
	}
	if eager.MaterializedKeys() != eager.NumKeys() {
		t.Error("eager table not fully materialized")
	}
}

// TestAppendSetEqualsPredictedSet: on a lazy, an eager, a VicinalSamples and
// a Clamp table, AppendSet appends every key's PredictedSet after what dst
// holds, and on an unmaterialized key it memoizes nothing.
func TestAppendSetEqualsPredictedSet(t *testing.T) {
	g, _ := newTestTable(t, tableOpts())
	scores := make([]float64, g.NumBlocks())
	for i := range scores {
		scores[i] = float64(i % 7)
	}
	lazy := tableOpts()
	lazy.Lazy = true
	lazy.Radius = radius.Fixed(1.0) // sets the clamp cuts
	eager, vicinal, clamp := lazy, lazy, lazy
	eager.Lazy = false
	vicinal.VicinalSamples = 4
	clamp.Clamp = &Clamp{Importance: entropy.NewTable(scores), MaxBlocks: 5}
	for name, o := range map[string]Options{"lazy": lazy, "eager": eager, "vicinal": vicinal, "clamp": clamp} {
		tab, err := NewTable(g, o)
		if err != nil {
			t.Fatal(err)
		}
		var clamped bool
		for i := 0; i < tab.NumKeys(); i++ {
			before := tab.MaterializedKeys()
			got := tab.AppendSet([]grid.BlockID{9, 2}, i)
			if after := tab.MaterializedKeys(); after != before {
				t.Fatalf("%s table, key %d: AppendSet took materialized keys from %d to %d", name, i, before, after)
			}
			want := tab.PredictedSet(i)
			if !slices.Equal(got[:2], []grid.BlockID{9, 2}) || !slices.Equal(got[2:], want) {
				t.Fatalf("%s table, key %d: AppendSet %v, want [9 2] then PredictedSet %v", name, i, got, want)
			}
			if again := tab.AppendSet(nil, i); !slices.Equal(again, want) {
				t.Fatalf("%s table, materialized key %d: AppendSet %v, PredictedSet %v", name, i, again, want)
			}
			clamped = clamped || len(want) == 5
		}
		if name == "clamp" && !clamped {
			t.Error("no key reached the clamp: the clamp case has no teeth")
		}
	}
}

func TestQueryCostScalesWithKeys(t *testing.T) {
	small := tableOpts()
	large := tableOpts()
	large.NAzimuth *= 4
	_, ts := newTestTable(t, small)
	_, tl := newTestTable(t, large)
	if !(tl.QueryCost() > ts.QueryCost()) {
		t.Errorf("query cost %v not above smaller table's %v", tl.QueryCost(), ts.QueryCost())
	}
	// Default per-key cost applies.
	if got := ts.QueryCost(); got != time.Duration(ts.NumKeys())*25*time.Nanosecond {
		t.Errorf("QueryCost = %v", got)
	}
}

func TestImportanceClampBoundsSetSize(t *testing.T) {
	g, _ := grid.New(grid.Dims{X: 64, Y: 64, Z: 64}, grid.Dims{X: 16, Y: 16, Z: 16})
	// Importance: higher ID = more important (synthetic scores).
	scores := make([]float64, g.NumBlocks())
	for i := range scores {
		scores[i] = float64(i)
	}
	imp := entropy.NewTable(scores)
	o := tableOpts()
	o.Radius = radius.Fixed(1.0) // force over-prediction
	o.Clamp = &Clamp{Importance: imp, MaxBlocks: 5}
	tab, err := NewTable(g, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tab.NumKeys(); i++ {
		set := tab.PredictedSet(i)
		if len(set) > 5 {
			t.Fatalf("key %d set size %d exceeds clamp", i, len(set))
		}
		// Sets remain sorted after clamping.
		for j := 1; j < len(set); j++ {
			if set[j] <= set[j-1] {
				t.Fatalf("clamped set unsorted at key %d", i)
			}
		}
	}
	// Unclamped equivalent has bigger sets somewhere.
	o2 := tableOpts()
	o2.Radius = radius.Fixed(1.0)
	tab2, _ := NewTable(g, o2)
	bigger := false
	for i := 0; i < tab2.NumKeys(); i++ {
		if len(tab2.PredictedSet(i)) > 5 {
			bigger = true
			break
		}
	}
	if !bigger {
		t.Skip("radius too small to over-predict; clamp untestable")
	}
}

func TestClampKeepsMostImportant(t *testing.T) {
	g, _ := grid.New(grid.Dims{X: 64, Y: 64, Z: 64}, grid.Dims{X: 16, Y: 16, Z: 16})
	scores := make([]float64, g.NumBlocks())
	for i := range scores {
		scores[i] = float64(i)
	}
	imp := entropy.NewTable(scores)
	o := tableOpts()
	o.Radius = radius.Fixed(1.0)
	clamped, _ := NewTable(g, Options{
		NAzimuth: o.NAzimuth, NElevation: o.NElevation, NDistance: o.NDistance,
		RMin: o.RMin, RMax: o.RMax, ViewAngle: o.ViewAngle,
		Radius: o.Radius, Clamp: &Clamp{Importance: imp, MaxBlocks: 3},
	})
	full, _ := NewTable(g, Options{
		NAzimuth: o.NAzimuth, NElevation: o.NElevation, NDistance: o.NDistance,
		RMin: o.RMin, RMax: o.RMax, ViewAngle: o.ViewAngle,
		Radius: o.Radius,
	})
	key := 0
	fullSet := full.PredictedSet(key)
	if len(fullSet) <= 3 {
		t.Skip("set too small to clamp")
	}
	clampedSet := clamped.PredictedSet(key)
	// With score = ID, the kept blocks are the 3 largest IDs of fullSet.
	want := fullSet[len(fullSet)-3:]
	for i := range want {
		if clampedSet[i] != want[i] {
			t.Fatalf("clamped = %v, want %v", clampedSet, want)
		}
	}
}

func TestLatticeForTotal(t *testing.T) {
	for _, total := range []int{5760, 11520, 25920, 72000, 108000} {
		nAz, nEl, nDist := LatticeForTotal(total, 10)
		got := nAz * nEl * nDist
		relErr := float64(abs(got-total)) / float64(total)
		if relErr > 0.1 {
			t.Errorf("total %d: lattice %dx%dx%d = %d (err %.1f%%)",
				total, nAz, nEl, nDist, got, 100*relErr)
		}
	}
	// Degenerate arguments are clamped, not rejected.
	nAz, nEl, nDist := LatticeForTotal(0, 0)
	if nAz < 1 || nEl < 1 || nDist < 1 {
		t.Errorf("degenerate lattice %dx%dx%d", nAz, nEl, nDist)
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func TestPredictedSetsSharedNotCopied(t *testing.T) {
	// Documented contract: callers must not modify returned sets, and the
	// table returns the same backing array each call.
	_, tab := newTestTable(t, tableOpts())
	a := tab.PredictedSet(3)
	b := tab.PredictedSet(3)
	if len(a) > 0 && &a[0] != &b[0] {
		t.Error("PredictedSet returned different arrays")
	}
}

// TestPredictedSetConcurrent hammers lazy materialization from many
// goroutines: each key must be computed exactly once and every caller must
// see the identical slice (the per-key sync.Once contract).
func TestPredictedSetConcurrent(t *testing.T) {
	opts := tableOpts()
	opts.NAzimuth, opts.NElevation, opts.NDistance = 24, 12, 2
	opts.Lazy = true
	_, tab := newTestTable(t, opts)
	n := tab.NumKeys()
	first := make([][]grid.BlockID, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				set := tab.PredictedSet(i)
				if len(set) == 0 {
					continue
				}
				mu.Lock()
				if first[i] == nil {
					first[i] = set
				} else if &first[i][0] != &set[0] || len(first[i]) != len(set) {
					t.Errorf("key %d: callers saw different slices", i)
					mu.Unlock()
					return
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if got := tab.MaterializedKeys(); got != n {
		t.Errorf("materialized %d of %d keys", got, n)
	}
}
