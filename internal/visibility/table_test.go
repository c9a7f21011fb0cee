package visibility

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/camera"
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
	pred := tab.AppendSet(nil, tab.NearestKey(cam.Pos))
	covered := intersect(exact, pred)
	if float64(covered) < 0.7*float64(len(exact)) {
		t.Errorf("prediction covers %d of %d visible blocks, want >= 70%%", covered, len(exact))
	}
}

// TestNewTableKeepsNoPerKeyState: a table is its options, so building one
// over 108 000 keys allocates no more than building one over a single key.
func TestNewTableKeepsNoPerKeyState(t *testing.T) {
	g, err := grid.New(grid.Dims{X: 64, Y: 64, Z: 64}, grid.Dims{X: 16, Y: 16, Z: 16})
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(nAz, nEl, nDist int) uint64 {
		o := tableOpts()
		o.NAzimuth, o.NElevation, o.NDistance = nAz, nEl, nDist
		least := ^uint64(0) // of three builds, so a stray allocation elsewhere cannot fail it
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tab, err := NewTable(g, o)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(tab)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	one, many := alloc(1, 1, 1), alloc(120, 90, 10)
	if many > one+4<<10 {
		t.Errorf("NewTable allocated %d B over 108 000 keys, %d B over one: it keeps per-key state", many, one)
	}
}

// TestAppendSetAppends: AppendSet leaves what dst holds in place and appends
// the key's set after it, whether dst has room for the set or not.
func TestAppendSetAppends(t *testing.T) {
	o := tableOpts()
	o.Radius = radius.Fixed(1.0)
	_, tab := newTestTable(t, o)
	roomy := make([]grid.BlockID, 0, 4096)
	for i := 0; i < tab.NumKeys(); i++ {
		want := tab.AppendSet(nil, i)
		if len(want) == 0 {
			t.Fatalf("key %d: empty set for an outside camera", i)
		}
		got := tab.AppendSet([]grid.BlockID{9, 2}, i)
		if !slices.Equal(got[:2], []grid.BlockID{9, 2}) || !slices.Equal(got[2:], want) {
			t.Fatalf("key %d: AppendSet %v, want [9 2] then %v", i, got, want)
		}
		dst := append(roomy[:0], 9, 2)
		if got := tab.AppendSet(dst, i); &got[0] != &dst[0] || !slices.Equal(got[:2], dst) || !slices.Equal(got[2:], want) {
			t.Fatalf("key %d: AppendSet into a roomy dst %v, want [9 2] then %v in place", i, got, want)
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

// TestAppendSetConcurrent computes every key from many goroutines at once,
// each into its own buffer, under -race: each must see the set one
// goroutine alone computes.
func TestAppendSetConcurrent(t *testing.T) {
	opts := tableOpts()
	opts.NAzimuth, opts.NElevation, opts.NDistance = 24, 12, 2
	_, tab := newTestTable(t, opts)
	n := tab.NumKeys()
	want := make([][]grid.BlockID, n)
	for i := range want {
		want[i] = tab.AppendSet(nil, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []grid.BlockID
			for i := 0; i < n; i++ {
				k := (i + w*n/8) % n // each worker starts at its own key
				if buf = tab.AppendSet(buf[:0], k); !slices.Equal(buf, want[k]) {
					t.Errorf("worker %d, key %d: %v, want %v", w, k, buf, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}
