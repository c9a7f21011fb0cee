package policy

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/entropy"
	"repro/internal/grid"
	"repro/internal/radius"
	"repro/internal/vec"
	"repro/internal/visibility"
)

// fakeMemory is a fast memory the test dictates: any residency set, any
// block sizes, any capacity.
type fakeMemory struct {
	resident map[grid.BlockID]bool
	sizes    []int64
	capacity int64
}

func (m *fakeMemory) Contains(id grid.BlockID) bool { return m.resident[id] }
func (m *fakeMemory) SizeOf(id grid.BlockID) int64  { return m.sizes[id] }
func (m *fakeMemory) Capacity() int64               { return m.capacity }

// oraclePrefetch is AppAware.Step's prefetch selection as it was written
// inline before the planner existed: filter T_visible[nearest] by σ and
// residency, stable-sort by angle to the key's axis, then entropy, then id,
// and walk the result under the budget, skipping — not stopping at — a block
// that does not fit.
func oraclePrefetch(vis *visibility.Table, imp *entropy.Table, sigma float64,
	pos vec.V3, visible []grid.BlockID, mem Memory) []grid.BlockID {
	key := vis.NearestKey(pos)
	keyPos := vis.KeyPos(key)
	budget := mem.Capacity()
	for _, id := range visible {
		budget -= mem.SizeOf(id)
	}
	var candidates []grid.BlockID
	for _, id := range vis.PredictedSet(key) {
		if imp.Score(id) <= sigma || mem.Contains(id) {
			continue
		}
		candidates = append(candidates, id)
	}
	axis := keyPos.Neg().Unit()
	angles := make(map[grid.BlockID]float64, len(candidates))
	for _, id := range candidates {
		angles[id] = vec.AngleBetween(vis.Grid().Center(id).Sub(keyPos), axis)
	}
	sort.SliceStable(candidates, func(x, y int) bool {
		ax, ay := angles[candidates[x]], angles[candidates[y]]
		if ax != ay {
			return ax < ay
		}
		sx, sy := imp.Score(candidates[x]), imp.Score(candidates[y])
		if sx != sy {
			return sx > sy
		}
		return candidates[x] < candidates[y]
	})
	var out []grid.BlockID
	for _, id := range candidates {
		size := mem.SizeOf(id)
		if size > budget {
			continue
		}
		budget -= size
		out = append(out, id)
	}
	return out
}

// TestPlannerPrefetchMatchesInlineOracle is the refactor's property: for
// random positions, residency sets, block sizes, budgets and σ the planner's
// list is the list the inline filter-then-sort produced, budget skips
// included.
func TestPlannerPrefetchMatchesInlineOracle(t *testing.T) {
	f := newFixture(t, 0.5)
	n := f.g.NumBlocks()
	rng := rand.New(rand.NewSource(24))
	sigmas := []float64{math.Inf(-1), 0, f.imp.ThresholdForQuantile(0.25),
		f.imp.ThresholdForQuantile(0.75), f.imp.MaxScore()}
	var nonEmpty, skipped int
	for _, sigma := range sigmas {
		plan, err := NewPlanner(f.vis, f.imp, sigma)
		if err != nil {
			t.Fatal(err)
		}
		var dst []grid.BlockID
		for trial := 0; trial < 60; trial++ {
			// Positions inside and beyond Ω's distance range.
			pos := vec.FromSpherical(vec.Spherical{
				Azimuth:   rng.Float64() * 2 * math.Pi,
				Elevation: (rng.Float64() - 0.5) * math.Pi / 4,
				R:         1.5 + 3*rng.Float64(),
			})
			mem := &fakeMemory{resident: make(map[grid.BlockID]bool), sizes: make([]int64, n)}
			var total int64
			for id := range mem.sizes {
				mem.sizes[id] = 1 + rng.Int63n(8)
				total += mem.sizes[id]
				if rng.Intn(3) == 0 {
					mem.resident[grid.BlockID(id)] = true
				}
			}
			mem.capacity = rng.Int63n(total / 8)
			var visible []grid.BlockID // nil: the server's case
			if trial%2 == 0 {
				for k := rng.Intn(6); k > 0; k-- {
					visible = append(visible, grid.BlockID(rng.Intn(n)))
				}
			}
			want := oraclePrefetch(f.vis, f.imp, sigma, pos, visible, mem)
			dst = plan.Prefetch(dst[:0], pos, visible, mem)
			if !slices.Equal(dst, want) {
				t.Fatalf("σ=%g trial %d pos %v: planner %v, inline oracle %v", sigma, trial, pos, dst, want)
			}
			if len(want) > 0 {
				nonEmpty++
				// A skip shows as a listed block ranked after an unlisted
				// non-resident one.
				unlimited := *mem
				unlimited.capacity = math.MaxInt64
				if all := oraclePrefetch(f.vis, f.imp, sigma, pos, nil, &unlimited); !slices.Equal(all[:len(want)], want) {
					skipped++
				}
			}
		}
	}
	if nonEmpty < 50 || skipped < 10 {
		t.Errorf("only %d non-empty lists, %d with a budget skip: the property has no teeth", nonEmpty, skipped)
	}
}

// TestPlannerPrefetchTieBreakMatchesOracle runs the same oracle on a key the
// random positions above never land on: one on the grid's −X axis, in its
// Y = 0 mid-plane (a one-azimuth, three-elevation lattice), so a block and its
// mirror image in Y tie exactly on angle. Entropies drawn from four values
// make many of those pairs differ in score and many tie there too, so both
// the score and the ID step of the ranking decide places in the list.
func TestPlannerPrefetchTieBreakMatchesOracle(t *testing.T) {
	f := newFixture(t, 0.5)
	vis, err := visibility.NewTable(f.g, visibility.Options{
		NAzimuth: 1, NElevation: 3, NDistance: 1,
		RMin: 2, RMax: 4,
		ViewAngle: vec.Radians(10),
		Radius:    radius.Fixed(0.5),
		Lazy:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pos := vec.New(-3, 0, 0)
	key := vis.NearestKey(pos)
	keyPos := vis.KeyPos(key)
	if keyPos.Y != 0 {
		t.Fatalf("key %d at %v is off the mid-plane", key, keyPos)
	}
	axis := keyPos.Neg().Unit()
	angle := func(id grid.BlockID) float64 { return vec.AngleBetween(f.g.Center(id).Sub(keyPos), axis) }
	n := f.g.NumBlocks()
	rng := rand.New(rand.NewSource(29))
	var byScore, byID int
	for trial := 0; trial < 20; trial++ {
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(4))
		}
		imp := entropy.NewTable(scores)
		plan, err := NewPlanner(vis, imp, 0)
		if err != nil {
			t.Fatal(err)
		}
		mem := &fakeMemory{resident: make(map[grid.BlockID]bool), sizes: make([]int64, n), capacity: math.MaxInt64}
		for id := range mem.sizes {
			mem.sizes[id] = 1
			mem.resident[grid.BlockID(id)] = rng.Intn(4) == 0
		}
		want := oraclePrefetch(vis, imp, 0, pos, nil, mem)
		if got := plan.Prefetch(nil, pos, nil, mem); !slices.Equal(got, want) {
			t.Fatalf("trial %d: planner %v, inline oracle %v", trial, got, want)
		}
		for i := 1; i < len(want); i++ {
			if a, b := want[i-1], want[i]; angle(a) == angle(b) {
				if imp.Score(a) != imp.Score(b) {
					byScore++
				} else {
					byID++
				}
			}
		}
	}
	if byScore < 20 || byID < 20 {
		t.Errorf("%d neighbours ranked by score and %d by ID on an exact angle tie: the pin has no teeth", byScore, byID)
	}
}

// TestPlannerPreloadOrder: line 7's list is T_important's ranking cut at σ.
func TestPlannerPreloadOrder(t *testing.T) {
	f := newFixture(t, 0.5)
	for _, sigma := range []float64{math.Inf(-1), f.imp.ThresholdForQuantile(0.5), math.Inf(1)} {
		plan, err := NewPlanner(f.vis, f.imp, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := plan.Preload(), f.imp.Above(sigma); !slices.Equal(got, want) {
			t.Errorf("σ=%g: preload order has %d blocks, want the %d above σ in rank order", sigma, len(got), len(want))
		}
	}
}

// TestPlannerConcurrentColdKey is the server's case: many sessions ask about
// one sampling position T_visible has not materialized yet, each ranking
// in its own pooled scratch. Under -race; every caller must get the same list.
func TestPlannerConcurrentColdKey(t *testing.T) {
	f := newFixture(t, 0.5)
	plan, err := NewPlanner(f.vis, f.imp, f.imp.ThresholdForQuantile(0.75))
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int64, f.g.NumBlocks())
	for i := range sizes {
		sizes[i] = 1
	}
	mem := &fakeMemory{sizes: sizes, capacity: math.MaxInt64}
	pos := vec.New(0, 0, 3)
	lists := make([][]grid.BlockID, 8)
	var wg sync.WaitGroup
	for w := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lists[w] = plan.Prefetch(nil, pos, nil, mem)
		}()
	}
	wg.Wait()
	if len(lists[0]) == 0 {
		t.Fatal("empty prefetch list; the pin has no teeth")
	}
	for w, l := range lists {
		if !slices.Equal(l, lists[0]) {
			t.Errorf("session %d got %v, session 0 %v", w, l, lists[0])
		}
	}
}
