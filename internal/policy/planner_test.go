package policy

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/camera"
	"repro/internal/entropy"
	"repro/internal/grid"
	"repro/internal/radius"
	"repro/internal/vec"
	"repro/internal/visibility"
	"repro/internal/volume"
)

// fakeMemory is a fast memory the test dictates: any residency set, any
// block sizes, any capacity.
type fakeMemory struct {
	resident map[grid.BlockID]bool
	sizes    []int64
	capacity int64
}

func (m *fakeMemory) AppendMissing(dst, ids []grid.BlockID) []grid.BlockID {
	for _, id := range ids {
		if !m.resident[id] {
			dst = append(dst, id)
		}
	}
	return dst
}
func (m *fakeMemory) SizeOf(id grid.BlockID) int64 { return m.sizes[id] }
func (m *fakeMemory) Capacity() int64              { return m.capacity }

// oraclePrefetch is the simulator's prefetch selection as it was written
// inline before the planner existed: filter T_visible[nearest] by σ and
// residency, stable-sort by angle to the key's axis, then entropy, then id,
// and walk the result under the budget, skipping — not stopping at — a block
// that does not fit. Residency is asked block by block, as it was then.
func oraclePrefetch(vis *visibility.Table, imp *entropy.Table, sigma float64,
	pos vec.V3, visible []grid.BlockID, mem *fakeMemory) []grid.BlockID {
	key := vis.NearestKey(pos)
	keyPos := vis.KeyPos(key)
	budget := mem.Capacity()
	for _, id := range visible {
		budget -= mem.SizeOf(id)
	}
	var candidates []grid.BlockID
	for _, id := range vis.AppendSet(nil, key) {
		if imp.Score(id) <= sigma || mem.resident[id] {
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

// residency draws which blocks of mem are resident, each with probability
// 1/every.
func residency(mem *fakeMemory, rng *rand.Rand, every int) {
	mem.resident = make(map[grid.BlockID]bool)
	for id := range mem.sizes {
		if rng.Intn(every) == 0 {
			mem.resident[grid.BlockID(id)] = true
		}
	}
}

type fixture struct {
	g   *grid.Grid
	imp *entropy.Table
	vis *visibility.Table
}

// newFixture builds a 64³ ball in 8³ blocks of 8³ voxels, its T_important
// and a small T_visible.
func newFixture(t testing.TB) *fixture {
	t.Helper()
	ds := volume.Ball().Scale(1.0 / 16)
	g, err := ds.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	vis, err := visibility.NewTable(g, visibility.Options{
		NAzimuth: 24, NElevation: 12, NDistance: 3,
		RMin: 2, RMax: 4,
		ViewAngle: vec.Radians(10),
		Radius:    radius.Fixed(0.25),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{g: g, imp: entropy.Build(ds, g, entropy.Options{}), vis: vis}
}

func TestNewValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := NewPlanner(nil, f.imp, 0); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := NewPlanner(f.vis, nil, 0); err == nil {
		t.Error("nil importance accepted")
	}
	if _, err := NewPlanner(f.vis, entropy.NewTable([]float64{1, 2}), 0); err == nil {
		t.Error("mismatched importance table accepted")
	}
}

// TestPlannerPrefetchMatchesInlineOracle is the refactor's property: for
// random positions, residency sets, block sizes, budgets and σ the planner's
// list is the list the inline filter-then-sort produced, budget skips
// included. Each position is asked twice, under two residencies: the first
// call ranks the key, the second walks the ranked list.
func TestPlannerPrefetchMatchesInlineOracle(t *testing.T) {
	f := newFixture(t)
	n := f.g.NumBlocks()
	sigmas := []float64{math.Inf(-1), 0, f.imp.ThresholdForQuantile(0.25),
		f.imp.ThresholdForQuantile(0.75), f.imp.MaxScore()}
	rng := rand.New(rand.NewSource(24))
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
			mem := &fakeMemory{sizes: make([]int64, n)}
			var total int64
			for id := range mem.sizes {
				mem.sizes[id] = 1 + rng.Int63n(8)
				total += mem.sizes[id]
			}
			mem.capacity = rng.Int63n(total / 8)
			var visible []grid.BlockID // nil: the server's case
			if trial%2 == 0 {
				for k := rng.Intn(6); k > 0; k-- {
					visible = append(visible, grid.BlockID(rng.Intn(n)))
				}
			}
			for call := 0; call < 2; call++ {
				residency(mem, rng, 3)
				dst = plan.Prefetch(dst[:0], pos, visible, mem)
				want := oraclePrefetch(f.vis, f.imp, sigma, pos, visible, mem)
				if !slices.Equal(dst, want) {
					t.Fatalf("σ=%g trial %d call %d pos %v: planner %v, inline oracle %v",
						sigma, trial, call, pos, dst, want)
				}
				if len(want) > 0 {
					nonEmpty++
					// A skip shows as a listed block ranked after an
					// unlisted non-resident one.
					unlimited := *mem
					unlimited.capacity = math.MaxInt64
					if all := oraclePrefetch(f.vis, f.imp, sigma, pos, nil, &unlimited); !slices.Equal(all[:len(want)], want) {
						skipped++
					}
				}
			}
		}
	}
	if nonEmpty < 100 || skipped < 20 {
		t.Errorf("only %d non-empty lists, %d with a budget skip: the property has no teeth", nonEmpty, skipped)
	}
}

// TestPlannerPrefetchTieBreakMatchesOracle runs the same oracle on a key the
// random positions above never land on: one on the grid's −X axis, in its
// Y = 0 mid-plane (a one-azimuth, three-elevation lattice), so a block and its
// mirror image in Y tie exactly on angle. Entropies drawn from four values
// make many of those pairs differ in score and many tie there too, so both
// the score and the ID step of the ranking decide places in the list. Each
// planner is asked twice, under two residencies, the second time from its
// ranked list.
func TestPlannerPrefetchTieBreakMatchesOracle(t *testing.T) {
	f := newFixture(t)
	n := f.g.NumBlocks()
	pos := vec.New(-3, 0, 0)
	vis, err := visibility.NewTable(f.g, visibility.Options{
		NAzimuth: 1, NElevation: 3, NDistance: 1,
		RMin: 2, RMax: 4,
		ViewAngle: vec.Radians(10),
		Radius:    radius.Fixed(0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	key := vis.NearestKey(pos)
	keyPos := vis.KeyPos(key)
	if keyPos.Y != 0 {
		t.Fatalf("key %d at %v is off the mid-plane", key, keyPos)
	}
	axis := keyPos.Neg().Unit()
	angle := func(id grid.BlockID) float64 { return vec.AngleBetween(f.g.Center(id).Sub(keyPos), axis) }
	rng := rand.New(rand.NewSource(29))
	byScore, byID := 0, 0 // neighbours ranked by score, by ID
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
		mem := &fakeMemory{sizes: make([]int64, n), capacity: math.MaxInt64}
		for id := range mem.sizes {
			mem.sizes[id] = 1
		}
		for call := 0; call < 2; call++ {
			residency(mem, rng, 4)
			got := plan.Prefetch(nil, pos, nil, mem)
			want := oraclePrefetch(vis, imp, 0, pos, nil, mem)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d call %d: planner %v, inline oracle %v", trial, call, got, want)
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
	}
	if byScore < 20 || byID < 20 {
		t.Errorf("%d neighbours ranked by score and %d by ID on an exact angle tie: the pin has no teeth", byScore, byID)
	}
}

// TestPlannerPreloadOrder: line 7's list is T_important's ranking cut at σ.
func TestPlannerPreloadOrder(t *testing.T) {
	f := newFixture(t)
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
// one sampling position no one has ranked yet, each ranking in its own
// pooled scratch. Under -race; every caller must get the same list.
func TestPlannerConcurrentColdKey(t *testing.T) {
	f := newFixture(t)
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

// FuzzRankOrder holds the ranking's O(n) order to slices.SortFunc under the
// same comparator. Each candidate is four bytes: a mode, a 16-bit value and
// a score. Mode 0 spreads the value over [0, π], both ends included; mode 1
// makes it a subnormal angle; mode 2 one of four angles, so exact ties are
// common. Scores take four values, and ids are distinct but out of order.
// The scratch is then reused for the first half of the list.
func FuzzRankOrder(f *testing.F) {
	f.Add([]byte{})                                         // no candidates
	f.Add([]byte{0, 0x80, 0, 1})                            // one
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3})       // all angles zero
	f.Add([]byte{0, 0xff, 0xff, 0, 2, 0, 1, 3, 0, 0, 0, 1}) // π, a tie at π/3, 0
	f.Add([]byte{2, 0, 3, 1, 2, 0, 3, 1, 2, 0, 2, 1, 2, 0, 3, 1, 0, 0x40, 0, 1})
	f.Add([]byte{1, 0, 1, 0, 1, 0xff, 0xff, 0, 1, 0, 1, 2, 0, 0, 7, 0}) // subnormal beside a normal angle
	f.Fuzz(func(t *testing.T, data []byte) {
		var cands []candidate
		for i := 0; i+4 <= len(data); i += 4 {
			u := float64(uint16(data[i+1])<<8 | uint16(data[i+2]))
			var angle float64
			switch data[i] % 3 {
			case 0:
				angle = math.Pi * u / math.MaxUint16
			case 1:
				angle = u * math.SmallestNonzeroFloat64
			default:
				angle = float64(int(u)%4) * math.Pi / 3
			}
			id := grid.BlockID(len(cands) * 7919 % 65536)
			cands = append(cands, candidate{id: id, angle: angle, score: float64(data[i+3] % 4)})
		}
		var s rankScratch
		for _, in := range [][]candidate{cands, cands[:len(cands)/2]} {
			want := slices.Clone(in)
			slices.SortFunc(want, compareCandidates)
			s.cands = slices.Clone(in)
			if got := s.order(); !slices.Equal(got, want) {
				t.Fatalf("order %v, slices.SortFunc %v", got, want)
			}
		}
	})
}

// BenchmarkPlannerPrefetch is one frame's Prefetch on a warm key: ranked,
// about three in five of its candidates resident, and a budget that takes
// about seven in ten of the rest beside the frame's visible set.
func BenchmarkPlannerPrefetch(b *testing.B) {
	f := newFixture(b)
	plan, err := NewPlanner(f.vis, f.imp, f.imp.ThresholdForQuantile(0.75))
	if err != nil {
		b.Fatal(err)
	}
	pos := vec.New(0.5, 0.4, 3)
	visible := visibility.VisibleSet(f.g, camera.Camera{Pos: pos, ViewAngle: vec.Radians(10)})
	mem := &fakeMemory{resident: make(map[grid.BlockID]bool), sizes: make([]int64, f.g.NumBlocks())}
	for id := range mem.sizes {
		mem.sizes[id] = 1
	}
	for _, id := range visible {
		mem.resident[id] = true
		mem.capacity++
	}
	rng := rand.New(rand.NewSource(36))
	for _, id := range plan.rankedList(f.vis.NearestKey(pos)) {
		if rng.Intn(5) < 3 {
			mem.resident[id] = true
		} else if rng.Intn(10) < 7 {
			mem.capacity++
		}
	}
	dst := plan.Prefetch(nil, pos, visible, mem)
	if len(dst) == 0 {
		b.Fatal("empty prefetch list")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = plan.Prefetch(dst[:0], pos, visible, mem)
	}
}
