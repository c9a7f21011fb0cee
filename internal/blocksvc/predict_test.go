package blocksvc

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/entropy"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/vec"
	"repro/internal/visibility"
	"repro/internal/volume"
)

// orbitPrefetchHits replays one orbit lap the way a session serves it, with
// no server: each step demands the frame's visible set, then hands the view
// to the planner — at the predicted position when pred is non-nil, at the
// view itself (the nearest-sample baseline) when it is nil — and queues the
// head of its list as prefetched, the way handleView does. The cache holds
// the whole volume and every prefetch lands before the next demand, so
// resident is every block demanded or prefetched so far. Each prefetched
// block is settled on its first demand as notePrefetchHits does: a hit if
// resident then, either way cleared.
func orbitPrefetchHits(t *testing.T, g *grid.Grid, plan *policy.Planner, pred *camera.Predictor,
	path camera.Path) (demanded, hits int) {
	t.Helper()
	mem := &setMemory{g: g, resident: make(map[grid.BlockID]bool)}
	prefetched := make(map[grid.BlockID]bool)
	var planned []grid.BlockID
	for _, pos := range path.Steps {
		for _, id := range visibility.VisibleSet(g, camera.Camera{Pos: pos, ViewAngle: vec.Radians(20)}) {
			demanded++
			if prefetched[id] {
				delete(prefetched, id)
				if mem.resident[id] {
					hits++
				}
			}
			mem.resident[id] = true
		}
		target := pos
		if pred != nil {
			pred.Observe(pos)
			target, _ = pred.Predict()
		}
		planned = plan.Prefetch(planned[:0], target, nil, mem)
		for _, id := range planned[:min(len(planned), prefetchQueue)] {
			prefetched[id] = true
			mem.resident[id] = true
		}
	}
	return demanded, hits
}

// setMemory is a policy.Memory over a resident set, with room for the
// whole volume.
type setMemory struct {
	g        *grid.Grid
	resident map[grid.BlockID]bool
}

func (m *setMemory) AppendMissing(dst, ids []grid.BlockID) []grid.BlockID {
	for _, id := range ids {
		if !m.resident[id] {
			dst = append(dst, id)
		}
	}
	return dst
}
func (m *setMemory) SizeOf(id grid.BlockID) int64 { return m.g.VoxelCount(id) * 4 }
func (m *setMemory) Capacity() int64              { return m.g.Res().Count() * 4 }

// TestPredictivePrefetchBeatsNearestSample is the accuracy pin: on an orbit
// trace, extrapolating the trajectory must warm strictly more of the blocks
// the next frame demands than looking up the last-seen position does. Both
// replays walk the identical trace through the same planner, so the
// comparison isolates the predictor.
func TestPredictivePrefetchBeatsNearestSample(t *testing.T) {
	// A 64³ dataset with a tight vicinal radius: blocks subtend a small
	// enough angle that the set around the *current* key no longer covers
	// what the next step reveals — the regime where extrapolation matters.
	// 8 orbit steps of 45° keep each step well outside the dilation.
	ds := volume.Ball().Scale(1.0 / 16)
	g, err := ds.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	imp, vis := prefetchTables(t, ds, g, 0.15)
	plan, err := policy.NewPlanner(vis, imp, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := camera.Orbit(3, 8)
	demanded, base := orbitPrefetchHits(t, g, plan, nil, path)
	pred := camera.NewPredictor()
	_, predicted := orbitPrefetchHits(t, g, plan, pred, path)
	if _, kind := pred.Predict(); kind != camera.PredictAngular {
		t.Errorf("orbit trace classified as %v, want angular motion", kind)
	}
	if predicted <= base {
		t.Errorf("predictive prefetch hits %d of %d demanded blocks, not strictly above nearest-sample's %d",
			predicted, demanded, base)
	}
	t.Logf("prefetch hits over %d demanded blocks: nearest-sample %d, predictive %d", demanded, base, predicted)
}

// TestPredictSingleViewMatchesBaseline: a session that sends exactly one
// view update must prefetch exactly what the planner lists for that
// position over an empty cache — the predictor's single-sample
// degradation to the nearest-sample baseline, end to end.
func TestPredictSingleViewMatchesBaseline(t *testing.T) {
	f := startService(t, svcOpts{prefetch: true})
	pos := vec.New(3, 0, 0)
	want := len(f.srv.plan.Prefetch(nil, pos, nil, &shardMemory{s: f.srv})) // nothing read yet
	if want == 0 || want > prefetchQueue {
		t.Fatalf("planner lists %d blocks; the pin needs 1..%d", want, prefetchQueue)
	}
	r := dialService(t, f, 1)
	if err := r.SendView(context.Background(), pos); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "view to be processed", func() bool {
		st := f.srv.Snapshot()
		return st.ViewUpdates >= 1 &&
			st.PrefetchIssued == st.PrefetchExecuted+st.PrefetchFailed
	})
	st := f.srv.Snapshot()
	if st.PrefetchIssued != int64(want) {
		t.Errorf("single view issued %d prefetches, the planner lists %d at the view", st.PrefetchIssued, want)
	}
	if st.PredictLast != 1 {
		t.Errorf("single view classified as %+v, want one PredictLast", st)
	}
}

// TestViewOffersPlannersOrder pins what handleView hands the session's
// prefetch queue, predictor on: the planner's list for the predicted
// position — nothing resident, nothing scoring ≤ σ — most likely block
// first, so the queue's 128 slots hold the head of that order and the tail
// is what gets dropped. Every backing read takes longer than the test, so
// nothing drains and nothing lands while the view is handled.
func TestViewOffersPlannersOrder(t *testing.T) {
	// 16³ blocks of 4³ voxels: a 20° vicinity lists more than the queue holds.
	f := startService(t, svcOpts{prefetch: true, scale: 1.0 / 16, block: 4,
		inject: &faultio.InjectorConfig{Latency: time.Minute},
		mutate: func(c *Config) { c.Sigma = c.Imp.ThresholdForQuantile(0.5) }})
	r := dialService(t, f, 1)
	pos := vec.New(3, 0, 0) // one view: the predictor's target is the position itself
	if err := r.SendView(context.Background(), pos); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "view to be processed", func() bool {
		return f.srv.Snapshot().ViewUpdates >= 1
	})
	st := f.srv.Snapshot()
	if st.PredictLast != 1 {
		t.Fatalf("the view did not go through the predictor: %+v", st)
	}

	plan, err := policy.NewPlanner(f.vis, f.imp, f.srv.cfg.Sigma)
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Prefetch(nil, pos, nil, &shardMemory{s: f.srv}) // the cache is still empty
	if len(want) <= prefetchQueue+1 {
		t.Fatalf("planner lists %d blocks, no more than the queue takes; the pin has no teeth", len(want))
	}
	// The worker may or may not have taken its first block off the queue
	// before it filled.
	if st.PrefetchIssued != prefetchQueue && st.PrefetchIssued != prefetchQueue+1 {
		t.Errorf("issued %d prefetches into a queue of %d", st.PrefetchIssued, prefetchQueue)
	}
	if got := st.PrefetchIssued + st.PrefetchDropped; got != int64(len(want)) {
		t.Errorf("handleView offered %d blocks, the planner lists %d", got, len(want))
	}
	f.srv.mu.Lock()
	var issued []grid.BlockID
	for ss := range f.srv.sessions {
		ss.prefetchedMu.Lock()
		for id := range ss.prefetched {
			issued = append(issued, id)
		}
		ss.prefetchedMu.Unlock()
	}
	f.srv.mu.Unlock()
	head := slices.Clone(want[:st.PrefetchIssued])
	slices.Sort(head)
	slices.Sort(issued)
	if !slices.Equal(issued, head) {
		t.Errorf("queued %v,\nwant the first %d of the planner's order %v", issued, st.PrefetchIssued, head)
	}
}

// TestClusterPlanSkipsNonOwned: seen from a shard, a block another shard
// owns needs no prefetch and takes none of the budget — with room for k
// blocks, the list is the first k this shard owns in the planner's order,
// however many of the others rank between them.
func TestClusterPlanSkipsNonOwned(t *testing.T) {
	const room = 5
	f := startCluster(t, []string{"a", "b", "c"}, nil)
	plan, err := policy.NewPlanner(f.vis, f.imp, 0)
	if err != nil {
		t.Fatal(err)
	}
	pos := vec.New(3, 0, 0)
	srv := f.order[0].srv
	whole := &shardMemory{s: srv} // no topology: the undivided cache
	all := plan.Prefetch(nil, pos, nil, whole)
	var want []grid.BlockID
	for _, id := range all {
		if f.ring.OwnerBlock(id) == 0 && len(want) < room {
			want = append(want, id)
		}
	}
	if len(want) < room || slices.Equal(want, all[:room]) {
		t.Fatalf("shard a owns %v of the order %v: the pin has no teeth", want, all)
	}
	// The same shard behind a cache with room for five blocks.
	small, err := store.NewMemCache(f.bf, room*f.bf.BlockBytes(0), cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	tight := &Server{cfg: Config{Cache: small, Grid: f.g}}
	got := plan.Prefetch(nil, pos, nil, &shardMemory{s: tight, topo: srv.topo.Load()})
	if !slices.Equal(got, want) {
		t.Errorf("shard a plans %v, want its first %d owned blocks %v", got, room, want)
	}
}

// TestClusterPredictivePrefetchOwnedOnly pins that trajectory-predicted
// blocks still respect shard ownership: every backing read a cluster node
// performs while orbit view updates drive predictive prefetch must be of a
// block that node owns under the ring.
func TestClusterPredictivePrefetchOwnedOnly(t *testing.T) {
	// The cluster fixture leaves prefetch off; rebuild the shared tables
	// over the fixture's own grid inside the config hook.
	var vis *visibility.Table
	var imp *entropy.Table
	f := startCluster(t, []string{"a", "b", "c"}, func(c *Config) {
		if vis == nil {
			imp, vis = prefetchTables(t, volume.Ball().Scale(1.0/32), c.Grid, 0)
		}
		c.Vis, c.Imp, c.Sigma = vis, imp, 0
	})
	r := dialCluster(t, f, 1)
	ctx := context.Background()

	// Establish a live connection to every shard (SendView only reaches
	// shards that already have one) by demanding one owned block apiece.
	perShard := make([]grid.BlockID, len(f.order))
	seen := 0
	for _, id := range f.g.All() {
		owner := f.ring.OwnerBlock(id)
		if perShard[owner] == 0 && id != 0 {
			perShard[owner] = id
			seen++
			if seen == len(f.order) {
				break
			}
		}
	}
	vals, errs := r.ReadBlocks(ctx, perShard)
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("warm-up read %d: %v", perShard[i], errs[i])
		}
		r.RecycleBlockBuf(vals[i])
	}

	path := camera.Orbit(3, 16)
	views := int64(0)
	for _, pos := range path.Steps {
		if err := r.SendView(ctx, pos); err != nil {
			t.Fatal(err)
		}
		views++
		for _, n := range f.order {
			n := n
			waitFor(t, 2*time.Second, "node prefetch to settle", func() bool {
				st := n.srv.Snapshot()
				return st.ViewUpdates >= views &&
					st.PrefetchIssued == st.PrefetchExecuted+st.PrefetchFailed
			})
		}
	}

	var executed, angular int64
	for _, n := range f.order {
		st := n.srv.Snapshot()
		executed += st.PrefetchExecuted
		angular += st.PredictAngular
	}
	if executed == 0 {
		t.Fatal("no prefetch executed anywhere in the cluster; the pin has no teeth")
	}
	if angular == 0 {
		t.Error("no node classified the orbit as angular motion")
	}
	// Every backing read — all prefetch-driven except the three warm-up
	// demand blocks — must respect ownership, and singleflight must hold.
	assertShardReads(t, f, f.ring)
}

// TestRegistryBoundedInSessions: the server exports no name per session,
// so its registry lists the same names with one prefetching session
// connected, with three, and after they have all left.
func TestRegistryBoundedInSessions(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	reg := obs.NewRegistry()
	f := startService(t, svcOpts{prefetch: true, mutate: func(c *Config) {
		c.Metrics = reg
	}})
	var readers []*RemoteReader
	connect := func(n int) []string {
		t.Helper()
		for len(readers) < n {
			r := dialService(t, f, 1)
			readers = append(readers, r)
			if err := r.SendView(context.Background(), vec.New(3, 0, 0)); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, 2*time.Second, "views to be handled", func() bool {
			st := f.srv.Snapshot()
			return st.ActiveSessions == int64(n) && st.ViewUpdates >= int64(n)
		})
		return metricNames(reg)
	}
	one := connect(1)
	three := connect(3)
	for _, r := range readers {
		r.Close()
	}
	waitFor(t, 2*time.Second, "session teardown", func() bool {
		return f.srv.Snapshot().ActiveSessions == 0
	})
	after := metricNames(reg)
	if !slices.Equal(one, three) || !slices.Equal(one, after) {
		t.Errorf("registry names depend on the sessions connected:\n1: %v\n3: %v\n0: %v", one, three, after)
	}
	for _, name := range three {
		if strings.HasPrefix(name, "svc.session.") || strings.HasPrefix(name, "svc.predict.session.") {
			t.Errorf("per-session metric %q registered", name)
		}
	}
}
