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
	"repro/internal/radius"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/vec"
	"repro/internal/visibility"
	"repro/internal/volume"
)

// driveOrbit replays an orbit trace against a fixture the way a real viewer
// does: demand-read the frame's visible set first, then send the view
// update, then wait for the server's prefetch queue to settle before the
// next step — so every prefetch had the chance to land before the demand
// that would profit from it, and the hit counts are deterministic.
func driveOrbit(t *testing.T, f *svcFixture, r *RemoteReader, path camera.Path) {
	t.Helper()
	ctx := context.Background()
	theta := vec.Radians(20)
	views := int64(0)
	for i, pos := range path.Steps {
		visible := visibility.VisibleSet(f.g, camera.Camera{Pos: pos, ViewAngle: theta})
		vals, errs := r.ReadBlocks(ctx, visible)
		for j := range errs {
			if errs[j] != nil {
				t.Fatalf("step %d block %d: %v", i, visible[j], errs[j])
			}
			r.RecycleBlockBuf(vals[j])
		}
		if err := r.SendView(ctx, pos); err != nil {
			t.Fatalf("step %d: SendView: %v", i, err)
		}
		views++
		waitFor(t, 2*time.Second, "prefetch queue to settle", func() bool {
			st := f.srv.Snapshot()
			return st.ViewUpdates >= views &&
				st.PrefetchIssued == st.PrefetchExecuted+st.PrefetchFailed
		})
	}
}

// orbitPrefetchStats runs one orbit lap against a fresh service and returns
// the server stats — predictive or nearest-sample depending on predictOff.
func orbitPrefetchStats(t *testing.T, predictOff bool) ServerStats {
	t.Helper()
	// A 64³ dataset with a tight vicinal radius: blocks subtend a small
	// enough angle that the set around the *current* key no longer covers
	// what the next step reveals — the regime where extrapolation matters.
	// 8 orbit steps of 45° keep each step well outside the dilation.
	f := startService(t, svcOpts{prefetch: true, scale: 1.0 / 16, visRadius: 0.15,
		mutate: func(c *Config) {
			c.PredictOff = predictOff
		}})
	r := dialService(t, f, 1)
	driveOrbit(t, f, r, camera.Orbit(3, 8))
	return f.srv.Snapshot()
}

// TestPredictivePrefetchBeatsNearestSample is the accuracy pin: on an orbit
// trace, extrapolating the trajectory must warm strictly more of the blocks
// the next frame demands than looking up the last-seen position does. Both
// runs replay the identical trace against identical fresh services, so the
// comparison isolates the predictor.
func TestPredictivePrefetchBeatsNearestSample(t *testing.T) {
	base := orbitPrefetchStats(t, true)
	pred := orbitPrefetchStats(t, false)

	if base.BlocksOK == 0 || pred.BlocksOK != base.BlocksOK {
		t.Fatalf("runs served different demand: base %d blocks, pred %d", base.BlocksOK, pred.BlocksOK)
	}
	if pred.PredictAngular == 0 {
		t.Errorf("orbit trace never classified as angular motion: %+v", pred)
	}
	if base.PredictDwell+base.PredictLinear+base.PredictAngular+base.PredictLast != 0 {
		t.Errorf("PredictOff run still ran the predictor: %+v", base)
	}
	baseRatio := float64(base.PrefetchHits) / float64(base.BlocksOK)
	predRatio := float64(pred.PrefetchHits) / float64(pred.BlocksOK)
	if predRatio <= baseRatio {
		t.Errorf("predictive hit ratio %.4f (hits %d) not strictly above nearest-sample %.4f (hits %d)",
			predRatio, pred.PrefetchHits, baseRatio, base.PrefetchHits)
	}
	t.Logf("prefetch hit ratio: nearest-sample %.4f (%d/%d), predictive %.4f (%d/%d)",
		baseRatio, base.PrefetchHits, base.BlocksOK, predRatio, pred.PrefetchHits, pred.BlocksOK)
}

// TestPredictSingleViewMatchesBaseline: a session that sends exactly one
// view update must prefetch exactly what the nearest-sample baseline
// prefetches — the predictor's single-sample degradation, end to end.
func TestPredictSingleViewMatchesBaseline(t *testing.T) {
	issuedAfterOneView := func(predictOff bool) (int64, ServerStats) {
		f := startService(t, svcOpts{prefetch: true, mutate: func(c *Config) {
			c.PredictOff = predictOff
		}})
		r := dialService(t, f, 1)
		pos := vec.New(3, 0, 0)
		if err := r.SendView(context.Background(), pos); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 2*time.Second, "view to be processed", func() bool {
			st := f.srv.Snapshot()
			return st.ViewUpdates >= 1 &&
				st.PrefetchIssued == st.PrefetchExecuted+st.PrefetchFailed
		})
		st := f.srv.Snapshot()
		return st.PrefetchIssued, st
	}
	baseIssued, _ := issuedAfterOneView(true)
	predIssued, st := issuedAfterOneView(false)
	if predIssued != baseIssued {
		t.Errorf("single view issued %d prefetches with predictor, %d without", predIssued, baseIssued)
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
			ds := volume.Ball().Scale(1.0 / 32)
			imp = entropy.Build(ds, c.Grid, entropy.Options{})
			var err error
			vis, err = visibility.NewTable(c.Grid, visibility.Options{
				NAzimuth: 16, NElevation: 8, NDistance: 2,
				RMin: 2.5, RMax: 3.5,
				ViewAngle: vec.Radians(20),
				Radius:    radius.Fixed(0.3),
				Lazy:      true,
			})
			if err != nil {
				t.Fatal(err)
			}
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

// TestPredictSessionMetricsUnregistered pins the per-session predictor
// metrics lifecycle alongside the existing per-session gauge pins: while a
// prefetching session lives, svc.predict.session.<id>.* are registered and
// counting; after an orderly client close they are gone from the registry.
func TestPredictSessionMetricsUnregistered(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	reg := obs.NewRegistry()
	f := startService(t, svcOpts{prefetch: true, mutate: func(c *Config) {
		c.Metrics = reg
	}})
	r := dialService(t, f, 1)
	if err := r.SendView(context.Background(), vec.New(3, 0, 0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "view to register", func() bool {
		return f.srv.Snapshot().ViewUpdates >= 1
	})

	snap := reg.Snapshot()
	var views, hits int
	for name := range snap.Counters {
		if !strings.HasPrefix(name, "svc.predict.session.") {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".views"):
			views++
			if snap.Counters[name] == 0 {
				t.Errorf("%s = 0 after a view update", name)
			}
		case strings.HasSuffix(name, ".hits"):
			hits++
		}
	}
	if views == 0 || hits == 0 {
		t.Fatalf("per-session predictor metrics missing while session lives: %v", reg.Names())
	}

	r.Close()
	waitFor(t, 2*time.Second, "session teardown", func() bool {
		return f.srv.Snapshot().ActiveSessions == 0
	})
	for _, name := range reg.Names() {
		if strings.HasPrefix(name, "svc.predict.session.") || strings.HasPrefix(name, "svc.session.") {
			t.Errorf("per-session metric %q still registered after teardown", name)
		}
	}
}
