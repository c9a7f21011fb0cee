package ooc

import (
	"context"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/entropy"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/policy"
	"repro/internal/radius"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/vec"
	"repro/internal/visibility"
	"repro/internal/volume"
)

type fixture struct {
	g     *grid.Grid
	bf    *store.BlockFile
	inj   *faultio.Injector // nil unless built with newFaultFixture
	cache *store.MemCache
	vis   *visibility.Table
	imp   *entropy.Table
}

func newFixture(t *testing.T, cacheBlocks int64) *fixture {
	return newFaultFixture(t, cacheBlocks, nil)
}

// newFaultFixture builds the stack with an optional fault injector between
// the block file and the cache.
func newFaultFixture(t *testing.T, cacheBlocks int64, cfg *faultio.InjectorConfig) *fixture {
	t.Helper()
	ds := volume.Ball().Scale(1.0 / 32) // 32³
	g, err := ds.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ball.bvol")
	if err := store.Write(path, ds, g, 0); err != nil {
		t.Fatal(err)
	}
	bf, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bf.Close() })
	f := &fixture{g: g, bf: bf}
	var reader store.BlockReader = bf
	if cfg != nil {
		f.inj = faultio.NewInjector(bf, *cfg)
		reader = f.inj
	}
	mc, err := store.NewMemCache(reader, cacheBlocks*bf.BlockBytes(0), cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	f.cache = mc
	f.imp = entropy.Build(ds, g, entropy.Options{})
	f.vis, err = visibility.NewTable(g, visibility.Options{
		NAzimuth: 16, NElevation: 8, NDistance: 2,
		RMin: 2.5, RMax: 3.5,
		ViewAngle: vec.Radians(20),
		Radius:    radius.Fixed(0.3),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fastRetry keeps fault-absorption tests quick while still exercising the
// backoff path.
func fastRetry(attempts int) *faultio.Retrier {
	return &faultio.Retrier{
		MaxAttempts: attempts,
		BaseDelay:   10 * time.Microsecond,
		MaxDelay:    100 * time.Microsecond,
		Seed:        11,
	}
}

// resident reports whether the block is in mc's memory, without touching it.
func resident(mc *store.MemCache, id grid.BlockID) bool {
	return len(mc.AppendMissing(nil, []grid.BlockID{id})) == 0
}

func TestNewValidation(t *testing.T) {
	f := newFixture(t, 16)
	if _, err := New(nil, f.vis, f.imp, Options{}); err == nil {
		t.Error("nil cache accepted")
	}
	if _, err := New(f.cache, nil, f.imp, Options{}); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := New(f.cache, f.vis, nil, Options{}); err == nil {
		t.Error("nil importance accepted")
	}
}

func TestFrameReturnsAllVisibleBlocks(t *testing.T) {
	f := newFixture(t, 32)
	r, err := New(f.cache, f.vis, f.imp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(20)}
	visible := visibility.VisibleSet(f.g, cam)
	data, rep, err := r.Frame(context.Background(), cam.Pos, visible)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded || len(rep.Missing) != 0 {
		t.Errorf("healthy frame degraded: %+v", rep)
	}
	if len(data) != len(visible) {
		t.Fatalf("frame blocks = %d, want %d", len(data), len(visible))
	}
	for i, vals := range data {
		if int64(len(vals)) != f.g.VoxelCount(visible[i]) {
			t.Fatalf("block %d: %d values", visible[i], len(vals))
		}
	}
	st := r.Snapshot()
	if st.Frames != 1 || st.DemandReads != int64(len(visible)) {
		t.Errorf("stats = %+v", st)
	}
}

// TestDemandReadsCountOnlyStoreReads pins the metric fix: a warm repeat
// frame must not inflate DemandReads — it lands in DemandHits, matching the
// cache's own hit/miss accounting.
func TestDemandReadsCountOnlyStoreReads(t *testing.T) {
	f := newFixture(t, 64)
	r, err := New(f.cache, f.vis, f.imp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(20)}
	visible := visibility.VisibleSet(f.g, cam)
	if _, _, err := r.Frame(ctx, cam.Pos, visible); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Frame(ctx, cam.Pos, visible); err != nil {
		t.Fatal(err)
	}
	st := r.Snapshot()
	n := int64(len(visible))
	if st.DemandReads != n {
		t.Errorf("DemandReads = %d after warm repeat, want %d", st.DemandReads, n)
	}
	if st.DemandHits != n {
		t.Errorf("DemandHits = %d, want %d", st.DemandHits, n)
	}
	if cc := f.cache.Counters(); st.DemandReads != cc.Misses || st.DemandHits != cc.Hits {
		t.Errorf("runtime (%d reads/%d hits) disagrees with cache (%d misses/%d hits)",
			st.DemandReads, st.DemandHits, cc.Misses, cc.Hits)
	}
}

func TestFrameSchedulesPrefetch(t *testing.T) {
	f := newFixture(t, 64)
	r, err := New(f.cache, f.vis, f.imp, Options{Sigma: 0})
	if err != nil {
		t.Fatal(err)
	}
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(20)}
	visible := visibility.VisibleSet(f.g, cam)
	if _, _, err := r.Frame(context.Background(), cam.Pos, visible); err != nil {
		t.Fatal(err)
	}
	// Close drains the queue, so after Close all issued prefetches have
	// executed or been dropped.
	r.Close()
	st := r.Snapshot()
	if st.PrefetchIssued == 0 {
		t.Error("no prefetches issued")
	}
	if st.PrefetchExecuted+st.PrefetchFailed+st.PrefetchDropped < st.PrefetchIssued {
		t.Errorf("prefetch accounting inconsistent: %+v", st)
	}
}

func TestPrefetchImprovesSecondFrame(t *testing.T) {
	f := newFixture(t, 128)
	r, err := New(f.cache, f.vis, f.imp, Options{Sigma: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	theta := vec.Radians(20)
	p1 := vec.New(0, 0, 3)
	p2 := vec.RotateAbout(p1, vec.New(0, 1, 0), vec.Radians(5))
	v1 := visibility.VisibleSet(f.g, camera.Camera{Pos: p1, ViewAngle: theta})
	if _, _, err := r.Frame(ctx, p1, v1); err != nil {
		t.Fatal(err)
	}
	// Give the async prefetchers time to drain the queue.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := r.Snapshot()
		if st.PrefetchExecuted+st.PrefetchFailed+st.PrefetchDropped >= st.PrefetchIssued {
			break
		}
		time.Sleep(time.Millisecond)
	}
	before := f.cache.Counters()
	v2 := visibility.VisibleSet(f.g, camera.Camera{Pos: p2, ViewAngle: theta})
	if _, _, err := r.Frame(ctx, p2, v2); err != nil {
		t.Fatal(err)
	}
	after := f.cache.Counters()
	newHits := after.Hits - before.Hits
	newMisses := after.Misses - before.Misses
	// The 5°-rotated frame overlaps heavily and was prefetched: most of it
	// must hit the cache.
	if newHits <= newMisses {
		t.Errorf("second frame: %d hits vs %d misses; prefetch ineffective",
			newHits, newMisses)
	}
}

func TestFrameAfterCloseFails(t *testing.T) {
	f := newFixture(t, 16)
	r, err := New(f.cache, f.vis, f.imp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	if _, _, err := r.Frame(context.Background(), vec.New(0, 0, 3), []grid.BlockID{0}); err == nil {
		t.Error("Frame after Close succeeded")
	}
}

func TestFrameHonorsContext(t *testing.T) {
	f := newFixture(t, 16)
	r, err := New(f.cache, f.vis, f.imp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(20)}
	visible := visibility.VisibleSet(f.g, cam)
	if _, _, err := r.Frame(ctx, cam.Pos, visible); err == nil {
		t.Error("Frame with canceled context succeeded")
	}
	st := r.Snapshot()
	if st.FailedReads != 0 {
		t.Errorf("cancellation miscounted as %d storage failures", st.FailedReads)
	}
}

func TestQueueOverflowDropsNotBlocks(t *testing.T) {
	f := newFixture(t, 512)
	// Queue depth 1 with zero workers would deadlock if Frame blocked;
	// with drops it must return promptly.
	r, err := New(f.cache, f.vis, f.imp, Options{queueDepth: 1, PrefetchWorkers: 1, Sigma: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(20)}
	visible := visibility.VisibleSet(f.g, cam)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, err := r.Frame(context.Background(), cam.Pos, visible); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Frame blocked on full prefetch queue")
	}
}

// heldReader is a block reader the test can stop: while hold is set, reads
// wait for release.
type heldReader struct {
	store.BlockReader
	hold    atomic.Bool
	release chan struct{}
}

func (h *heldReader) ReadBlock(id grid.BlockID) ([]float32, error) {
	if h.hold.Load() {
		<-h.release
	}
	return h.BlockReader.ReadBlock(id)
}

func (h *heldReader) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	return testutil.ReadEach(ctx, ids, h.ReadBlock)
}

// TestFrameOffersPlannersOrder pins what Frame hands the prefetch queue:
// the planner's list and nothing else — no resident block, none scoring
// ≤ σ — most likely block first, so that a queue shorter than the list
// drops its tail rather than whatever sorts last by id. The prefetch worker
// is held inside its first read, so nothing drains while Frame offers.
func TestFrameOffersPlannersOrder(t *testing.T) {
	f := newFixture(t, 128)
	held := &heldReader{BlockReader: f.bf, release: make(chan struct{})}
	capacity := 128 * f.bf.BlockBytes(0)
	mc, err := store.NewMemCache(held, capacity, cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	// The frame sees the ball's core, the vicinity adds its rim; σ at the
	// corner blocks' score, the volume's lowest, cuts them alone.
	sigma := f.imp.Score(0)
	const depth = 3
	r, err := New(mc, f.vis, f.imp, Options{Sigma: sigma, queueDepth: depth, PrefetchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(20)}
	visible := visibility.VisibleSet(f.g, cam)
	ctx := context.Background()
	if _, _, errs := mc.GetBatch(ctx, visible); slices.ContainsFunc(errs, func(e error) bool { return e != nil }) {
		t.Fatal(errs)
	}

	// What the planner lists for a memory holding exactly the frame.
	plan, err := policy.NewPlanner(f.vis, f.imp, sigma)
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Prefetch(nil, cam.Pos, visible, &cacheMemory{mc, f.g})
	if rim := len(f.vis.AppendSet(nil, f.vis.NearestKey(cam.Pos))) - len(visible); len(want) <= depth+1 || len(want) >= rim {
		t.Fatalf("planner lists %d of the %d predicted blocks outside the frame for a queue of %d; the pin has no teeth",
			len(want), rim, depth)
	}
	for _, id := range want {
		if f.imp.Score(id) <= sigma || slices.Contains(visible, id) {
			t.Fatalf("planner listed block %d: score %g (σ %g), visible %v",
				id, f.imp.Score(id), sigma, slices.Contains(visible, id))
		}
	}

	held.hold.Store(true)
	if _, _, err := r.Frame(ctx, cam.Pos, visible); err != nil {
		t.Fatal(err)
	}
	close(held.release)
	r.Close() // drains the queue: every issued block is resident afterwards
	st := r.Snapshot()
	// The worker may or may not have taken its first block off the queue
	// before it filled.
	if st.PrefetchIssued != depth && st.PrefetchIssued != depth+1 {
		t.Errorf("issued %d prefetches into a queue of %d", st.PrefetchIssued, depth)
	}
	if got := st.PrefetchIssued + st.PrefetchDropped + st.PrefetchDeduped; got != int64(len(want)) {
		t.Errorf("Frame offered %d blocks, the planner lists %d", got, len(want))
	}
	for k, id := range want {
		if issued := int64(k) < st.PrefetchIssued; resident(mc, id) != issued {
			t.Errorf("block %d, number %d in the planner's order: resident %v with %d issued",
				id, k, !issued, st.PrefetchIssued)
		}
	}
	if extra := int64(mc.Len()) - int64(len(visible)) - st.PrefetchIssued; extra != 0 {
		t.Errorf("%d blocks resident that are neither the frame's nor the planner's", extra)
	}
}

func TestConcurrentFramesStressCache(t *testing.T) {
	// Tiny cache forces constant eviction under parallel demand reads.
	f := newFixture(t, 4)
	r, err := New(f.cache, f.vis, f.imp, Options{Sigma: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	theta := vec.Radians(20)
	path := camera.Orbit(3, 20)
	for _, pos := range path.Steps {
		visible := visibility.VisibleSet(f.g, camera.Camera{Pos: pos, ViewAngle: theta})
		data, rep, err := r.Frame(ctx, pos, visible)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Degraded {
			t.Fatalf("degraded without faults: %+v", rep)
		}
		for i := range data {
			if data[i] == nil {
				t.Fatal("nil block data")
			}
		}
	}
}

// TestTransientFaultsAbsorbed is the headline acceptance test: at a 10%
// transient read-failure rate, 100 frames complete with zero degradation —
// the retry layer absorbs every fault, and the counters prove retries
// actually happened.
func TestTransientFaultsAbsorbed(t *testing.T) {
	f := newFaultFixture(t, 8, &faultio.InjectorConfig{Seed: 2026, FailRate: 0.10})
	r, err := New(f.cache, f.vis, f.imp, Options{Sigma: 0, Retry: fastRetry(8)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	theta := vec.Radians(20)
	path := camera.Orbit(3, 100)
	for i, pos := range path.Steps {
		visible := visibility.VisibleSet(f.g, camera.Camera{Pos: pos, ViewAngle: theta})
		data, rep, err := r.Frame(ctx, pos, visible)
		if err != nil {
			t.Fatalf("frame %d failed outright: %v", i, err)
		}
		if rep.Degraded {
			t.Fatalf("frame %d degraded despite retries: missing %v (%v)",
				i, rep.Missing, rep.Failures)
		}
		for j := range data {
			if data[j] == nil {
				t.Fatalf("frame %d block %d nil without degradation flag", i, visible[j])
			}
		}
	}
	st := r.Snapshot()
	if st.Frames != 100 {
		t.Errorf("frames = %d", st.Frames)
	}
	if st.Retries == 0 {
		t.Error("no retries recorded at a 10% failure rate — injector not in the path?")
	}
	if st.FailedReads != 0 || st.DegradedFrames != 0 {
		t.Errorf("unexpected losses: %+v", st)
	}
	if f.inj.Stats().Transient == 0 {
		t.Error("injector reports no injected faults")
	}
}

// TestPermanentBlockDegradesFrame: permanently lost blocks must not fail
// the frame; they must come back as a degraded FrameReport naming each
// block. The lost blocks are listed in descending order, both to the
// injector and within visible, and Missing must still come back ascending:
// Frame settles its misses in block order.
func TestPermanentBlockDegradesFrame(t *testing.T) {
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(20)}
	probe := newFixture(t, 8)
	visible := visibility.VisibleSet(probe.g, cam)
	if len(visible) < 3 {
		t.Fatalf("%d visible blocks, want at least 3", len(visible))
	}
	visible = slices.Clone(visible)
	slices.Reverse(visible)
	lost := []grid.BlockID{visible[0], visible[len(visible)/2], visible[len(visible)-1]}

	f := newFaultFixture(t, 8, &faultio.InjectorConfig{FailBlocks: lost})
	r, err := New(f.cache, f.vis, f.imp, Options{Retry: fastRetry(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, rep, err := r.Frame(context.Background(), cam.Pos, visible)
	if err != nil {
		t.Fatalf("degradation returned a frame-level error: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("report not degraded")
	}
	want := slices.Clone(lost)
	slices.Sort(want)
	if !slices.Equal(rep.Missing, want) {
		t.Fatalf("Missing = %v, want %v", rep.Missing, want)
	}
	if len(rep.Failures) != len(lost) {
		t.Errorf("Failures holds %d blocks, want %d: %v", len(rep.Failures), len(lost), rep.Failures)
	}
	for _, id := range lost {
		if rep.Failures[id] == nil {
			t.Errorf("no failure cause recorded for lost block %d", id)
		}
	}
	for i, id := range visible {
		if slices.Contains(lost, id) {
			if data[i] != nil {
				t.Errorf("lost block %d has data", id)
			}
			continue
		}
		if data[i] == nil {
			t.Errorf("healthy block %d missing", id)
		}
	}
	st := r.Snapshot()
	if st.FailedReads != int64(len(lost)) || st.DegradedFrames != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCorruptionDetectedAndRetried: injected in-transit corruption over a
// checksummed (v2) file must be caught and absorbed by a retry, never
// silently rendered.
func TestCorruptionDetectedAndRetried(t *testing.T) {
	f := newFaultFixture(t, 8, &faultio.InjectorConfig{Seed: 5, CorruptRate: 0.25})
	r, err := New(f.cache, f.vis, f.imp, Options{Retry: fastRetry(8)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	theta := vec.Radians(20)
	for _, pos := range camera.Orbit(3, 30).Steps {
		visible := visibility.VisibleSet(f.g, camera.Camera{Pos: pos, ViewAngle: theta})
		_, rep, err := r.Frame(ctx, pos, visible)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Degraded {
			t.Fatalf("corruption degraded the frame: %+v", rep)
		}
	}
	st := r.Snapshot()
	if st.ChecksumErrors == 0 {
		t.Error("no checksum rejections recorded at a 25% corruption rate")
	}
	if inj := f.inj.Stats(); inj.CorruptSilent != 0 {
		t.Errorf("%d corruptions passed silently over a v2 file", inj.CorruptSilent)
	}
}

// TestFrameConcurrentWithClose hammers Frame from several goroutines while
// Close runs, with faults injected. Run under -race it proves frames in
// flight and Close's prefetch shutdown coordinate; afterwards the prefetch
// workers must have
// drained (no goroutine leak) and Frame must fail cleanly.
func TestFrameConcurrentWithClose(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := newFaultFixture(t, 8, &faultio.InjectorConfig{Seed: 9, FailRate: 0.2})
	r, err := New(f.cache, f.vis, f.imp, Options{
		Sigma: 0, PrefetchWorkers: 4, Retry: fastRetry(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(20)}
	visible := visibility.VisibleSet(f.g, cam)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				_, _, err := r.Frame(ctx, cam.Pos, visible)
				if err != nil {
					if !strings.Contains(err.Error(), "closed") {
						t.Errorf("unexpected frame error: %v", err)
					}
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	r.Close()
	wg.Wait()
	if _, _, err := r.Frame(ctx, cam.Pos, visible); err == nil {
		t.Error("Frame after Close succeeded")
	}
	// testutil.VerifyNoLeaks asserts the prefetch workers drain.
}

// TestFrameMissesOneBatch pins the demand path's shape: a frame's misses,
// consecutive blocks handed over out of order, reach the block file as one
// ReadBlocks call that the file merges into one ReadAt, whatever
// GOMAXPROCS is.
func TestFrameMissesOneBatch(t *testing.T) {
	f := newFixture(t, 64)
	ctx := context.Background()
	if _, _, errs := f.cache.GetBatch(ctx, []grid.BlockID{20}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	// σ above every score: nothing is prefetched, so the file sees the
	// frame's reads alone.
	r, err := New(f.cache, f.vis, f.imp, Options{Sigma: f.imp.MaxScore() + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	before := f.bf.IOStats()
	visible := []grid.BlockID{13, 20, 11, 12, 10}
	data, rep, err := r.Frame(ctx, vec.New(0, 0, 3), visible)
	if err != nil || rep.Degraded {
		t.Fatalf("frame: %v %+v", err, rep)
	}
	for i, id := range visible {
		if int64(len(data[i])) != f.g.VoxelCount(id) {
			t.Fatalf("block %d: %d values", id, len(data[i]))
		}
	}
	after := f.bf.IOStats()
	if n := after.Batches - before.Batches; n != 1 {
		t.Errorf("the frame's 4 misses reached the file as %d ReadBlocks calls, want 1", n)
	}
	if n := after.MergedRuns - before.MergedRuns; n != 1 {
		t.Errorf("blocks 10–13 took %d ReadAt calls, want 1 merged run", n)
	}
	if st := r.Snapshot(); st.DemandBatches != 1 || st.DemandReads != 4 || st.DemandHits != 1 {
		t.Errorf("stats = %+v, want 1 batch of 4 reads and 1 hit", st)
	}
}

// TestConcurrentFramesTinyCache runs Frame from four goroutines over a
// cache that holds almost nothing, so every frame is miss-heavy and the
// eviction/coalescing/batch paths of the frames all run concurrently. The
// runtime's accounting must stay consistent with the cache's own counters,
// and a frame sends its misses to the cache as at most one batch.
func TestConcurrentFramesTinyCache(t *testing.T) {
	f := newFixture(t, 2)
	r, err := New(f.cache, f.vis, f.imp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	theta := vec.Radians(20)
	ctx := context.Background()
	const workers = 4
	var pos [workers]vec.V3
	for w := range pos {
		pos[w] = vec.RotateAbout(vec.New(0, 0, 3), vec.New(0, 1, 0), vec.Radians(float64(10*w)))
	}
	// Each round's frames run at once; their data is checked after the
	// round, before any next Frame ends it.
	for i := 0; i < 8; i++ {
		var (
			wg      sync.WaitGroup
			visible [workers][]grid.BlockID
			data    [workers][][]float32
		)
		for w := 0; w < workers; w++ {
			visible[w] = visibility.VisibleSet(f.g, camera.Camera{Pos: pos[w], ViewAngle: theta})
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var rep FrameReport
				var err error
				data[w], rep, err = r.Frame(ctx, pos[w], visible[w])
				if err != nil {
					t.Errorf("frame: %v", err)
				} else if rep.Degraded {
					t.Errorf("healthy store degraded frame: %+v", rep)
				}
			}(w)
		}
		wg.Wait()
		for w := range data {
			for j, vals := range data[w] {
				if int64(len(vals)) != f.g.VoxelCount(visible[w][j]) {
					t.Fatalf("block %d: %d values", visible[w][j], len(vals))
				}
			}
			pos[w] = vec.RotateAbout(pos[w], vec.New(0, 1, 0), vec.Radians(3))
		}
	}
	st := r.Snapshot()
	cc := f.cache.Counters()
	if st.DemandReads != cc.Misses {
		t.Errorf("DemandReads = %d, cache misses = %d", st.DemandReads, cc.Misses)
	}
	if st.DemandHits > cc.Hits {
		t.Errorf("DemandHits = %d exceeds cache hits = %d", st.DemandHits, cc.Hits)
	}
	if st.DemandBatches == 0 {
		t.Error("no demand batches despite a 2-block cache")
	}
	if st.DemandBatches > st.Frames {
		t.Errorf("%d demand batches over %d frames: a frame's misses split", st.DemandBatches, st.Frames)
	}
}

// TestPrefetchEnqueueDedup pins satellite (b): re-predicting blocks that are
// already queued or in flight must not enqueue duplicate work. Slow injected
// reads keep the queue occupied across two identical frames.
func TestPrefetchEnqueueDedup(t *testing.T) {
	f := newFaultFixture(t, 128, &faultio.InjectorConfig{Latency: 2 * time.Millisecond})
	r, err := New(f.cache, f.vis, f.imp, Options{
		Sigma: 0, PrefetchWorkers: 1, queueDepth: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(20)}
	visible := visibility.VisibleSet(f.g, cam)
	ctx := context.Background()
	if _, _, err := r.Frame(ctx, cam.Pos, visible); err != nil {
		t.Fatal(err)
	}
	// Same position again, immediately: the single slow prefetch worker
	// cannot have drained the queue, so the second frame's identical
	// predictions must dedup instead of re-enqueueing.
	if _, _, err := r.Frame(ctx, cam.Pos, visible); err != nil {
		t.Fatal(err)
	}
	st := r.Snapshot()
	if st.PrefetchDeduped == 0 {
		t.Errorf("no deduped predictions across identical frames: %+v", st)
	}
	r.Close()
	st = r.Snapshot()
	if st.PrefetchExecuted+st.PrefetchFailed+st.PrefetchDropped < st.PrefetchIssued {
		t.Errorf("prefetch accounting inconsistent: %+v", st)
	}
}

// blockTruth reads every block of the fixture's file into buffers of its own,
// which no cache ever holds or recycles.
func blockTruth(t *testing.T, f *fixture) [][]float32 {
	t.Helper()
	truth := make([][]float32, f.g.NumBlocks())
	for _, id := range f.g.All() {
		vals, err := f.bf.ReadBlock(id)
		if err != nil {
			t.Fatal(err)
		}
		truth[id] = vals
	}
	return truth
}

// TestFrameSlicesIntactUntilNextFrame is the runtime's buffer contract, the
// way vizsim -realio drives it: four prefetch workers admit into a cache of
// four blocks, so nearly every admission evicts, and an evicted buffer is
// read into again once the next Frame has released it. While the workers
// run, every voxel of every block a Frame returned must still be the file's
// — under -race (make race), with no race reported between the caller's
// reads and the workers' decodes.
func TestFrameSlicesIntactUntilNextFrame(t *testing.T) {
	f := newFixture(t, 4)
	truth := blockTruth(t, f)
	r, err := New(f.cache, f.vis, f.imp, Options{Sigma: 0, PrefetchWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	theta := vec.Radians(20)
	for i, pos := range camera.Orbit(3, 40).Steps {
		visible := visibility.VisibleSet(f.g, camera.Camera{Pos: pos, ViewAngle: theta})
		data, rep, err := r.Frame(ctx, pos, visible)
		if err != nil || rep.Degraded {
			t.Fatalf("frame %d: %v %+v", i, err, rep)
		}
		for j, id := range visible {
			if !slices.Equal(data[j], truth[id]) {
				t.Fatalf("frame %d: block %d was rewritten before the next Frame", i, id)
			}
		}
	}
	if cc := f.cache.Counters(); cc.Recycled == 0 {
		t.Errorf("no evicted buffer recycled in 40 frames of churn: %+v", cc)
	}
}

// joinReader holds the read of block held until the read of block joiner
// starts: a demand batch of both reaches joiner only after it has become a
// waiter on held's in-flight read.
type joinReader struct {
	bf             *store.BlockFile
	held, joiner   grid.BlockID
	entered, start chan struct{}
}

func (r *joinReader) ReadBlock(id grid.BlockID) ([]float32, error) {
	switch id {
	case r.held:
		close(r.entered)
		<-r.start
	case r.joiner:
		close(r.start)
	}
	return r.bf.ReadBlock(id)
}

func (r *joinReader) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	return testutil.ReadEach(ctx, ids, r.ReadBlock)
}

func (r *joinReader) RecycleBlockBuf(vals []float32) { r.bf.RecycleBlockBuf(vals) }

// TestCoalescedSliceIntactUntilNextFrame: a demand read that joins a
// prefetch's in-flight read is handed the prefetch's buffer, which the
// admissions after it evict; it must stay intact through later reads until
// the next Frame, and be recycled from then on.
func TestCoalescedSliceIntactUntilNextFrame(t *testing.T) {
	f := newFixture(t, 2)
	truth := blockTruth(t, f)
	jr := &joinReader{bf: f.bf, held: 9, joiner: 10, entered: make(chan struct{}), start: make(chan struct{})}
	mc, err := store.NewMemCache(jr, 2*f.bf.BlockBytes(0), cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	// No planned prefetch. A frame's misses always go to the cache as one
	// batch, so both blocks ride it and the joiner's read starts while the
	// held block is a waiter.
	r, err := New(mc, f.vis, f.imp, Options{Sigma: f.imp.MaxScore() + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	prefetched := make(chan error, 1)
	go func() { prefetched <- mc.Prefetch(ctx, jr.held) }()
	<-jr.entered

	pos := vec.New(0, 0, 3)
	ids := []grid.BlockID{jr.held, jr.joiner}
	data, rep, err := r.Frame(ctx, pos, ids)
	if err != nil || rep.Degraded {
		t.Fatalf("frame: %v %+v", err, rep)
	}
	if err := <-prefetched; err != nil {
		t.Fatal(err)
	}
	if cc := mc.Counters(); cc.Coalesced != 1 {
		t.Fatalf("demand read of block %d coalesced %d times, want once onto the prefetch", jr.held, cc.Coalesced)
	}
	// Churn a cache of two: both blocks are evicted, and four reads follow.
	for id := grid.BlockID(20); id < 24; id++ {
		if err := mc.Prefetch(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	for k, id := range ids {
		if !slices.Equal(data[k], truth[id]) {
			t.Fatalf("block %d was rewritten before the next Frame", id)
		}
	}
	if cc := mc.Counters(); cc.Recycled != 0 {
		t.Fatalf("%d buffers recycled before the next Frame", cc.Recycled)
	}
	if _, _, err := r.Frame(ctx, pos, []grid.BlockID{20}); err != nil {
		t.Fatal(err)
	}
	if cc := mc.Counters(); cc.Recycled == 0 {
		t.Errorf("the next Frame recycled nothing: %+v", cc)
	}
}

// TestWarmFrameAllocatesNothing pins the hit path: once every visible block
// and every block the planner lists is resident, a Frame allocates nothing —
// not its answer, not its scratch, not its prefetch offer.
func TestWarmFrameAllocatesNothing(t *testing.T) {
	f := newFixture(t, 64)
	r, err := New(f.cache, f.vis, f.imp, Options{Sigma: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	cam := camera.Camera{Pos: vec.New(0, 0, 3), ViewAngle: vec.Radians(20)}
	visible := visibility.VisibleSet(f.g, cam)
	// Frames until one issues no prefetch and its prefetches have landed.
	for settled, deadline := false, time.Now().Add(10*time.Second); !settled; {
		if time.Now().After(deadline) {
			t.Fatalf("prefetch never settled: %+v", r.Snapshot())
		}
		if _, _, err := r.Frame(ctx, cam.Pos, visible); err != nil {
			t.Fatal(err)
		}
		st := r.Snapshot()
		settled = st.PrefetchIssued == st.PrefetchExecuted+st.PrefetchFailed &&
			len(r.plan.Prefetch(nil, cam.Pos, visible, r.cache)) == 0
	}
	before := r.Snapshot()
	allocs := testing.AllocsPerRun(50, func() {
		if _, rep, err := r.Frame(ctx, cam.Pos, visible); err != nil || rep.Degraded {
			t.Fatalf("frame: %v %+v", err, rep)
		}
	})
	st := r.Snapshot()
	if st.DemandReads != before.DemandReads || st.PrefetchIssued != before.PrefetchIssued {
		t.Fatalf("the frame was not warm: %d reads, %d prefetches", st.DemandReads-before.DemandReads, st.PrefetchIssued-before.PrefetchIssued)
	}
	if allocs != 0 {
		t.Errorf("a warm frame of %d blocks allocates %v times, want 0", len(visible), allocs)
	}
}

// TestChurnFrameAllocationsFlat: a frame whose every block misses allocates
// as often for 32 blocks as for 8, and exactly five times: GetBatch's three
// results and the block file's two (ReadBlocks' vals and errs). The miss
// batch's in-flight record and its index slices are reused, the file walks
// the ascending batch with no order slice, and its staging is pooled.
func TestChurnFrameAllocationsFlat(t *testing.T) {
	f := newFixture(t, 2)
	// σ above every score: no prefetch, only the frame's own reads.
	r, err := New(f.cache, f.vis, f.imp, Options{Sigma: f.imp.MaxScore() + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	allocs := func(n int) float64 {
		// Two disjoint sets in turn, each larger than the cache: every
		// block of every frame misses.
		var sets [2][]grid.BlockID
		for i := 0; i < n; i++ {
			sets[0] = append(sets[0], grid.BlockID(i))
			sets[1] = append(sets[1], grid.BlockID(n+i))
		}
		k := 0
		frame := func() {
			k++
			if _, rep, err := r.Frame(ctx, vec.New(0, 0, 3), sets[k%2]); err != nil || rep.Degraded {
				t.Fatalf("frame: %v %+v", err, rep)
			}
		}
		for i := 0; i < 4; i++ {
			frame()
		}
		before := r.Snapshot().DemandReads
		a := testing.AllocsPerRun(20, frame)
		if reads := r.Snapshot().DemandReads - before; reads != int64(21*n) {
			t.Fatalf("%d-block frames read %d blocks over 21 frames, want every block", n, reads)
		}
		return a
	}
	const want = 5
	if small, large := allocs(8), allocs(32); small != want || large != want {
		t.Errorf("a churn frame allocates %v times at 8 blocks and %v at 32, want %d", small, large, want)
	}
}
