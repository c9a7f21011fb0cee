package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blocksvc"
	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/entropy"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/ooc"
	"repro/internal/radius"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/vec"
	"repro/internal/visibility"
	"repro/internal/volume"
)

// fetchSnapshot GETs the debug endpoint and decodes the JSON body.
func fetchSnapshot(t *testing.T, url string) (obs.Snapshot, error) {
	t.Helper()
	resp, err := http.Get(url + "/debug/metrics")
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return obs.Snapshot{}, err
	}
	return s, nil
}

// TestDebugEndpointLiveMetrics is the observability acceptance test: the
// vizserver stack (shared instrumented cache, block service with a metrics
// registry, debug mux) serving two concurrent remote ooc.Runtime sessions,
// with the debug endpoint polled while frames run. The served JSON must
// carry the cache hit/miss/coalesced counters, the service and client
// counters including shed counts, and the frame-phase histograms with sane
// p50/p95/p99 — and no metric name is ever registered per session.
func TestDebugEndpointLiveMetrics(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	reg := obs.NewRegistry()

	// Server side: ball dataset on disk, instrumented shared cache, block
	// service with prefetch enabled, all reporting into reg.
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
	mc, err := store.NewMemCache(bf, int64(g.NumBlocks())*bf.BlockBytes(0), cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	mc.Instrument(reg)
	imp := entropy.Build(ds, g, entropy.Options{})
	vis, err := visibility.NewTable(g, visibility.Options{
		NAzimuth: 16, NElevation: 8, NDistance: 2,
		RMin: 2.5, RMax: 3.5,
		ViewAngle: vec.Radians(20),
		Radius:    radius.Fixed(0.3),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := blocksvc.NewServer(blocksvc.Config{
		Cache: mc, Grid: g, Header: bf.Header(),
		Vis: vis, Imp: imp, Sigma: 0,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis := blocksvc.NewPipeListener()
	go srv.Serve(lis)
	t.Cleanup(func() {
		lis.Close()
		srv.Close()
	})

	// The exact mux vizserver mounts on -debug-addr.
	web := httptest.NewServer(debugMux(reg))
	t.Cleanup(web.Close)

	// Two remote sessions, each a RemoteReader-backed ooc.Runtime sharing
	// the one registry; caller-side visibility and render phases are timed
	// through each runtime's phase timer, as vizsim does.
	const sessions = 2
	readers := make([]*blocksvc.RemoteReader, sessions)
	runtimes := make([]*ooc.Runtime, sessions)
	for s := 0; s < sessions; s++ {
		readers[s], err = blocksvc.Dial(blocksvc.ClientConfig{
			Dial: lis.Dial, Conns: 2, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		cmc, err := store.NewMemCache(readers[s],
			int64(g.NumBlocks())*bf.BlockBytes(0), cache.NewLRU())
		if err != nil {
			t.Fatal(err)
		}
		runtimes[s], err = ooc.New(cmc, vis, imp, ooc.Options{Sigma: 0, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
	}

	theta := vec.Radians(20)
	orbit := camera.Orbit(3, 6)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ctx := context.Background()
			rt := runtimes[s]
			for i, pos := range orbit.Steps {
				readers[s].SendView(ctx, pos)
				visSpan := rt.Phases().Begin(obs.PhaseVisibility)
				visible := visibility.VisibleSet(g, camera.Camera{Pos: pos, ViewAngle: theta})
				visSpan.End()
				data, rep, err := rt.Frame(ctx, pos, visible)
				if err != nil {
					t.Errorf("session %d frame %d: %v", s, i, err)
					return
				}
				if rep.Degraded {
					t.Errorf("session %d frame %d degraded without faults", s, i)
					return
				}
				renderSpan := rt.Phases().Begin(obs.PhaseRender)
				var sum float64
				for j := range data {
					for _, v := range data[j] {
						sum += float64(v)
					}
				}
				renderSpan.End()
				_ = sum
			}
		}(s)
	}

	// Poll the endpoint while the sessions run: every response must be a
	// decodable snapshot, and at least one must land mid-run.
	done := make(chan struct{})
	polls := make(chan int, 1)
	go func() {
		defer close(polls)
		n := 0
		for {
			select {
			case <-done:
				polls <- n
				return
			default:
			}
			if _, err := fetchSnapshot(t, web.URL); err != nil {
				t.Errorf("live poll: %v", err)
				polls <- n
				return
			}
			n++
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(done)
	if n := <-polls; n == 0 {
		t.Error("debug endpoint never polled while sessions ran")
	}

	// Sessions are still connected: the full metric surface must be there.
	snap, err := fetchSnapshot(t, web.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"cache.hits", "cache.misses", "cache.coalesced",
		"svc.requests", "svc.shed_requests", "svc.blocks_ok",
		"client.requests", "client.blocks_served",
		"ooc.frames", "ooc.demand_reads", "ooc.prefetch_issued",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("snapshot is missing counter %q", name)
		}
	}
	wantFrames := int64(sessions * len(orbit.Steps))
	if got := snap.Counters["ooc.frames"]; got != wantFrames {
		t.Errorf("ooc.frames = %d, want %d", got, wantFrames)
	}
	if snap.Counters["svc.requests"] == 0 || snap.Counters["client.requests"] == 0 {
		t.Errorf("no traffic recorded: svc.requests=%d client.requests=%d",
			snap.Counters["svc.requests"], snap.Counters["client.requests"])
	}
	for _, name := range []string{
		"ooc.phase.visibility_ns", "ooc.phase.demand_wait_ns",
		"ooc.phase.render_ns", "ooc.phase.prefetch_issue_ns",
		"ooc.frame_ns", "svc.queue_wait_ns", "client.request_ns",
	} {
		h, ok := snap.Histograms[name]
		if !ok {
			t.Errorf("snapshot is missing histogram %q", name)
			continue
		}
		if h.Count == 0 {
			t.Errorf("histogram %q recorded nothing", name)
		}
		if h.P50 > h.P95 || h.P95 > h.P99 {
			t.Errorf("histogram %q quantiles out of order: p50=%d p95=%d p99=%d",
				name, h.P50, h.P95, h.P99)
		}
	}
	if snap.Gauges["svc.active_sessions"] == 0 {
		t.Error("svc.active_sessions = 0 with sessions connected")
	}
	// The server exports no name per session: the scrape stays bounded
	// however many connect.
	noSessionNames := func(snap obs.Snapshot) {
		t.Helper()
		for _, set := range []map[string]int64{snap.Counters, snap.Gauges} {
			for name := range set {
				if strings.HasPrefix(name, "svc.session.") {
					t.Errorf("per-session metric %q registered", name)
				}
			}
		}
	}
	noSessionNames(snap)

	for s := 0; s < sessions; s++ {
		runtimes[s].Close()
		readers[s].Close()
	}
	lis.Close()
	srv.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap, err = fetchSnapshot(t, web.URL)
		if err != nil {
			t.Fatal(err)
		}
		noSessionNames(snap)
		if snap.Gauges["svc.active_sessions"] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions survived shutdown: active=%d", snap.Gauges["svc.active_sessions"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
