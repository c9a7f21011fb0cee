package blocksvc

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/camera"
	"repro/internal/netchaos"
	"repro/internal/ooc"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/vec"
	"repro/internal/visibility"

	"repro/internal/cache"
)

// TestChaosReplicaFailoverAndDrain is the capstone end-to-end test for the
// failure model: a remote ooc.Runtime renders an orbit against two replica
// vizservers reached through a netchaos-perturbed wire while replica A is
// killed outright, then restarted, and replica B is gracefully drained —
// all mid-run. Every frame must return err == nil (degradation is allowed,
// frame errors are not), cutover must complete within one heartbeat
// interval, and nothing may leak.
func TestChaosReplicaFailoverAndDrain(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const hb = 300 * time.Millisecond
	mutate := func(c *Config) { c.HeartbeatInterval = hb }
	fa := startService(t, svcOpts{mutate: mutate})
	fb := startService(t, svcOpts{mutate: mutate})

	// Replica A dies and comes back mid-run: its dials go through an
	// atomically swappable listener so the restart reuses the same endpoint.
	var lisA atomic.Pointer[PipeListener]
	lisA.Store(fa.lis)

	// A mildly hostile wire: per-write latency with jitter and chunked
	// delivery, deterministic for the pinned seed.
	ch := netchaos.New(netchaos.Config{
		Seed:          4,
		Latency:       100 * time.Microsecond,
		LatencyJitter: 200 * time.Microsecond,
		ChunkBytes:    4096,
	})
	r, err := Dial(ClientConfig{
		Endpoints: []string{"replica-a", "replica-b"},
		Dial: ch.Dialer(dialRoutes(map[string]dialFunc{
			"replica-a": func(ctx context.Context, addr string) (net.Conn, error) {
				return lisA.Load().Dial(ctx, addr)
			},
			"replica-b": fb.lis.Dial,
		})),
		Conns:      2,
		Retry:      fastRetry(2),
		newBreaker: quickBreaker(2, 20*time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })

	// A small client-side cache in front of the remote reader, then the
	// interactive runtime on top — the full remote vizsim stack.
	mc, err := store.NewMemCache(r, 8*fa.bf.BlockBytes(0), cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := ooc.New(mc, fa.vis, fa.imp, ooc.Options{
		Sigma: fa.imp.MaxScore() + 1, // no prefetch: keep the block accounting legible
		Retry: fastRetry(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	drainErr := make(chan error, 1)
	theta := vec.Radians(20)
	var maxFrame time.Duration
	degraded := 0
	steps := camera.Orbit(3, 24).Steps
	for i, pos := range steps {
		switch i {
		case 8:
			// Hard kill replica A: no goaway, conns just die.
			fa.lis.Close()
			fa.srv.Close()
		case 12:
			// Restart A on a fresh listener behind the same endpoint.
			srv2, err := NewServer(Config{Cache: fa.cache, Grid: fa.g,
				Header: fa.bf.Header(), HeartbeatInterval: hb})
			if err != nil {
				t.Fatal(err)
			}
			lis2 := NewPipeListener()
			t.Cleanup(func() { lis2.Close(); srv2.Close() })
			go srv2.Serve(lis2)
			lisA.Store(lis2)
		case 16:
			// Gracefully drain replica B while frames keep rendering.
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				drainErr <- fb.srv.Drain(ctx)
			}()
		}
		visible := visibility.VisibleSet(fa.g, camera.Camera{Pos: pos, ViewAngle: theta})
		start := time.Now()
		_, rep, err := rt.Frame(context.Background(), pos, visible)
		dur := time.Since(start)
		if err != nil {
			t.Fatalf("frame %d errored (degradation is allowed, errors are not): %v", i, err)
		}
		if dur > maxFrame {
			maxFrame = dur
		}
		if rep.Degraded {
			degraded++
		}
	}

	if err := <-drainErr; err != nil {
		t.Errorf("Drain = %v, want nil (no in-flight work outlives 5s)", err)
	}
	// Cutover bound: even the frames that discovered a dead or draining
	// replica must finish within one heartbeat interval.
	if maxFrame >= hb {
		t.Errorf("slowest frame took %v, want < one heartbeat interval (%v)", maxFrame, hb)
	}
	st := r.Snapshot()
	if st.Failovers == 0 {
		t.Errorf("no failovers across a kill and a drain: %+v", st)
	}
	if st.GoawaysReceived == 0 {
		t.Errorf("drain produced no client-visible GOAWAY: %+v", st)
	}
	if degraded == len(steps) {
		t.Errorf("every frame degraded; replicas never recovered")
	}
	t.Logf("chaos run: %d/%d degraded frames, slowest %v, failovers=%d goaways=%d resets=%d",
		degraded, len(steps), maxFrame, st.Failovers, st.GoawaysReceived, ch.Stats().Resets)
}
