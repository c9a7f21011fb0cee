package blocksvc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/netchaos"
	"repro/internal/testutil"
)

// This file covers the lifecycle paths: heartbeats and dead-peer
// detection on both sides, graceful drain, the handshake write deadline,
// endpoint circuit breaking and failover, and the Close/acquire race. The
// two-replica chaos end-to-end test lives in chaos_test.go.

// waitFor polls cond until it returns true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestHandshakeWriteDeadline pins the slow-loris fix: a peer that sends a
// valid hello but never drains its receive buffer must not pin the session
// goroutine on the welcome write. The stall comes from a netchaos conn with
// StallRate=1, which blocks the server's first write indefinitely; the
// handshake write deadline — two heartbeats, the rule every later frame is
// held to — has to cut it.
func TestHandshakeWriteDeadline(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := startService(t, svcOpts{mutate: func(c *Config) {
		c.HeartbeatInterval = 50 * time.Millisecond
	}})
	ch := netchaos.New(netchaos.Config{Seed: 1, StallRate: 1}) // StallFor=0: forever
	lis := testutil.NewPipeListener()
	t.Cleanup(func() { lis.Close() })
	go f.srv.Serve(ch.Listener(lis))

	conn, err := lis.Dial(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello enc
	hello.u32(protoMagic)
	hello.u16(ProtoVersion)
	if err := writeFrame(conn, msgHello, hello.b); err != nil {
		t.Fatal(err)
	}
	// Deliberately never read: on a pipe the welcome write can't complete.
	waitFor(t, 2*time.Second, "server welcome write to stall", func() bool {
		return ch.Stats().Stalls >= 1
	})
	waitFor(t, 2*time.Second, "slow-loris session teardown", func() bool {
		return f.srv.Snapshot().ActiveSessions == 0
	})
	// Teardown closed the conn; our (never-started) read side sees it too.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := readFrame(conn, nil); err == nil {
		t.Fatal("read a frame from a session that should have been torn down")
	}
}

// TestServerDetectsDeadPeer: a client that handshakes and then goes
// completely silent must be torn down within ~2× the heartbeat interval,
// and counted as a dead peer.
func TestServerDetectsDeadPeer(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := startService(t, svcOpts{mutate: func(c *Config) {
		c.HeartbeatInterval = 30 * time.Millisecond
	}})
	conn, err := f.lis.Dial(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello enc
	hello.u32(protoMagic)
	hello.u16(ProtoVersion)
	if err := writeFrame(conn, msgHello, hello.b); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(bufio.NewReader(conn), nil)
	if err != nil || typ != msgWelcome {
		t.Fatalf("welcome: typ=%d err=%v", typ, err)
	}
	w, ok := decodeWelcome(payload)
	if !ok || w.HeartbeatMillis != 30 {
		t.Fatalf("welcome advertises %d ms heartbeat, want 30", w.HeartbeatMillis)
	}
	// Go silent: no reads (the server's pings will block on the pipe) and
	// no writes (the server's idle-read deadline is what must fire).
	waitFor(t, 2*time.Second, "dead-peer teardown", func() bool {
		return f.srv.Snapshot().ActiveSessions == 0
	})
	st := f.srv.Snapshot()
	if st.DeadPeers == 0 {
		t.Errorf("DeadPeers = 0 after an idle-timeout teardown: %+v", st)
	}
}

// startMuteServer speaks just enough protocol to complete the handshake
// (advertising hbMillis) and then swallows every subsequent frame without
// ever answering — a wedged server from the client's point of view.
func startMuteServer(t *testing.T, hbMillis uint32) *testutil.PipeListener {
	t.Helper()
	lis := testutil.NewPipeListener()
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				if typ, _, err := readFrame(br, nil); err != nil || typ != msgHello {
					return
				}
				var e enc
				e.u16(ProtoVersion)
				e.u64(1)
				for _, v := range []uint32{32, 32, 32, 8, 8, 8, 1, 64, 0} {
					e.u32(v)
				}
				e.u32(hbMillis)
				e.u32(1) // maxRequests
				e.u32(0) // mapBytes: a flat server
				if err := writeFrame(c, msgWelcome, e.b); err != nil {
					return
				}
				for {
					if _, _, err := readFrame(br, nil); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return lis
}

// TestClientDetectsDeadServer: a server that stops answering mid-request
// must surface as a transient transport error within ~2× the advertised
// heartbeat interval per attempt — not hang the frame loop forever.
func TestClientDetectsDeadServer(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	lis := startMuteServer(t, 25)
	r, err := Dial(ClientConfig{Dial: lis.Dial, Conns: 1, Retry: fastRetry(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	start := time.Now()
	_, errs := r.ReadBlocks(context.Background(), []grid.BlockID{1, 2, 3})
	elapsed := time.Since(start)
	for i, err := range errs {
		if err == nil || !faultio.Retryable(err) {
			t.Fatalf("errs[%d] = %v, want a retryable transport error", i, err)
		}
	}
	if elapsed > 3*time.Second {
		t.Errorf("dead server took %v to detect; heartbeat deadline not armed?", elapsed)
	}
	if st := r.Snapshot(); st.TransportErrors == 0 {
		t.Errorf("no transport errors recorded: %+v", st)
	}
}

// TestIdleConnToMuteServerDropped: a server that advertises a heartbeat and
// then never sends one leaves the client's idle conn without inbound frames;
// the read deadline alone must count it dead and drop it.
func TestIdleConnToMuteServerDropped(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	lis := startMuteServer(t, 20)
	r, err := Dial(ClientConfig{Dial: lis.Dial, Conns: 1, Retry: fastRetry(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitFor(t, 3*time.Second, "the read deadline to drop the idle conn", func() bool {
		return r.Snapshot().DeadPeers >= 1
	})
}

// TestIdleConnSurvivesHeartbeats: the server's pings and the client's pongs
// are all the liveness an idle conn needs — after ten heartbeats it is still
// the pool's one conn, with no dead peer on either side.
func TestIdleConnSurvivesHeartbeats(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := startService(t, svcOpts{mutate: func(c *Config) {
		c.HeartbeatInterval = 20 * time.Millisecond
	}})
	r, err := Dial(ClientConfig{Dial: f.dial, Conns: 1, Retry: fastRetry(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitFor(t, 3*time.Second, "ten heartbeats", func() bool {
		return f.srv.Snapshot().HeartbeatsSent >= 10
	})
	if _, errs := r.ReadBlocks(context.Background(), []grid.BlockID{0, 1, 2}); anyErr(errs) != nil {
		t.Fatalf("read after ten idle heartbeats: %v", anyErr(errs))
	}
	if st := r.Snapshot(); st.Dials != 1 || st.DeadPeers != 0 {
		t.Errorf("client redialed or dropped its idle conn: %+v", st)
	}
	if st := f.srv.Snapshot(); st.DeadPeers != 0 {
		t.Errorf("server dropped an idle client that answered every ping: %+v", st)
	}
}

// TestClientPingRefused: ping is the server's alone. A client that sends one
// has broken the protocol and gets an error frame and a closed session.
func TestClientPingRefused(t *testing.T) {
	f := startService(t, svcOpts{mutate: func(c *Config) { c.HeartbeatInterval = -1 }})
	conn, err := f.lis.Dial(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var e enc
	e.u32(protoMagic)
	e.u16(ProtoVersion)
	if err := writeFrame(conn, msgHello, e.b); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if typ, _, err := readFrame(br, nil); err != nil || typ != msgWelcome {
		t.Fatalf("welcome: typ=%d err=%v", typ, err)
	}
	e.reset()
	e.u64(1)
	if err := writeFrame(conn, msgPing, e.b); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(br, nil); err != nil || typ != msgError {
		t.Fatalf("answer to a client ping: typ=%d err=%v, want an error frame", typ, err)
	}
	if _, _, err := readFrame(br, nil); err == nil {
		t.Fatal("session stayed open after refusing a client ping")
	}
}

// TestDrainFinishesInflight: Drain must announce GOAWAY, let the in-flight
// batch finish cleanly (the injected latency guarantees it is still running
// when Drain starts), and only then close. New work after the drain fails
// transiently instead of hanging.
func TestDrainFinishesInflight(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := startService(t, svcOpts{
		inject:     &faultio.InjectorConfig{Seed: 5, Latency: 3 * time.Millisecond},
		cacheBytes: 4, // nothing caches: every block pays the injector latency
		mutate:     func(c *Config) { c.HeartbeatInterval = -1 },
	})
	r := dialService(t, f, 2)

	ids := f.g.All()
	type result struct {
		vals [][]float32
		errs []error
	}
	got := make(chan result, 1)
	go func() {
		vals, errs := r.ReadBlocks(context.Background(), ids)
		got <- result{vals, errs}
	}()
	// 64 blocks × 3ms of injected latency: the batch is still in flight.
	waitFor(t, 2*time.Second, "request to be in flight", func() bool {
		return f.srv.Snapshot().Requests >= 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.srv.Drain(ctx); err != nil {
		t.Fatalf("Drain = %v, want nil (in-flight work fits the deadline)", err)
	}

	res := <-got
	for i, err := range res.errs {
		if err != nil {
			t.Fatalf("in-flight block %d failed across drain: %v", ids[i], err)
		}
		if res.vals[i] == nil {
			t.Fatalf("in-flight block %d missing after drain", ids[i])
		}
	}
	if st := f.srv.Snapshot(); st.GoawaysSent == 0 {
		t.Errorf("server sent no GOAWAY during drain: %+v", st)
	}
	if st := r.Snapshot(); st.GoawaysReceived == 0 {
		t.Errorf("client saw no GOAWAY during drain: %+v", st)
	}

	// The server is gone now; fresh work must degrade, not hang.
	_, errs := r.ReadBlocks(context.Background(), ids[:2])
	for i, err := range errs {
		if err == nil || !faultio.Retryable(err) {
			t.Fatalf("post-drain errs[%d] = %v, want retryable", i, err)
		}
	}
}

// dialRoutes routes each replica address to its own in-process dialer, the
// way cluster_test.go's dialAddr routes topology addresses.
func dialRoutes(routes map[string]dialFunc) dialFunc {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		dial, ok := routes[addr]
		if !ok {
			return nil, fmt.Errorf("unknown address %q", addr)
		}
		return dial(ctx, addr)
	}
}

// twoReplicas builds two independent fixtures serving identical data and a
// client configured with both as endpoints.
func twoReplicas(t *testing.T, mutate func(*Config), cc ClientConfig) (fa, fb *svcFixture, r *RemoteReader) {
	t.Helper()
	fa = startService(t, svcOpts{mutate: mutate})
	fb = startService(t, svcOpts{mutate: mutate})
	cc.Endpoints = []string{"replica-a", "replica-b"}
	cc.Dial = dialRoutes(map[string]dialFunc{"replica-a": fa.lis.Dial, "replica-b": fb.lis.Dial})
	r, err := Dial(cc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return fa, fb, r
}

// TestFailoverOnServerKill: with two replicas, killing the one currently
// serving must re-route the batch to the survivor with zero caller-visible
// errors.
func TestFailoverOnServerKill(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	fa, _, r := twoReplicas(t,
		func(c *Config) { c.HeartbeatInterval = -1 },
		ClientConfig{Conns: 2, Retry: fastRetry(2), newBreaker: quickBreaker(2, 20*time.Millisecond)})

	ids := f64ids(r)
	if _, errs := r.ReadBlocks(context.Background(), ids); anyErr(errs) != nil {
		t.Fatalf("warm-up read failed: %v", anyErr(errs))
	}

	fa.lis.Close()
	fa.srv.Close()

	for round := 0; round < 3; round++ {
		vals, errs := r.ReadBlocks(context.Background(), ids)
		if err := anyErr(errs); err != nil {
			t.Fatalf("round %d after kill: %v", round, err)
		}
		for i := range vals {
			if vals[i] == nil {
				t.Fatalf("round %d: block %d missing", round, ids[i])
			}
		}
	}
	if st := r.Snapshot(); st.Failovers == 0 {
		t.Errorf("no failovers recorded after killing the serving replica: %+v", st)
	}
}

func f64ids(r *RemoteReader) []grid.BlockID { return r.g.All() }

func anyErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TestBreakerOpensAndRecovers: with the only endpoint dead the breaker must
// open (fast-fail instead of dialing every batch), and once the server is
// back a half-open probe must close it again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := startService(t, svcOpts{mutate: func(c *Config) { c.HeartbeatInterval = -1 }})
	var lis atomic.Pointer[testutil.PipeListener]
	lis.Store(f.lis)
	dial := func(ctx context.Context, addr string) (net.Conn, error) { return lis.Load().Dial(ctx, addr) }

	r, err := Dial(ClientConfig{
		Dial:       dial,
		Conns:      1,
		Retry:      fastRetry(1),
		newBreaker: quickBreaker(2, 30*time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ids := []grid.BlockID{0, 1, 2}

	f.lis.Close()
	f.srv.Close()

	// First batch: the pooled conn tears, the redial fails — two breaker
	// failures at threshold 2 open the circuit.
	if _, errs := r.ReadBlocks(context.Background(), ids); anyErr(errs) == nil {
		t.Fatal("read succeeded against a dead server")
	}
	waitFor(t, time.Second, "breaker to open", func() bool {
		return r.Snapshot().BreakerOpens >= 1
	})
	// While open, batches fail fast without dialing.
	dialsBefore := r.Snapshot().Dials
	_, errs := r.ReadBlocks(context.Background(), ids)
	if err := anyErr(errs); err == nil || !faultio.Retryable(err) {
		t.Fatalf("open-breaker error = %v, want retryable fast-fail", err)
	}
	if d := r.Snapshot().Dials; d != dialsBefore {
		t.Errorf("open breaker still dialed: %d -> %d", dialsBefore, d)
	}

	// Bring the endpoint back on a fresh listener behind the same dial func.
	srv2, err := NewServer(Config{Cache: f.cache, Grid: f.g, Header: f.bf.Header(),
		HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	lis2 := testutil.NewPipeListener()
	t.Cleanup(func() { lis2.Close(); srv2.Close() })
	go srv2.Serve(lis2)
	lis.Store(lis2)

	// After the backoff a half-open probe must get through and close the
	// breaker. The first post-backoff batch may race the window edge, so
	// poll with small batches.
	waitFor(t, 3*time.Second, "breaker to close via a probe", func() bool {
		vals, errs := r.ReadBlocks(context.Background(), ids)
		if anyErr(errs) != nil {
			return false
		}
		for i := range vals {
			if vals[i] == nil {
				return false
			}
		}
		return r.Snapshot().BreakerCloses >= 1
	})
	st := r.Snapshot()
	if st.BreakerProbes == 0 {
		t.Errorf("recovery happened without a recorded probe: %+v", st)
	}
}

// TestChecksumFaultsDontFailover: replica A's wire corrupts every data
// frame (netchaos on the server side of the conn, so only server→client
// payload frames are big enough to corrupt). Checksum faults are answered
// faults — proof the endpoint is alive — so the client must NOT fail over
// to replica B, must not open A's breaker, and must surface every block as
// a retryable checksum error.
func TestChecksumFaultsDontFailover(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	fa := startService(t, svcOpts{mutate: func(c *Config) {
		c.HeartbeatInterval = -1
		c.runBytes = 2048 // one 2KB block per frame
	}})
	fb := startService(t, svcOpts{mutate: func(c *Config) { c.HeartbeatInterval = -1 }})

	// CorruptMinBytes spares the small handshake/done/error frames; the only
	// writes ≥1KB are the per-block data frames. The seed is pinned so every
	// flip lands in block payload or CRC bytes (a flip in the 24-byte frame
	// prelude would desync the stream and read as a torn conn instead).
	ch := netchaos.New(netchaos.Config{Seed: 12, CorruptRate: 1, CorruptMinBytes: 1024})
	lisA := testutil.NewPipeListener()
	t.Cleanup(func() { lisA.Close() })
	go fa.srv.Serve(ch.Listener(lisA))

	r, err := Dial(ClientConfig{
		Endpoints:  []string{"corrupt-a", "clean-b"},
		Dial:       dialRoutes(map[string]dialFunc{"corrupt-a": lisA.Dial, "clean-b": fb.lis.Dial}),
		Conns:      1,
		Retry:      fastRetry(1),
		newBreaker: quickBreaker(2, breakerBackoff),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ids := r.g.All()
	vals, errs := r.ReadBlocks(context.Background(), ids)
	for i := range ids {
		if vals[i] != nil {
			t.Fatalf("block %d survived a corrupted wire", ids[i])
		}
		if !errors.Is(errs[i], faultio.ErrChecksum) || !faultio.Retryable(errs[i]) {
			t.Fatalf("errs[%d] = %v, want retryable checksum fault", i, errs[i])
		}
	}
	st := r.Snapshot()
	if st.Failovers != 0 {
		t.Errorf("checksum faults triggered %d failovers; they must not", st.Failovers)
	}
	if st.TransportErrors != 0 {
		t.Errorf("corruption read as %d torn conns — flips hit frame framing; "+
			"re-pin the netchaos seed", st.TransportErrors)
	}
	if st.BreakerOpens != 0 {
		t.Errorf("checksum faults opened the breaker: %+v", st)
	}
	if int(st.ChecksumErrors) != len(ids) {
		t.Errorf("ChecksumErrors = %d, want %d", st.ChecksumErrors, len(ids))
	}
}

// countedConn counts idempotent closes so the test can prove every opened
// conn is closed exactly once regardless of how Close races acquire/release.
type countedConn struct {
	net.Conn
	once sync.Once
	n    *atomic.Int64
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.n.Add(1) })
	return c.Conn.Close()
}

// TestCloseConcurrentWithReads is the regression test for the idle-pool
// shutdown race: Close concurrent with acquire/release must never lose a
// connection (socket leak) and must fail in-flight batches cleanly.
func TestCloseConcurrentWithReads(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := startService(t, svcOpts{mutate: func(c *Config) { c.HeartbeatInterval = -1 }})
	ids := []grid.BlockID{0, 1, 2, 3}

	for round := 0; round < 15; round++ {
		var opened, closed atomic.Int64
		dial := func(ctx context.Context, addr string) (net.Conn, error) {
			c, err := f.lis.Dial(ctx, addr)
			if err != nil {
				return nil, err
			}
			opened.Add(1)
			return &countedConn{Conn: c, n: &closed}, nil
		}
		r, err := Dial(ClientConfig{Dial: dial, Conns: 4, Retry: fastRetry(1)})
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					_, errs := r.ReadBlocks(context.Background(), ids)
					if anyErr(errs) != nil {
						return // reader closed under us — expected
					}
				}
			}()
		}
		time.Sleep(time.Duration(round%4) * time.Millisecond)
		r.Close()
		wg.Wait()
		if opened.Load() != closed.Load() {
			t.Fatalf("round %d leaked connections: opened %d, closed %d",
				round, opened.Load(), closed.Load())
		}
	}
}
