package blocksvc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/entropy"
	"repro/internal/grid"
	"repro/internal/ooc"
	"repro/internal/radius"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/vec"
	"repro/internal/visibility"
	"repro/internal/volume"
)

// clusterNode is one shard of an in-process cluster: its own counting
// backing reader, its own shared cache, and its own server + listener.
type clusterNode struct {
	id    string
	addr  string
	count *countingReader
	cache *store.MemCache
	srv   *Server
	lis   *testutil.PipeListener
}

// clusterFixture is an N-shard in-process cluster over one dataset. Every
// node opens the same block file through its own countingReader, so the
// per-shard singleflight invariant ("exactly one backing read per block on
// its owning shard") is observable per node.
type clusterFixture struct {
	g     *grid.Grid
	bf    *store.BlockFile
	m     *shard.Map
	ring  *shard.Ring
	vis   *visibility.Table
	imp   *entropy.Table
	nodes map[string]*clusterNode // keyed by topology address
	order []*clusterNode          // map order: order[i] serves m.Shards[i]
}

// dialAddr routes topology addresses to the in-process listeners — the
// ClientConfig.Dial hook for cluster clients.
func (f *clusterFixture) dialAddr(ctx context.Context, addr string) (net.Conn, error) {
	n, ok := f.nodes[addr]
	if !ok {
		return nil, fmt.Errorf("cluster_test: unknown address %q", addr)
	}
	return n.lis.Dial(ctx, addr)
}

// kill simulates a node crash: the listener and server go down hard, every
// session conn is cut mid-flight.
func (n *clusterNode) kill() {
	n.lis.Close()
	n.srv.Close()
}

// startCluster builds a cluster of len(ids) shards over the ball dataset.
// Each shard gets one topology address ("node:<id>").
func startCluster(t testing.TB, ids []string, mutate func(*Config)) *clusterFixture {
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

	f := &clusterFixture{g: g, bf: bf, nodes: make(map[string]*clusterNode)}
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

	f.m = &shard.Map{Epoch: 1, Seed: 42, VNodes: shard.DefaultVNodes}
	for _, id := range ids {
		f.m.Shards = append(f.m.Shards, shard.Shard{ID: id, Addrs: []string{"node:" + id}})
	}
	if err := f.m.Validate(); err != nil {
		t.Fatal(err)
	}
	f.ring = f.m.Ring()

	capacity := int64(g.NumBlocks()) * bf.BlockBytes(0)
	for _, id := range ids {
		n := &clusterNode{id: id, addr: "node:" + id}
		n.count = newCountingReader(bf)
		n.cache, err = store.NewMemCache(n.count, capacity, cache.NewLRU())
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Cache: n.cache, Grid: g, Header: bf.Header(),
			ShardMap: f.m, ShardID: id,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		n.srv, err = NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.lis = testutil.NewPipeListener()
		go n.srv.Serve(n.lis)
		t.Cleanup(func() {
			n.lis.Close()
			n.srv.Close()
		})
		f.nodes[n.addr] = n
		f.order = append(f.order, n)
	}
	return f
}

// dialCluster connects a routing RemoteReader to the whole cluster.
func dialCluster(t testing.TB, f *clusterFixture, conns int) *RemoteReader {
	t.Helper()
	r, err := Dial(ClientConfig{
		ShardMap: f.m,
		Dial:     f.dialAddr,
		Conns:    conns,
		Retry:    fastRetry(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// assertShardReads checks the per-shard singleflight/ownership invariant:
// no node read any block from the backing store more than once, and (when
// a ring is given) no node read a block it does not own under that ring.
func assertShardReads(t *testing.T, f *clusterFixture, ring *shard.Ring) {
	t.Helper()
	for i, n := range f.order {
		n.count.mu.Lock()
		for id, c := range n.count.reads {
			if c > 1 {
				t.Errorf("shard %s read block %d from the backing store %d times", n.id, id, c)
			}
			if ring != nil && ring.OwnerBlock(id) != i {
				t.Errorf("shard %s read block %d it does not own (owner %d)",
					n.id, id, ring.OwnerBlock(id))
			}
		}
		n.count.mu.Unlock()
	}
}

// TestClusterRoutingValuesMatchLocal reads the whole dataset through a
// 3-shard cluster and compares voxel-for-voxel with direct file reads: the
// router must split the batch by owner, each shard must serve exactly its
// owned blocks, and no shard may touch the backing store twice per block.
func TestClusterRoutingValuesMatchLocal(t *testing.T) {
	f := startCluster(t, []string{"a", "b", "c"}, nil)
	r := dialCluster(t, f, 2)

	if got := r.Topology(); got == nil || got.Epoch != 1 || len(got.Shards) != 3 {
		t.Fatalf("client topology = %+v, want the 3-shard epoch-1 map", got)
	}
	ids := f.g.All()
	vals, errs := r.ReadBlocks(context.Background(), ids)
	for i, id := range ids {
		if errs[i] != nil {
			t.Fatalf("block %d: %v", id, errs[i])
		}
		want, err := f.bf.ReadBlock(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals[i]) != len(want) {
			t.Fatalf("block %d: %d values, want %d", id, len(vals[i]), len(want))
		}
		for j := range want {
			if vals[i][j] != want[j] {
				t.Fatalf("block %d voxel %d: %v != %v", id, j, vals[i][j], want[j])
			}
		}
	}
	assertShardReads(t, f, f.ring)
	// Every shard that owns at least one block must have been asked.
	for i, n := range f.order {
		owns := false
		for _, id := range ids {
			if f.ring.OwnerBlock(id) == i {
				owns = true
				break
			}
		}
		if st := n.srv.Snapshot(); owns && st.BlocksOK == 0 {
			t.Errorf("shard %s owns blocks but served none", n.id)
		}
	}
	if st := r.Snapshot(); st.Reroutes != 0 || st.Redirects != 0 {
		t.Errorf("steady-state cluster read rerouted: %+v", st)
	}
}

// TestClusterRedirectWire pins the redirect answer on the wire: a raw
// client asking one node for the whole dataset gets statusOK for
// the node's owned blocks and a statusRedirect entry carrying the current
// epoch for everything else — and the welcome itself carries the map.
func TestClusterRedirectWire(t *testing.T) {
	f := startCluster(t, []string{"a", "b", "c"}, func(c *Config) {
		c.HeartbeatInterval = -1
	})
	n := f.order[0]
	conn, err := n.lis.Dial(context.Background(), "")
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
	br := bufio.NewReader(conn)
	typ, payload, err := readFrame(br, nil)
	if err != nil || typ != msgWelcome {
		t.Fatalf("welcome: typ=%d err=%v", typ, err)
	}
	w, ok := decodeWelcome(payload)
	if !ok {
		t.Fatal("welcome did not decode")
	}
	if w.ShardMap == nil || w.ShardMap.Epoch != 1 || len(w.ShardMap.Shards) != 3 {
		t.Fatalf("welcome shard map = %+v, want the 3-shard epoch-1 map", w.ShardMap)
	}

	ids := f.g.All()
	var req enc
	req.u64(7)
	req.u32(0)
	req.u32(uint32(len(ids)))
	for _, id := range ids {
		req.u32(uint32(id))
	}
	if err := writeFrame(conn, msgRead, req.b); err != nil {
		t.Fatal(err)
	}
	// Every blocks frame goes through the client's own parser, which holds
	// each payload against its trailing CRC.
	feed := newBlocksFeed(t, f.g, 7, ids)
	for {
		typ, payload, err := readFrame(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		if typ == msgDone {
			break
		}
		if typ != msgBlocks {
			t.Fatalf("unexpected frame type %d", typ)
		}
		if err := feed.read(t, frameBytes(t, msgBlocks, payload)); err != nil {
			t.Fatalf("blocks frame did not parse cleanly: %v", err)
		}
	}
	var okBlocks, redirBlocks int
	for k, id := range ids {
		owned := f.ring.OwnerBlock(id) == 0
		var re *redirectError
		switch err := feed.p.errs[k]; {
		case feed.p.vals[k] != nil:
			if !owned {
				t.Fatalf("block %d served by shard a, owner is %d", id, f.ring.OwnerBlock(id))
			}
			okBlocks++
		case errors.As(err, &re):
			if owned {
				t.Fatalf("block %d redirected by its own owner", id)
			}
			if re.epoch != 1 {
				t.Fatalf("block %d redirect epoch = %d, want 1", id, re.epoch)
			}
			redirBlocks++
		default:
			t.Fatalf("block %d: %v", id, err)
		}
	}
	if okBlocks == 0 || redirBlocks == 0 {
		t.Fatalf("ok=%d redirected=%d: want both kinds", okBlocks, redirBlocks)
	}
	if okBlocks+redirBlocks != len(ids) {
		t.Fatalf("answered %d blocks, want %d", okBlocks+redirBlocks, len(ids))
	}
	// Redirected blocks never touch the cache or the backing store.
	assertShardReads(t, f, f.ring)
	if st := n.srv.Snapshot(); st.Redirects != int64(redirBlocks) {
		t.Errorf("server Redirects = %d, want %d", st.Redirects, redirBlocks)
	}
}

// TestClusterStaleClientConvergesViaWelcome: a client dialed with an
// out-of-date map (older epoch, wrong ownership) must adopt the cluster's
// current map from the welcome and route correctly from then on.
func TestClusterStaleClientConvergesViaWelcome(t *testing.T) {
	f := startCluster(t, []string{"a", "b", "c"}, nil)
	// Same nodes, older epoch, different seed: every lookup disagrees with
	// the cluster's actual ownership — but the true map has Epoch 1, so the
	// stale one must be older than that. Build it as epoch 0.
	stale := f.m.Clone()
	stale.Epoch = 0
	stale.Seed = 999

	r, err := Dial(ClientConfig{
		ShardMap: stale,
		Dial:     f.dialAddr,
		Conns:    1,
		Retry:    fastRetry(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })

	if got := r.Topology(); got == nil || got.Epoch != 1 || got.Seed != 42 {
		t.Fatalf("client topology after dial = %+v, want the welcome's epoch-1 map", got)
	}
	ids := f.g.All()
	_, errs := r.ReadBlocks(context.Background(), ids)
	for i, id := range ids {
		if errs[i] != nil {
			t.Fatalf("block %d: %v", id, errs[i])
		}
	}
	assertShardReads(t, f, f.ring)
	if st := r.Snapshot(); st.TopologyUpdates == 0 {
		t.Errorf("client adopted no topology: %+v", st)
	}
}

// TestClusterDrainHandoffWire pins Drain's cluster behavior on the wire: a
// draining node pushes the survivor topology (itself removed, epoch
// bumped) BEFORE the GOAWAY, so clients re-route before they see the
// shutdown notice.
func TestClusterDrainHandoffWire(t *testing.T) {
	f := startCluster(t, []string{"a", "b"}, func(c *Config) {
		c.HeartbeatInterval = -1
	})
	n := f.order[0]
	conn, err := n.lis.Dial(context.Background(), "")
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
	br := bufio.NewReader(conn)
	if typ, _, err := readFrame(br, nil); err != nil || typ != msgWelcome {
		t.Fatalf("welcome: typ=%d err=%v", typ, err)
	}
	// An empty read answered by its done proves the server's session loop
	// is running — the session is fully registered for broadcasts before
	// we drain.
	var read enc
	read.u64(123)
	read.u32(0) // no deadline
	read.u32(0) // no ids
	if err := writeFrame(conn, msgRead, read.b); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(br, nil); err != nil || typ != msgDone {
		t.Fatalf("done: typ=%d err=%v", typ, err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- n.srv.Drain(ctx)
	}()

	typ, payload, err := readFrame(br, nil)
	if err != nil || typ != msgTopology {
		t.Fatalf("first drain frame: typ=%d err=%v, want topology before goaway", typ, err)
	}
	m, ok := decodeTopology(payload)
	if !ok {
		t.Fatal("handoff topology did not decode")
	}
	if m.Epoch != 2 || len(m.Shards) != 1 || m.Shards[0].ID != "b" {
		t.Fatalf("handoff map = %+v, want epoch-2 map without shard a", m)
	}
	typ, _, err = readFrame(br, nil)
	if err != nil || typ != msgGoaway {
		t.Fatalf("second drain frame: typ=%d err=%v, want goaway", typ, err)
	}
	conn.Close()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestClusterEndToEndRebalance is the capstone acceptance test: two
// concurrent ooc.Runtime sessions orbit a 3-shard cluster, one shard is
// retired mid-orbit by a topology push to the survivors and then killed,
// and through all of it every frame is error-free, every block is read
// from the backing store at most once per owning shard, and teardown leaks
// nothing.
func TestClusterEndToEndRebalance(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := startCluster(t, []string{"a", "b", "c"}, nil)

	const sessions = 2
	readers := make([]*RemoteReader, sessions)
	runtimes := make([]*ooc.Runtime, sessions)
	for s := 0; s < sessions; s++ {
		readers[s] = dialCluster(t, f, 2)
		mc, err := store.NewMemCache(readers[s],
			int64(f.g.NumBlocks())*f.bf.BlockBytes(0), cache.NewLRU())
		if err != nil {
			t.Fatal(err)
		}
		rt, err := ooc.New(mc, f.vis, f.imp, ooc.Options{Sigma: 0, Retry: fastRetry(8)})
		if err != nil {
			t.Fatal(err)
		}
		runtimes[s] = rt
	}

	theta := vec.Radians(20)
	path := camera.Orbit(3, 8)
	half := len(path.Steps) / 2
	// barrier parks both sessions at the halfway frame while the main
	// goroutine rebalances the cluster, so the kill is genuinely mid-orbit.
	var barrier sync.WaitGroup
	barrier.Add(1)
	var arrive sync.WaitGroup
	arrive.Add(sessions)

	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ctx := context.Background()
			for i, pos := range path.Steps {
				if i == half {
					arrive.Done()
					barrier.Wait()
				}
				visible := visibility.VisibleSet(f.g, camera.Camera{Pos: pos, ViewAngle: theta})
				data, rep, err := runtimes[s].Frame(ctx, pos, visible)
				if err != nil {
					t.Errorf("session %d frame %d: %v", s, i, err)
					return
				}
				if rep.Degraded {
					t.Errorf("session %d frame %d degraded: %+v", s, i, rep)
					return
				}
				for j := range data {
					if int64(len(data[j])) != f.g.VoxelCount(visible[j]) {
						t.Errorf("session %d block %d: %d values", s, visible[j], len(data[j]))
						return
					}
				}
			}
		}(s)
	}

	// Both sessions are parked at the halfway frame: retire shard c. The
	// survivors adopt the epoch-2 map and push it to every client; once
	// both clients have adopted it, kill the retired node hard and release
	// the orbit. Requests racing the kill re-route to the new owners.
	arrive.Wait()
	handoff := f.m.WithoutShard("c")
	for _, n := range f.order[:2] {
		if err := n.srv.updateShardMap(handoff); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range readers {
		for {
			if m := r.Topology(); m != nil && m.Epoch >= handoff.Epoch {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("client never adopted the rebalanced topology")
			}
			time.Sleep(time.Millisecond)
		}
	}
	f.order[2].kill()
	barrier.Done()
	wg.Wait()

	// Exactly-one backing read per block per owning shard, across both
	// halves of the orbit and the rebalance.
	assertShardReads(t, f, nil)
	total := 0
	for _, n := range f.order {
		_, reads := n.count.maxReads()
		total += reads
	}
	if total == 0 {
		t.Fatal("no backing-store reads at all")
	}
	// The survivors must not have read blocks they never owned: a block is
	// read on a shard only if that shard owned it under epoch 1 or epoch 2.
	ring2 := handoff.Ring()
	for i, n := range f.order[:2] {
		n.count.mu.Lock()
		for id := range n.count.reads {
			if f.ring.OwnerBlock(id) != i && ring2.OwnerBlock(id) != i {
				t.Errorf("shard %s read block %d it never owned", n.id, id)
			}
		}
		n.count.mu.Unlock()
	}
	for s := 0; s < sessions; s++ {
		st := readers[s].Snapshot()
		if st.TopologyUpdates == 0 {
			t.Errorf("session %d adopted no topology update: %+v", s, st)
		}
	}

	// Orderly shutdown; VerifyNoLeaks asserts every goroutine is gone.
	for s := 0; s < sessions; s++ {
		runtimes[s].Close()
		readers[s].Close()
	}
	for _, n := range f.order[:2] {
		n.lis.Close()
		n.srv.Close()
	}
}

// TestClusterFlatClientStaysFlat pins the non-cluster path: a flat
// client against a non-cluster server is sent no topology and stays one
// shard — single-shard deployments never touch the cluster machinery.
func TestClusterFlatClientStaysFlat(t *testing.T) {
	f := startService(t, svcOpts{})
	r := dialService(t, f, 2)
	if m := r.Topology(); m != nil {
		t.Fatalf("flat client has a topology: %+v", m)
	}
	if _, err := r.ReadBlock(0); err != nil {
		t.Fatal(err)
	}
	st := r.Snapshot()
	if st.Redirects != 0 || st.Reroutes != 0 || st.TopologyUpdates != 0 {
		t.Errorf("flat client touched cluster counters: %+v", st)
	}
}
