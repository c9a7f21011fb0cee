package blocksvc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/vec"
)

// ClientConfig configures a RemoteReader. Every address it names — Addr,
// Endpoints, the ShardMap's, and those of maps pushed later — must serve
// the same volume (geometry is validated against the first welcome).
type ClientConfig struct {
	// Addr is the server's address. Ignored when Endpoints is set.
	Addr string
	// Endpoints lists the addresses of replicas of ONE shard in preference
	// order: requests go to the first healthy one, and a batch that fails
	// transiently mid-flight is re-issued transparently to the next, over
	// at most replicas + 1 connections. Empty means the single Addr.
	// Ignored when ShardMap is set.
	Endpoints []string
	// ShardMap, when non-nil, starts the client in cluster mode: blocks
	// route to their owning shard by consistent hash, each shard's address
	// list is its replica set (failing over exactly as Endpoints would
	// within one shard), and topology pushes from any server re-route live
	// traffic. A client started flat against a cluster node adopts the
	// cluster's map from the welcome and becomes a router transparently.
	ShardMap *shard.Map
	// Dial connects to one address, whichever of the above named it
	// (in-process transports, custom networks, tests). Nil means TCP.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Conns bounds the connection pool per shard (default 2). Each
	// connection multiplexes up to the server-granted number of tagged
	// requests, so concurrent batches share connections before new ones
	// are dialed.
	Conns int
	// Retry is the reconnect policy: how many times, and with what
	// backoff, a failed dial is retried before a request gives up on that
	// endpoint. Nil gets 4 attempts from 10ms doubling to 500ms.
	Retry *faultio.Retrier

	// Metrics, when non-nil, exposes the client's counters, request
	// latency histogram, and per-endpoint health (names under "client.",
	// documented in DESIGN.md §9). Nil disables the export; the ClientStats
	// snapshot is unaffected either way.
	Metrics *obs.Registry

	// newBreaker, when set, builds each endpoint's breaker in place of one
	// from the constants below; this package's tests use it to trip and
	// recover in milliseconds.
	newBreaker func() *breaker.Breaker
}

const (
	// dialTimeout bounds one connect-plus-handshake.
	dialTimeout = 5 * time.Second
	// An endpoint's circuit breaker opens after breakerThreshold
	// consecutive transport failures. While open, the endpoint is skipped;
	// after breakerBackoff one probe per window is let through, and the
	// backoff doubles up to breakerMaxBackoff until a probe succeeds.
	breakerThreshold  = 3
	breakerBackoff    = 250 * time.Millisecond
	breakerMaxBackoff = 8 * time.Second
	// pipelineDepth caps how many tagged requests the client keeps in
	// flight per connection, within the server's advertised limit.
	pipelineDepth = 4
)

// dialTCP is the dialer a ClientConfig without Dial gets.
func dialTCP(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

func (c ClientConfig) withDefaults() ClientConfig {
	if len(c.Endpoints) == 0 {
		c.Endpoints = []string{c.Addr}
	}
	if c.Dial == nil {
		c.Dial = dialTCP
	}
	if c.Conns <= 0 {
		c.Conns = 2
	}
	if c.Retry == nil {
		c.Retry = &faultio.Retrier{
			MaxAttempts: 4,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    500 * time.Millisecond,
		}
	}
	if c.newBreaker == nil {
		c.newBreaker = func() *breaker.Breaker {
			return breaker.New(breakerThreshold, breakerBackoff, breakerMaxBackoff)
		}
	}
	return c
}

// ClientStats is a point-in-time read of the client's counters (see
// RemoteReader.Snapshot).
type ClientStats struct {
	Dials           int64 // successful connects (incl. reconnects)
	DialRetries     int64 // extra dial attempts beyond each first
	Requests        int64 // read batches issued (failover re-issues not re-counted)
	BlocksRequested int64
	BlocksServed    int64 // blocks answered with payloads
	RemoteFaults    int64 // blocks answered with fault statuses
	ShedRequests    int64 // requests refused by server admission control
	ChecksumErrors  int64 // payloads rejected by wire CRC verification
	TransportErrors int64 // torn connections (request failed mid-flight)
	BytesReceived   int64 // payload bytes received
	ViewUpdates     int64 // view messages sent
	Failovers       int64 // batches re-issued to a different endpoint
	GoawaysReceived int64 // drain announcements seen
	DeadPeers       int64 // idle connections torn down by a liveness timeout
	BreakerOpens    int64 // circuits opened (threshold hit or probe failed)
	BreakerProbes   int64 // half-open probes admitted
	BreakerCloses   int64 // circuits closed again by a healthy round trip
	Redirects       int64 // blocks answered "not owned here" by a cluster node
	Reroutes        int64 // blocks re-issued to a different shard after a redirect or topology change
	TopologyUpdates int64 // shard maps adopted (welcome or topology push)
}

// RemoteReader reads blocks from a block service: one server, a replica
// set, or a sharded cluster. It implements store.BlockReader, so it drops
// into a store.MemCache (and therefore ooc.Runtime) exactly where a local
// BlockFile would: a whole miss batch travels as tagged requests, returns
// per-block results, and — with cache recycling on — decodes into buffers
// evicted earlier instead of allocating.
//
// In cluster mode (a ShardMap configured, or learned from a cluster node's
// welcome) the reader is a router: a batch is partitioned by consistent-
// hash owner and the per-shard subsets are issued to their shards in
// parallel, each through that shard's own replica pool with the same
// pipelining, circuit breakers, and scoped failover a flat reader has. A
// topology push re-routes live traffic: requests in flight to a departing
// shard fail transiently, are cleared, and re-issue to the new owner;
// blocks a node answers with a redirect re-route the same way.
//
// Connections are multiplexed: each carries up to the server-granted
// number of concurrently tagged requests (at most pipelineDepth), a
// dedicated read loop demultiplexes out-of-order responses by tag, and
// concurrent batches share a connection before a new one is dialed.
//
// Liveness is the server's: it pings every connection at the heartbeat
// interval its welcome advertises, the read loop answers each ping, and any
// inbound frame renews the connection's read deadline of twice the
// interval — so a mute or dead server is caught by that deadline, and a
// stalled client→server path by the pong's write deadline.
//
// Failure handling follows the faultio classes: a torn connection or a
// shed response sends a batch's unanswered blocks to the next healthy
// endpoint of the same shard — blocks already answered before the tear are
// kept — per-endpoint circuit breakers keep dead replicas from being
// redialed in the hot path, and a GOAWAY drains an endpoint without
// failing anything. Per-block answers — including checksum faults — never
// trigger failover: an endpoint that answers is healthy, even when its
// answers are errors. Safe for concurrent use.
type RemoteReader struct {
	cfg ClientConfig
	m   *clientMetrics

	header store.Header
	g      *grid.Grid

	connWG sync.WaitGroup // read loops of live connections

	// topo is the current routing table, swapped atomically on adoption;
	// mu serializes adoptions and Close against each other (and guards the
	// geometry learned from the first welcome).
	topo   atomic.Pointer[topology]
	closed atomic.Bool
	mu     sync.Mutex

	bufs store.BufPool // recycled decode buffers (fed via RecycleBlockBuf)

	reqMu    sync.Mutex
	freeReqs []*pendingReq // spent request records, at most maxFreeReqs
	freeIdx  [][]int       // spent ReadBlocks index slices, at most maxFreeReqs
}

var _ store.BlockReader = (*RemoteReader)(nil)

// topology is one immutable routing table: the adopted map (nil for a flat
// replica config), its ring, and one connection group per shard. Swapped
// whole on adoption; groups surviving a swap carry their connections and
// breaker state across.
type topology struct {
	m      *shard.Map // nil = flat single-shard config
	ring   *shard.Ring
	groups []*shardGroup
}

// ownerGroup routes a block to its owning shard's group.
func (t *topology) ownerGroup(id grid.BlockID) *shardGroup {
	if t.ring == nil || len(t.groups) == 1 {
		return t.groups[0]
	}
	return t.groups[t.ring.OwnerBlock(id)]
}

// Dial connects to a block service and learns the served geometry from its
// welcome; with multiple endpoints, the first reachable one wins. The
// remaining pool connections — and in cluster mode the other shards'
// pools — are established lazily as requests need them. A welcome carrying
// a shard map (cluster servers) is adopted immediately, so a flat config
// pointed at one cluster node discovers the whole cluster.
func Dial(cfg ClientConfig) (*RemoteReader, error) {
	cfg = cfg.withDefaults()
	if cfg.ShardMap != nil {
		if err := cfg.ShardMap.Validate(); err != nil {
			return nil, fmt.Errorf("blocksvc: shard map: %w", err)
		}
		cfg.ShardMap = cfg.ShardMap.Clone()
	}
	r := &RemoteReader{cfg: cfg}
	var topo *topology
	if cfg.ShardMap != nil {
		topo = &topology{m: cfg.ShardMap, ring: cfg.ShardMap.Ring()}
		for _, sh := range cfg.ShardMap.Shards {
			topo.groups = append(topo.groups, r.newGroup(sh.ID, sh.Addrs))
		}
	} else {
		topo = &topology{}
		topo.groups = append(topo.groups, r.newGroup("0", cfg.Endpoints))
	}
	r.topo.Store(topo)
	r.m = newClientMetrics(cfg.Metrics)
	neps := 0
	for _, g := range topo.groups {
		r.m.registerGroup(g)
		neps += len(g.eps)
	}
	ctx, cancel := context.WithTimeout(context.Background(),
		time.Duration(neps)*dialTimeout)
	defer cancel()
	var conn *rconn
	var err error
dial:
	for _, g := range topo.groups {
		g.mu.Lock()
		g.nconns++
		g.mu.Unlock()
		for _, ep := range g.eps {
			if conn, err = r.connect(ctx, g, ep); err == nil {
				break dial
			}
		}
		g.mu.Lock()
		g.nconns--
		g.mu.Unlock()
	}
	if conn == nil {
		// No connection came up, so no map was adopted: topo is the
		// topology whose names were registered.
		for _, g := range topo.groups {
			r.m.unregisterGroup(g)
		}
		return nil, err
	}
	return r, nil
}

// Header returns the served volume's header (from the welcome message).
func (r *RemoteReader) Header() store.Header { return r.header }

// Topology returns the currently adopted shard map, nil for a flat
// replica configuration.
func (r *RemoteReader) Topology() *shard.Map {
	return r.topo.Load().m
}

// getBuf returns a decode buffer of exactly n floats, reusing a recycled
// one when available.
func (r *RemoteReader) getBuf(n int) []float32 {
	buf, _ := r.bufs.Get(n)
	return buf
}

// RecycleBlockBuf hands a block buffer back for reuse by a later response
// decode: a MemCache with recycling enabled feeds evicted blocks here,
// closing the loop so a steady miss stream decodes into evicted memory
// instead of allocating. The caller must no longer read the buffer.
func (r *RemoteReader) RecycleBlockBuf(vals []float32) { r.bufs.Put(vals) }

// adoptMap installs a newer cluster topology: higher epochs win, equal or
// older ones are ignored. Groups whose shard ID and replica addresses are
// unchanged carry their connections and breaker state across the swap;
// dropped groups are retired — their conns torn down, which fails the
// tags in flight to them transiently so those batches re-route to the new
// owners — and fresh groups start cold, dialed on demand.
func (r *RemoteReader) adoptMap(m *shard.Map) bool {
	if m == nil || m.Validate() != nil {
		return false
	}
	r.mu.Lock()
	if r.closed.Load() {
		r.mu.Unlock()
		return false
	}
	cur := r.topo.Load()
	if cur.m != nil && m.Epoch <= cur.m.Epoch {
		r.mu.Unlock()
		return false
	}
	m = m.Clone()
	reuse := make(map[string]*shardGroup, len(cur.groups))
	for _, g := range cur.groups {
		reuse[g.key] = g
	}
	nt := &topology{m: m, ring: m.Ring(), groups: make([]*shardGroup, len(m.Shards))}
	used := make(map[*shardGroup]bool, len(cur.groups))
	var fresh []*shardGroup
	for i, sh := range m.Shards {
		if g := reuse[groupKey(sh.ID, sh.Addrs)]; g != nil && !used[g] {
			used[g] = true
			nt.groups[i] = g
			continue
		}
		g := r.newGroup(sh.ID, sh.Addrs)
		nt.groups[i] = g
		fresh = append(fresh, g)
	}
	var retired []*shardGroup
	for _, g := range cur.groups {
		if !used[g] {
			retired = append(retired, g)
		}
	}
	// Retire old metric names before registering replacements that may
	// reuse a shard ID, so /debug/metrics never shows stale nodes.
	for _, g := range retired {
		r.m.unregisterGroup(g)
	}
	for _, g := range fresh {
		r.m.registerGroup(g)
	}
	r.topo.Store(nt)
	r.mu.Unlock()
	r.m.topologyUpdates.Inc()
	for _, g := range retired {
		g.retire()
	}
	for _, g := range nt.groups {
		g.wake()
	}
	return true
}

// Close tears down every connection and retires the per-endpoint metric
// names. In-flight requests fail transiently; new requests fail
// permanently.
func (r *RemoteReader) Close() error {
	r.mu.Lock()
	if r.closed.Load() {
		r.mu.Unlock()
		return nil
	}
	r.closed.Store(true)
	r.mu.Unlock()
	// No map is adopted once closed is set, so this is the last topology.
	for _, g := range r.topo.Load().groups {
		g.retire()
		r.m.unregisterGroup(g)
	}
	r.connWG.Wait()
	return nil
}

// Snapshot reads the client's counters. Each field is read atomically; the
// fields are not a consistent cut across each other.
func (r *RemoteReader) Snapshot() ClientStats { return r.m.snapshot() }

// ReadBlock implements store.BlockReader: a batch of one.
func (r *RemoteReader) ReadBlock(id grid.BlockID) ([]float32, error) {
	vals, errs := r.ReadBlocks(context.Background(), []grid.BlockID{id})
	return vals[0], errs[0]
}

// maxRoutePasses bounds how many times one batch may be re-routed across
// topology changes and redirects. A stale client catches up in one pass
// once a newer map arrives; the bound only stops a redirect ping-pong
// between nodes that persistently disagree (the leftover redirect errors
// surface as transient faults for the retry layers above).
const maxRoutePasses = 4

// isRedirect reports whether err is a cluster node's "not owned here"
// answer.
func isRedirect(err error) bool {
	var re *redirectError
	return errors.As(err, &re)
}

// ReadBlocks implements store.BlockReader: the batch is partitioned
// by shard owner (one partition in flat mode), each partition travels as
// tagged request frames on the owning shard's connections — shards issued
// in parallel — and the servers stream back per-block results that each
// connection's read loop demultiplexes (the store's merged sequential
// reads happen server-side).
//
// A transport failure or shed mid-batch re-issues the unanswered blocks to
// the next healthy replica of the same shard — blocks already answered are
// kept, including those of a tag torn mid-response — until the partition
// completes or replicas + 1 connections have been tried. Blocks a node
// answers with a redirect, and blocks whose shard failed while leaving the
// topology, re-route to their owner under the newest adopted map (at most
// maxRoutePasses times); only then do the remaining blocks fail with a
// transient fault for the retry layers above.
func (r *RemoteReader) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	vals := make([][]float32, len(ids))
	errs := make([]error, len(ids))
	if err := ctx.Err(); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return vals, errs
	}
	r.m.requests.Inc()
	r.m.blocksRequested.Add(int64(len(ids)))
	// End-to-end batch latency: acquire through last done frame, every
	// outcome (served, shed, torn, failed over, re-routed) included.
	reqStart := time.Now()
	defer func() { r.m.requestNs.Observe(time.Since(reqStart).Nanoseconds()) }()

	pending := r.takeIdx(len(ids))
	defer r.putIdx(pending)
	for i := range pending {
		pending[i] = i
	}
	for pass := 1; ; pass++ {
		topo := r.topo.Load()
		if len(topo.groups) == 1 {
			r.readGroup(ctx, topo.groups[0], ids, vals, errs, pending)
		} else {
			parts := make([][]int, len(topo.groups))
			for _, i := range pending {
				o := topo.ring.OwnerBlock(ids[i])
				parts[o] = append(parts[o], i)
			}
			var wg sync.WaitGroup
			for gi := range parts {
				if len(parts[gi]) == 0 {
					continue
				}
				wg.Add(1)
				go func(g *shardGroup, part []int) {
					defer wg.Done()
					// Partitions are disjoint index sets, so the parallel
					// fills of vals/errs never touch the same element.
					r.readGroup(ctx, g, ids, vals, errs, part)
				}(topo.groups[gi], parts[gi])
			}
			wg.Wait()
		}
		// Re-route what this pass could not finish: redirects always (the
		// addressed node told us it is not the owner), and transiently
		// failed blocks whose owner changed under a topology adopted while
		// the pass ran (their shard left; the new owner has them).
		after := r.topo.Load()
		var retry []int
		for i := range ids {
			e := errs[i]
			if vals[i] != nil || e == nil {
				continue
			}
			if isRedirect(e) {
				retry = append(retry, i)
				continue
			}
			if after != topo && faultio.Retryable(e) &&
				topo.ownerGroup(ids[i]) != after.ownerGroup(ids[i]) {
				retry = append(retry, i)
			}
		}
		if len(retry) == 0 || pass >= maxRoutePasses || ctx.Err() != nil {
			return vals, errs
		}
		for _, i := range retry {
			errs[i] = nil
		}
		pending = retry
		r.m.reroutes.Add(int64(len(retry)))
	}
}

// takeIdx returns an index slice of n from the free list, or a new one.
func (r *RemoteReader) takeIdx(n int) []int {
	r.reqMu.Lock()
	defer r.reqMu.Unlock()
	if k := len(r.freeIdx); k > 0 {
		idx := r.freeIdx[k-1]
		r.freeIdx = r.freeIdx[:k-1]
		if cap(idx) >= n {
			return idx[:n]
		}
	}
	return make([]int, n)
}

// putIdx returns a ReadBlocks index slice to the free list.
func (r *RemoteReader) putIdx(idx []int) {
	r.reqMu.Lock()
	if len(r.freeIdx) < maxFreeReqs {
		r.freeIdx = append(r.freeIdx, idx)
	}
	r.reqMu.Unlock()
}

// SendView tells the servers where this session's camera is, driving each
// one's predictive prefetch into its shared cache. The hint goes on one
// live connection of every shard that has one — in cluster mode each node
// prefetches only the blocks it owns — whatever its request slots hold, so
// a view never waits behind reads; only when no connection is live does it
// dial the first shard. Best-effort: an error only means the hint was lost.
func (r *RemoteReader) SendView(ctx context.Context, pos vec.V3) error {
	topo := r.topo.Load()
	sent := 0
	var lastErr error
	for _, g := range topo.groups {
		rc := g.liveConn()
		if rc == nil {
			continue
		}
		if err := rc.sendView(pos); err != nil {
			lastErr = err
			continue
		}
		sent++
	}
	if sent == 0 {
		if lastErr != nil {
			return lastErr
		}
		rc, _, err := r.acquire(ctx, topo.groups[0], nil, 0)
		if err != nil {
			return err
		}
		if err := rc.sendView(pos); err != nil {
			return err
		}
	}
	r.m.viewUpdates.Inc()
	return nil
}
