package blocksvc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/f32le"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/vec"
)

// Endpoint names one replica of a block service. All endpoints of a
// RemoteReader must serve the same volume (geometry is validated against
// the first welcome) and should share a heartbeat interval.
type Endpoint struct {
	// Addr is the replica's TCP address. Ignored when Dial is set.
	Addr string
	// Dial, when non-nil, replaces the default TCP dialer for this
	// endpoint (in-process transports, custom networks).
	Dial func(ctx context.Context) (net.Conn, error)
}

// ClientConfig configures a RemoteReader.
type ClientConfig struct {
	// Addr is the server's TCP address. Ignored when Dial or Endpoints is
	// set.
	Addr string
	// Dial, when non-nil, replaces the default TCP dialer (in-process
	// transports, custom networks). Ignored when Endpoints is set.
	Dial func(ctx context.Context) (net.Conn, error)
	// Endpoints lists replicas of ONE shard in preference order: requests
	// go to the first healthy one, and a batch that fails transiently
	// mid-flight is re-issued transparently to the next. Empty means the
	// single Addr/Dial endpoint. Ignored when ShardMap is set.
	Endpoints []Endpoint
	// ShardMap, when non-nil, starts the client in cluster mode: blocks
	// route to their owning shard by consistent hash, each shard's address
	// list is its replica set (failing over exactly as Endpoints would
	// within one shard), and topology pushes from any server re-route live
	// traffic. A client started flat against a cluster node adopts the
	// cluster's map from the welcome and becomes a router transparently.
	ShardMap *shard.Map
	// DialAddr, when non-nil, dials topology addresses — from ShardMap or
	// pushed maps — instead of TCP (in-process transports, tests). Flat
	// Endpoints with Addr set also route through it.
	DialAddr func(ctx context.Context, addr string) (net.Conn, error)
	// Conns bounds the connection pool per shard (default 2). Each
	// connection multiplexes up to the server-granted number of tagged
	// requests, so concurrent batches share connections before new ones
	// are dialed.
	Conns int
	// PipelineDepth caps how many tagged requests this client keeps in
	// flight per connection, within the server's advertised limit
	// (default 4).
	PipelineDepth int
	// Retry is the reconnect policy: how many times, and with what
	// backoff, a failed dial is retried before a request gives up on that
	// endpoint. Nil gets 4 attempts from 10ms doubling to 500ms.
	Retry *faultio.Retrier

	// HeartbeatInterval overrides the server-advertised liveness cadence:
	// 0 follows each server's welcome, negative disables client-side
	// liveness (no keepalive pings, no response-read deadlines). Replicas
	// are expected to agree on the cadence.
	HeartbeatInterval time.Duration
	// BreakerThreshold is how many consecutive transport failures open an
	// endpoint's circuit breaker (default 3). While open, the endpoint is
	// skipped; after BreakerBackoff one probe per window is let through,
	// and backoff doubles up to 8s until a probe succeeds.
	BreakerThreshold int
	BreakerBackoff   time.Duration // default 250ms
	// FailoverAttempts caps how many connections one batch may try within
	// a shard before failing its remaining blocks (default one more than
	// the shard's replica count).
	FailoverAttempts int

	// Metrics, when non-nil, exposes the client's counters, request
	// latency histogram, and per-endpoint health (names under "client.",
	// documented in DESIGN.md §9). Nil disables the export; the ClientStats
	// snapshot is unaffected either way.
	Metrics *obs.Registry
}

const (
	// dialTimeout bounds one connect-plus-handshake.
	dialTimeout = 5 * time.Second
	// breakerMaxBackoff caps an open endpoint breaker's doubling backoff.
	breakerMaxBackoff = 8 * time.Second
)

func (c ClientConfig) withDefaults() ClientConfig {
	if len(c.Endpoints) == 0 {
		c.Endpoints = []Endpoint{{Addr: c.Addr, Dial: c.Dial}}
	}
	if c.Conns <= 0 {
		c.Conns = 2
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 4
	}
	if c.Retry == nil {
		c.Retry = &faultio.Retrier{
			MaxAttempts: 4,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    500 * time.Millisecond,
		}
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerBackoff <= 0 {
		c.BreakerBackoff = 250 * time.Millisecond
	}
	if c.FailoverAttempts <= 0 {
		c.FailoverAttempts = len(c.Endpoints) + 1
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
	PingsSent       int64 // keepalive probes sent on idle connections
	PongsReceived   int64
	DeadPeers       int64 // idle connections torn down by a liveness timeout
	BreakerOpens    int64 // circuits opened (threshold hit or probe failed)
	BreakerProbes   int64 // half-open probes admitted
	BreakerCloses   int64 // circuits closed again by a healthy round trip
	Redirects       int64 // blocks answered "not owned here" by a cluster node
	Reroutes        int64 // blocks re-issued to a different shard after a redirect or topology change
	TopologyUpdates int64 // shard maps adopted (welcome or topology push)
}

// RemoteReader reads blocks from a block service: one server, a replica
// set, or a sharded cluster. It implements store.BlockReader,
// store.ContextBlockReader, store.BatchBlockReader, and
// store.BlockBufRecycler, so it drops into a store.MemCache (and therefore
// ooc.Runtime) exactly where a local BlockFile would: a whole miss batch
// travels as tagged requests, returns per-block results, and — with cache
// recycling on — decodes into buffers evicted earlier instead of
// allocating.
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
// number of concurrently tagged requests (bounded by PipelineDepth), a
// dedicated read loop demultiplexes out-of-order responses by tag, and
// concurrent batches share a connection before a new one is dialed.
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
	hb     time.Duration // keepalive cadence (0 = liveness disabled)

	stopKA chan struct{} // closed by Close to stop the keepalive loop
	kaWG   sync.WaitGroup
	connWG sync.WaitGroup // read loops of live connections

	// topo is the current routing table, swapped atomically on adoption;
	// mu serializes adoptions and Close against each other (and guards the
	// geometry learned from the first welcome).
	topo   atomic.Pointer[topology]
	closed atomic.Bool
	mu     sync.Mutex

	bufs store.BufPool // recycled decode buffers (fed via RecycleBlockBuf)
}

var (
	_ store.BatchBlockReader = (*RemoteReader)(nil)
	_ store.BlockBufRecycler = (*RemoteReader)(nil)
)

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

// shardGroup is one shard's connection pool: its replica endpoints with
// their breakers, the live multiplexed connections, and the batches parked
// for capacity. A flat (unsharded) reader is exactly one group.
type shardGroup struct {
	r    *RemoteReader
	name string // shard ID ("0" for the flat config)
	key  string // identity for reuse across topology swaps: name + addrs
	eps  []*endpoint

	dropped atomic.Bool // left the topology; acquires fail fast, conns are torn down

	mu      sync.Mutex
	conns   map[*rconn]struct{}
	nconns  int             // live conns plus dials in progress
	waiters []chan struct{} // batches waiting for capacity
}

// wake releases every batch parked on this group; each re-scans.
func (g *shardGroup) wake() {
	g.mu.Lock()
	ws := g.waiters
	g.waiters = nil
	g.mu.Unlock()
	for _, w := range ws {
		close(w)
	}
}

// snapshotConns copies the live connection set.
func (g *shardGroup) snapshotConns() []*rconn {
	g.mu.Lock()
	conns := make([]*rconn, 0, len(g.conns))
	for rc := range g.conns {
		conns = append(conns, rc)
	}
	g.mu.Unlock()
	return conns
}

// retire marks the group dropped (under the same lock that admits new
// connections, so none can slip in after) and returns the conns to close.
func (g *shardGroup) retire() []*rconn {
	g.mu.Lock()
	g.dropped.Store(true)
	conns := make([]*rconn, 0, len(g.conns))
	for rc := range g.conns {
		conns = append(conns, rc)
	}
	g.mu.Unlock()
	return conns
}

// liveConn returns any usable connection, nil when the group has none.
func (g *shardGroup) liveConn() *rconn {
	g.mu.Lock()
	defer g.mu.Unlock()
	for rc := range g.conns {
		if rc.usable() {
			return rc
		}
	}
	return nil
}

// groupKey is a group's reuse identity across topology swaps: a shard
// whose ID and replica addresses are unchanged keeps its connections and
// breaker history through an epoch bump.
func groupKey(id string, addrs []string) string {
	return id + "\x00" + strings.Join(addrs, "\x00")
}

// dialFuncFor resolves how one endpoint connects: its own Dial override,
// the client-wide DialAddr hook, or TCP.
func (r *RemoteReader) dialFuncFor(e Endpoint) func(ctx context.Context) (net.Conn, error) {
	if e.Dial != nil {
		return e.Dial
	}
	addr := e.Addr
	if dial := r.cfg.DialAddr; dial != nil && addr != "" {
		return func(ctx context.Context) (net.Conn, error) { return dial(ctx, addr) }
	}
	return func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
}

// newGroup builds a connection group for one shard's replica endpoints.
func (r *RemoteReader) newGroup(shardID string, eps []Endpoint) *shardGroup {
	g := &shardGroup{
		r:     r,
		name:  shardID,
		conns: make(map[*rconn]struct{}),
	}
	addrs := make([]string, 0, len(eps))
	for i, e := range eps {
		name := e.Addr
		if name == "" {
			name = fmt.Sprintf("endpoint-%d", i)
		}
		addrs = append(addrs, name)
		g.eps = append(g.eps, &endpoint{
			idx:   i,
			name:  name,
			shard: shardID,
			dial:  r.dialFuncFor(e),
			br:    breaker.New(r.cfg.BreakerThreshold, r.cfg.BreakerBackoff, breakerMaxBackoff),
		})
	}
	g.key = groupKey(shardID, addrs)
	return g
}

// endpointsOf converts a shard's address list to Endpoint values.
func endpointsOf(sh shard.Shard) []Endpoint {
	eps := make([]Endpoint, len(sh.Addrs))
	for i, a := range sh.Addrs {
		eps[i] = Endpoint{Addr: a}
	}
	return eps
}

// endpoint is one replica plus its health state.
type endpoint struct {
	idx      int
	name     string
	shard    string // owning group's shard ID (metric naming)
	dial     func(ctx context.Context) (net.Conn, error)
	br       *breaker.Breaker
	draining atomic.Bool // set by GOAWAY, cleared by a fresh successful handshake

	dials    atomic.Int64 // successful connects to this endpoint
	failures atomic.Int64 // transport failures attributed to this endpoint
}

// Outcomes of one tagged request, set once under pendingReq.mu before its
// done channel closes.
const (
	reqOK   = 1 + iota // server answered every block and sent done
	reqShed            // server refused the request (admission control)
	reqTorn            // connection died with the tag unanswered
)

// pendingReq is one tagged in-flight request: the read loop fills vals and
// errs as responses stream in, and the issuing batch harvests them after
// done closes. Partial fills survive a tear, so failover re-issues only
// the tag's unanswered blocks.
type pendingReq struct {
	req uint64
	ids []grid.BlockID

	mu       sync.Mutex
	vals     [][]float32
	errs     []error
	answered int
	outcome  int
	err      error
	done     chan struct{}
}

// rconn is one pooled connection multiplexing tagged requests: writers
// serialize frames under writeMu, a dedicated readLoop demultiplexes
// responses into the pending map, and tags counts reserved request slots
// against the server-granted maxReqs.
type rconn struct {
	r   *RemoteReader
	grp *shardGroup
	c   net.Conn
	in  frameReader // the read side: c behind a bufio.Reader; owned by readLoop
	bw  *bufio.Writer
	ep  *endpoint

	hb         time.Duration // server-advertised heartbeat interval
	hbEff      time.Duration // resolved liveness cadence for this conn
	maxReqs    int           // server-granted concurrent requests
	welcomeMap *shard.Map    // cluster topology from the welcome, consumed by connect

	tags   atomic.Int32 // reserved request slots
	dead   atomic.Bool  // torn down; skip on acquire
	goaway atomic.Bool  // endpoint announced drain on this conn; do not reuse

	writeMu      sync.Mutex
	lastWriteArm time.Time // guarded by writeMu; see armWrite

	mu      sync.Mutex
	nextReq uint64
	pending map[uint64]*pendingReq
}

// tryReserve grabs up to want request slots, returning how many it got
// (0 when the connection is full).
func (rc *rconn) tryReserve(want int) int {
	for {
		cur := rc.tags.Load()
		free := int32(rc.maxReqs) - cur
		if free <= 0 {
			return 0
		}
		k := int32(want)
		if k > free {
			k = free
		}
		if rc.tags.CompareAndSwap(cur, cur+k) {
			return int(k)
		}
	}
}

// unreserve returns request slots and wakes batches waiting for capacity.
func (rc *rconn) unreserve(k int) {
	if k <= 0 {
		return
	}
	rc.tags.Add(-int32(k))
	rc.grp.wake()
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
			topo.groups = append(topo.groups, r.newGroup(sh.ID, endpointsOf(sh)))
		}
	} else {
		topo = &topology{}
		topo.groups = append(topo.groups, r.newGroup("0", cfg.Endpoints))
	}
	r.topo.Store(topo)
	r.m = newClientMetrics(cfg.Metrics)
	for _, g := range topo.groups {
		r.m.registerGroup(g)
	}
	neps := 0
	for _, g := range topo.groups {
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
		return nil, err
	}
	r.hb = conn.hbEff
	if r.hb > 0 {
		r.stopKA = make(chan struct{})
		r.kaWG.Add(1)
		go r.keepaliveLoop()
	}
	return r, nil
}

// Header returns the served volume's header (from the welcome message).
func (r *RemoteReader) Header() store.Header { return r.header }

// Grid returns the served volume's block geometry.
func (r *RemoteReader) Grid() *grid.Grid { return r.g }

// Topology returns the currently adopted shard map, nil for a flat
// replica configuration.
func (r *RemoteReader) Topology() *shard.Map {
	return r.topo.Load().m
}

// connHB resolves the liveness cadence for one connection: the config
// override when set, else what the server advertised.
func (r *RemoteReader) connHB(rc *rconn) time.Duration {
	if r.cfg.HeartbeatInterval < 0 {
		return 0
	}
	if r.cfg.HeartbeatInterval > 0 {
		return r.cfg.HeartbeatInterval
	}
	return rc.hb
}

// getBuf returns a decode buffer of exactly n floats, reusing a recycled
// one when available.
func (r *RemoteReader) getBuf(n int) []float32 {
	buf, _ := r.bufs.Get(n)
	return buf
}

// RecycleBlockBuf hands a block buffer back for reuse by a later response
// decode. It implements store.BlockBufRecycler: a MemCache with recycling
// enabled feeds evicted blocks here, closing the loop so a steady miss
// stream decodes into evicted memory instead of allocating. The caller
// must no longer read the buffer.
func (r *RemoteReader) RecycleBlockBuf(vals []float32) { r.bufs.Put(vals) }

// connect dials and handshakes one connection to ep, retrying with backoff
// under the configured Retrier. Success clears the endpoint's draining
// mark (it evidently accepts sessions again), feeds its breaker, registers
// the conn with its group, and starts its read loop. The caller owns one
// of the group's nconns slots. A welcome carrying a newer shard map is
// adopted after registration.
func (r *RemoteReader) connect(ctx context.Context, g *shardGroup, ep *endpoint) (*rconn, error) {
	var conn *rconn
	attempts, err := r.cfg.Retry.Do(ctx, func(c context.Context) error {
		tctx, cancel := context.WithTimeout(c, dialTimeout)
		defer cancel()
		raw, err := ep.dial(tctx)
		if err != nil {
			return faultio.Transient(err)
		}
		rc, err := r.handshake(ep, raw)
		if err != nil {
			raw.Close()
			return err
		}
		conn = rc
		return nil
	})
	r.m.dialRetries.Add(int64(attempts - 1))
	if err != nil {
		if ctx.Err() == nil && faultio.Retryable(err) {
			r.noteFailure(ep)
		}
		return nil, fmt.Errorf("blocksvc: connect %s: %w", ep.name, err)
	}
	ep.dials.Add(1)
	ep.draining.Store(false)
	r.noteSuccess(ep)
	r.m.dials.Inc()
	conn.grp = g
	conn.hbEff = r.connHB(conn)
	g.mu.Lock()
	if r.closed.Load() {
		g.mu.Unlock()
		conn.c.Close()
		return nil, fmt.Errorf("blocksvc: client closed: %w", faultio.ErrPermanent)
	}
	if g.dropped.Load() {
		g.mu.Unlock()
		conn.c.Close()
		return nil, fmt.Errorf("blocksvc: shard %s left the topology: %w",
			g.name, faultio.ErrTransient)
	}
	g.conns[conn] = struct{}{}
	r.connWG.Add(1)
	g.mu.Unlock()
	go conn.readLoop()
	g.wake()
	if m := conn.welcomeMap; m != nil {
		conn.welcomeMap = nil
		r.adoptMap(m)
	}
	return conn, nil
}

// handshake exchanges hello/welcome, learns the request window and any
// cluster topology, and validates the geometry against the first
// connection's — replicas must serve the same volume.
func (r *RemoteReader) handshake(ep *endpoint, raw net.Conn) (*rconn, error) {
	rc := &rconn{
		r:       r,
		c:       raw,
		in:      frameReader{br: bufio.NewReaderSize(raw, 256<<10), src: raw},
		bw:      bufio.NewWriterSize(raw, 64<<10),
		ep:      ep,
		pending: make(map[uint64]*pendingReq),
	}
	var e enc
	e.u32(protoMagic)
	e.u16(ProtoVersion)
	if err := writeFrame(rc.bw, msgHello, e.b); err != nil {
		return nil, faultio.Transient(err)
	}
	if err := rc.bw.Flush(); err != nil {
		return nil, faultio.Transient(err)
	}
	raw.SetReadDeadline(time.Now().Add(dialTimeout))
	typ, payload, err := readFrame(rc.in.br, nil)
	raw.SetReadDeadline(time.Time{})
	if err != nil {
		return nil, faultio.Transient(err)
	}
	if typ == msgError {
		// The server refused us deliberately (e.g. version mismatch);
		// retrying the same hello cannot help.
		return nil, fmt.Errorf("blocksvc: server refused: %s: %w",
			payload, faultio.ErrPermanent)
	}
	welcome, ok := decodeWelcome(payload)
	if typ != msgWelcome || !ok || welcome.Version != ProtoVersion {
		return nil, fmt.Errorf("blocksvc: bad welcome: %w", faultio.ErrPermanent)
	}
	hdr := welcome.Header
	rc.hb = time.Duration(welcome.HeartbeatMillis) * time.Millisecond
	rc.maxReqs = int(welcome.MaxRequests)
	rc.welcomeMap = welcome.ShardMap
	if rc.maxReqs > r.cfg.PipelineDepth {
		rc.maxReqs = r.cfg.PipelineDepth
	}
	if rc.maxReqs < 1 {
		rc.maxReqs = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.g == nil {
		g, err := grid.New(hdr.Res, hdr.Block)
		if err != nil {
			return nil, fmt.Errorf("blocksvc: server geometry: %v: %w", err, faultio.ErrPermanent)
		}
		r.header, r.g = hdr, g
	} else if hdr != r.header {
		return nil, fmt.Errorf("blocksvc: server geometry changed across connections: %w",
			faultio.ErrPermanent)
	}
	return rc, nil
}

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
		g := r.newGroup(sh.ID, endpointsOf(sh))
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
		// Closing the sockets errors each read loop, whose teardown fails
		// the pending tags transiently — their batches re-route.
		for _, rc := range g.retire() {
			rc.c.Close()
		}
		g.wake()
	}
	for _, g := range nt.groups {
		g.wake()
	}
	return true
}

// pickEndpoint chooses where a group's fresh connection should go. Healthy
// (closed-breaker, non-draining) endpoints win in config order, then
// half-open probes of recovering ones; as a last resort anything the
// breaker admits — including the endpoint being avoided or a draining
// replica — beats failing the batch outright.
func (r *RemoteReader) pickEndpoint(g *shardGroup, avoid *endpoint) *endpoint {
	now := time.Now()
	for _, ep := range g.eps {
		if ep != avoid && !ep.draining.Load() && ep.br.State() == breaker.Closed {
			return ep
		}
	}
	for _, ep := range g.eps {
		if ep == avoid || ep.draining.Load() {
			continue
		}
		if ok, probe := ep.br.Allow(now); ok {
			if probe {
				r.m.breakerProbes.Inc()
			}
			return ep
		}
	}
	for _, ep := range g.eps {
		if ok, probe := ep.br.Allow(now); ok {
			if probe {
				r.m.breakerProbes.Inc()
			}
			return ep
		}
	}
	return nil
}

// usable reports whether rc can carry new work.
func (rc *rconn) usable() bool {
	return !rc.dead.Load() && !rc.goaway.Load() && !rc.ep.draining.Load()
}

// acquire returns one of g's connections with want request slots reserved
// on it (granted ≤ want, at least 1 when want > 0; 0 reserved when want is
// 0, for fire-and-forget frames). Preference order: a live conn to an
// endpoint other than avoid with free slots, then a fresh dial while the
// group's pool has room, then a conn to the avoided endpoint, then wait
// for capacity.
func (r *RemoteReader) acquire(ctx context.Context, g *shardGroup, avoid *endpoint, want int) (*rconn, int, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		if r.closed.Load() {
			return nil, 0, fmt.Errorf("blocksvc: client closed: %w", faultio.ErrPermanent)
		}
		if g.dropped.Load() {
			return nil, 0, fmt.Errorf("blocksvc: shard %s left the topology: %w",
				g.name, faultio.ErrTransient)
		}
		g.mu.Lock()
		scan := func(skipAvoid bool) *rconn {
			var best *rconn
			for rc := range g.conns {
				if !rc.usable() || (skipAvoid && rc.ep == avoid) {
					continue
				}
				if int(rc.tags.Load()) >= rc.maxReqs {
					continue
				}
				if best == nil || rc.tags.Load() < best.tags.Load() {
					best = rc
				}
			}
			return best
		}
		best := scan(avoid != nil && len(g.eps) > 1)
		if best != nil {
			g.mu.Unlock()
			if want <= 0 {
				return best, 0, nil
			}
			if k := best.tryReserve(want); k > 0 {
				return best, k, nil
			}
			continue // raced to full; rescan
		}
		if g.nconns < r.cfg.Conns {
			g.nconns++
			g.mu.Unlock()
			ep := r.pickEndpoint(g, avoid)
			if ep == nil {
				g.mu.Lock()
				g.nconns--
				g.mu.Unlock()
				return nil, 0, fmt.Errorf("blocksvc: no admissible endpoint (breakers open): %w",
					faultio.ErrTransient)
			}
			rc, err := r.connect(ctx, g, ep)
			if err != nil {
				g.mu.Lock()
				g.nconns--
				g.mu.Unlock()
				return nil, 0, err
			}
			if want <= 0 {
				return rc, 0, nil
			}
			if k := rc.tryReserve(want); k > 0 {
				return rc, k, nil
			}
			continue
		}
		// A conn to the avoided endpoint with capacity beats waiting.
		if avoid != nil {
			if best := scan(false); best != nil {
				g.mu.Unlock()
				if want <= 0 {
					return best, 0, nil
				}
				if k := best.tryReserve(want); k > 0 {
					return best, k, nil
				}
				continue
			}
		}
		w := make(chan struct{})
		g.waiters = append(g.waiters, w)
		g.mu.Unlock()
		select {
		case <-w:
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
}

// noteSuccess feeds a healthy round trip to the endpoint's breaker.
func (r *RemoteReader) noteSuccess(ep *endpoint) {
	if ep.br.Success() {
		r.m.breakerCloses.Inc()
	}
}

// noteFailure attributes a transport failure to the endpoint.
func (r *RemoteReader) noteFailure(ep *endpoint) {
	ep.failures.Add(1)
	if ep.br.Failure(time.Now()) {
		r.m.breakerOpens.Inc()
	}
}

// Close tears down every connection and stops the keepalive loop.
// In-flight requests fail transiently; new requests fail permanently.
func (r *RemoteReader) Close() error {
	r.mu.Lock()
	if r.closed.Load() {
		r.mu.Unlock()
		return nil
	}
	r.closed.Store(true)
	r.mu.Unlock()
	// Closing the sockets errors each read loop, which runs teardown:
	// pending tags fail transiently and the conn deregisters itself.
	topo := r.topo.Load()
	for _, g := range topo.groups {
		for _, rc := range g.snapshotConns() {
			rc.c.Close()
		}
		g.wake()
	}
	if r.stopKA != nil {
		close(r.stopKA)
		r.kaWG.Wait()
	}
	r.connWG.Wait()
	return nil
}

// Snapshot reads the client's counters. Each field is read atomically; the
// fields are not a consistent cut across each other.
func (r *RemoteReader) Snapshot() ClientStats { return r.m.snapshot() }

// keepaliveLoop pings idle pooled connections at the liveness cadence, so
// a quiet client still notices a dead or draining server within
// 2×heartbeat: the ping either draws a pong (resetting the read loop's
// deadline) or nothing, and the read loop's deadline expiry tears the conn
// down. Connections with requests in flight get their liveness from the
// response stream instead.
func (r *RemoteReader) keepaliveLoop() {
	defer r.kaWG.Done()
	tick := time.NewTicker(r.hb)
	defer tick.Stop()
	for {
		select {
		case <-r.stopKA:
			return
		case <-tick.C:
		}
		topo := r.topo.Load()
		for _, g := range topo.groups {
			for _, rc := range g.snapshotConns() {
				if rc.dead.Load() || rc.tags.Load() > 0 {
					continue
				}
				rc.ping()
			}
		}
	}
}

// armWrite refreshes the write deadline once its slack has decayed below
// 1.5×hb. Called with writeMu held before every write; the deadline is never
// cleared — since each write path arms first, a leftover deadline cannot
// fail a later write spuriously, and skipping the clear halves the timer
// traffic a deadline round-trip costs.
func (rc *rconn) armWrite() {
	if rc.hbEff <= 0 {
		return
	}
	if now := time.Now(); now.Sub(rc.lastWriteArm) > rc.hbEff/2 {
		rc.c.SetWriteDeadline(now.Add(2 * rc.hbEff))
		rc.lastWriteArm = now
	}
}

// ping fires one liveness probe; the pong comes back through the read
// loop. A write failure tears the connection down immediately.
func (rc *rconn) ping() {
	rc.mu.Lock()
	rc.nextReq++
	token := rc.nextReq
	rc.mu.Unlock()
	e := getEnc()
	e.u64(token)
	rc.writeMu.Lock()
	rc.armWrite()
	err := writeFrame(rc.bw, msgPing, e.b)
	if err == nil {
		err = rc.bw.Flush()
	}
	rc.writeMu.Unlock()
	putEnc(e)
	rc.r.m.pingsSent.Inc()
	if err != nil {
		rc.teardown(err)
	}
}

// teardown kills a torn connection exactly once: closes the socket,
// deregisters it from its group, and fails every pending tag transiently
// so their batches fail over. The endpoint is charged a failure unless the
// client itself is closing or the conn was drained by GOAWAY; an idle conn
// whose liveness deadline expired additionally counts a dead peer.
func (rc *rconn) teardown(cause error) {
	rc.mu.Lock()
	if rc.dead.Load() {
		rc.mu.Unlock()
		return
	}
	rc.dead.Store(true)
	pend := rc.pending
	rc.pending = make(map[uint64]*pendingReq)
	rc.mu.Unlock()
	rc.c.Close()
	r := rc.r
	g := rc.grp
	g.mu.Lock()
	delete(g.conns, rc)
	g.nconns--
	g.mu.Unlock()
	closed := r.closed.Load()
	err := fmt.Errorf("blocksvc: connection lost: %v: %w", cause, faultio.ErrTransient)
	for _, p := range pend {
		p.mu.Lock()
		if p.outcome == 0 {
			p.outcome = reqTorn
			p.err = err
			close(p.done)
		}
		p.mu.Unlock()
	}
	g.wake()
	if closed || rc.goaway.Load() {
		return
	}
	if len(pend) == 0 && errors.Is(cause, os.ErrDeadlineExceeded) {
		r.m.deadPeers.Inc()
	}
	r.noteFailure(rc.ep)
}

// readLoop is rc's dedicated receiver: it owns the conn's read side and
// demultiplexes every inbound frame by tag. Any protocol violation or
// transport error tears the connection down.
func (rc *rconn) readLoop() {
	defer rc.r.connWG.Done()
	buf := make([]byte, 0, 64<<10)
	var lastArm time.Time
	for {
		if rc.hbEff > 0 {
			// Re-arming every frame makes the runtime allocate a timer per
			// block batch; re-arm only once the armed deadline has consumed a
			// quarter of its slack, keeping at least 1.5×hb of headroom.
			if now := time.Now(); now.Sub(lastArm) > rc.hbEff/2 {
				rc.c.SetReadDeadline(now.Add(2 * rc.hbEff))
				lastArm = now
			}
		}
		if err := rc.readOne(buf); err != nil {
			rc.teardown(err)
			return
		}
	}
}

// readOne reads and dispatches one inbound frame. A blocks frame is never
// materialised: readBlocks streams it, each payload landing in the block
// buffer it is delivered in. Every other frame is small and goes through
// readFrame into buf, the loop's one receive buffer (a frame that exceeds it
// is read under readPayload's hostile-length bound and dropped afterwards).
func (rc *rconn) readOne(buf []byte) error {
	br := rc.in.br
	hdr, err := br.Peek(frameHeaderSize)
	if err != nil {
		return err
	}
	if hdr[4] != msgBlocks {
		typ, payload, err := readFrame(br, buf)
		if err != nil {
			return err
		}
		return rc.handleFrame(typ, payload)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	br.Discard(frameHeaderSize)
	if n > maxFrameBytes {
		return fmt.Errorf("blocksvc: frame length %d exceeds limit", n)
	}
	return rc.readBlocks(int(n))
}

// handleFrame dispatches one inbound frame; a returned error tears the
// connection down.
func (rc *rconn) handleFrame(typ byte, payload []byte) error {
	r := rc.r
	switch typ {
	case msgDone:
		token, ok := decodeToken(payload)
		if !ok {
			return fmt.Errorf("bad done frame")
		}
		p := rc.takePending(token)
		if p == nil {
			return fmt.Errorf("stray done frame (req %d)", token)
		}
		p.mu.Lock()
		if p.answered != len(p.ids) {
			short := len(p.ids) - p.answered
			if p.outcome == 0 {
				p.outcome = reqTorn
				p.err = fmt.Errorf("blocksvc: done with %d of %d blocks unanswered: %w",
					short, len(p.ids), faultio.ErrTransient)
				close(p.done)
			}
			p.mu.Unlock()
			return fmt.Errorf("done with %d blocks unanswered", short)
		}
		if p.outcome == 0 {
			p.outcome = reqOK
			close(p.done)
		}
		p.mu.Unlock()
		rc.unreserve(1)
		r.noteSuccess(rc.ep)
		return nil
	case msgShed:
		token, ok := decodeToken(payload)
		if !ok {
			return fmt.Errorf("bad shed frame")
		}
		p := rc.takePending(token)
		if p == nil {
			return fmt.Errorf("stray shed frame (req %d)", token)
		}
		p.mu.Lock()
		if p.outcome == 0 {
			p.outcome = reqShed
			close(p.done)
		}
		p.mu.Unlock()
		rc.unreserve(1)
		r.m.shedRequests.Inc()
		// Shed is proof of life: the endpoint answered, it is just over
		// capacity.
		r.noteSuccess(rc.ep)
		return nil
	case msgPing:
		token, ok := decodeToken(payload)
		if !ok {
			return fmt.Errorf("bad ping")
		}
		e := getEnc()
		e.u64(token)
		rc.writeMu.Lock()
		rc.armWrite()
		err := writeFrame(rc.bw, msgPong, e.b)
		if err == nil {
			err = rc.bw.Flush()
		}
		rc.writeMu.Unlock()
		putEnc(e)
		return err
	case msgPong:
		if _, ok := decodeToken(payload); !ok {
			return fmt.Errorf("bad pong")
		}
		r.m.pongsReceived.Inc()
		r.noteSuccess(rc.ep)
		return nil
	case msgGoaway:
		if _, ok := decodeGoaway(payload); !ok {
			return fmt.Errorf("bad goaway")
		}
		// Finish what is in flight — the server serves what is on the
		// wire — but take the conn out of rotation and stop preferring
		// the endpoint.
		rc.goaway.Store(true)
		rc.ep.draining.Store(true)
		r.m.goawaysReceived.Inc()
		return nil
	case msgTopology:
		m, ok := decodeTopology(payload)
		if !ok {
			return fmt.Errorf("bad topology frame")
		}
		r.adoptMap(m)
		return nil
	case msgError:
		return fmt.Errorf("server error: %s", payload)
	default:
		return fmt.Errorf("unexpected message type %d", typ)
	}
}

// takePending removes and returns the tag's pending request, nil when
// unknown.
func (rc *rconn) takePending(req uint64) *pendingReq {
	rc.mu.Lock()
	p := rc.pending[req]
	if p != nil {
		delete(rc.pending, req)
	}
	rc.mu.Unlock()
	return p
}

// readBlocks streams one blocks frame of n payload bytes into its tag's
// result arrays. Per OK entry: the declared length is held against the
// block's geometry and against what is left of the frame before a buffer is
// taken — a lying length can neither over-allocate nor deliver a short block
// — then the payload is read into a recycled block buffer (f32le.Read: on a
// little-endian host the bytes land in the slice's own memory) and the
// trailing CRC is verified there. A buffer that is not delivered goes back
// to the pool. The tag's lock is taken per entry, to record it, and never
// held across a read. Entries landed before a failure stay landed: failover
// re-issues only what is unanswered. A frame that ends early, or whose
// entries end before it does, is a protocol violation like any other here:
// the returned error tears the connection down.
func (rc *rconn) readBlocks(n int) (err error) {
	r := rc.r
	in := &rc.in
	in.left, in.err = n, nil
	req, first, count := in.uint(8), int(in.uint(4)), int(in.uint(2))
	if in.err != nil {
		return fmt.Errorf("bad blocks frame: %w", in.err)
	}
	rc.mu.Lock()
	p := rc.pending[req]
	rc.mu.Unlock()
	if p == nil {
		return fmt.Errorf("stray blocks frame (req %d)", req)
	}
	if first < 0 || first+count > len(p.ids) {
		return fmt.Errorf("blocks frame out of range")
	}
	var served, faults, redirects, cksum, wireBytes int64
	defer func() {
		r.m.blocksServed.Add(served)
		r.m.remoteFaults.Add(faults)
		r.m.redirects.Add(redirects)
		r.m.checksumErrors.Add(cksum)
		r.m.bytesReceived.Add(wireBytes)
	}()
	for k := first; k < first+count; k++ {
		id := p.ids[k] // ids is not written after the tag is registered
		var vals []float32
		var berr error
		tally := &faults // the counter this entry bumps once it is recorded
		switch st := blockStatus(in.uint(1)); st {
		case statusOK:
			nbytes := int64(in.uint(4))
			if in.err != nil {
				break
			}
			// An id outside the grid has no size an OK answer could match.
			if int(id) < 0 || int(id) >= r.g.NumBlocks() || nbytes != r.g.VoxelCount(id)*4 {
				return fmt.Errorf("block %d answered with %d payload bytes, geometry disagrees", id, nbytes)
			}
			if nbytes+4 > int64(in.left) {
				return fmt.Errorf("block %d: %d payload bytes with %d bytes of the frame left", id, nbytes, in.left)
			}
			vals = r.getBuf(int(nbytes / 4))
			got, rerr := f32le.Read(in, vals)
			if rerr != nil {
				r.bufs.Put(vals)
				return fmt.Errorf("blocks frame: block %d payload: %w", id, rerr)
			}
			tally = &served
			if sum := uint32(in.uint(4)); in.err != nil || got != sum {
				r.bufs.Put(vals)
				vals, tally = nil, &cksum
				berr = fmt.Errorf("blocksvc: block %d corrupted in transit: %w",
					id, faultio.Transient(faultio.ErrChecksum))
			}
		case statusRedirect:
			// "Not owned here": an answer, not a fault — the batch re-routes
			// it to the owner under the current topology.
			berr, tally = &redirectError{id: id, epoch: in.uint(8)}, &redirects
		default:
			berr = blockErr(st, id)
		}
		if in.err != nil {
			return fmt.Errorf("bad blocks frame: %w", in.err)
		}
		p.mu.Lock()
		switch {
		case p.outcome != 0:
			err = fmt.Errorf("blocks frame for resolved request %d", req)
		case p.vals[k] != nil || p.errs[k] != nil:
			err = fmt.Errorf("duplicate answer for block %d", id)
		default:
			p.vals[k], p.errs[k] = vals, berr
			p.answered++
		}
		p.mu.Unlock()
		if err != nil {
			if vals != nil {
				r.bufs.Put(vals)
			}
			return err
		}
		*tally++
		wireBytes += 4 * int64(len(vals))
	}
	if in.left != 0 {
		return fmt.Errorf("bad blocks frame: %d bytes trail the last entry", in.left)
	}
	return nil
}

// ReadBlock implements store.BlockReader.
func (r *RemoteReader) ReadBlock(id grid.BlockID) ([]float32, error) {
	return r.ReadBlockContext(context.Background(), id)
}

// ReadBlockContext implements store.ContextBlockReader.
func (r *RemoteReader) ReadBlockContext(ctx context.Context, id grid.BlockID) ([]float32, error) {
	vals, errs := r.ReadBlocks(ctx, []grid.BlockID{id})
	if errs[0] != nil {
		return nil, errs[0]
	}
	return vals[0], nil
}

// tagsWanted picks how many tagged requests to split a batch across:
// batches up to splitThreshold blocks stay one request (splitting only
// adds per-request overhead when the server already streams a single
// request's runs incrementally), larger ones fan out so the server's
// request workers overlap their cache reads, capped by PipelineDepth.
const splitThreshold = 64

func tagsWanted(n, depth int) int {
	if n <= splitThreshold || depth <= 1 {
		return 1
	}
	t := (n + splitThreshold - 1) / splitThreshold
	if t > depth {
		t = depth
	}
	return t
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

// ReadBlocks implements store.BatchBlockReader: the batch is partitioned
// by shard owner (one partition in flat mode), each partition travels as
// tagged request frames on the owning shard's connections — shards issued
// in parallel — and the servers stream back per-block results that each
// connection's read loop demultiplexes (the store's merged sequential
// reads happen server-side).
//
// A transport failure or shed mid-batch re-issues the unanswered blocks to
// the next healthy replica of the same shard — blocks already answered are
// kept, including those of a tag torn mid-response — until the partition
// completes or FailoverAttempts connections have been tried. Blocks a node
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

	pending := make([]int, len(ids))
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

// readGroup issues the pending index subset of ids to one shard's
// connection group, failing over among its replicas. It fills vals/errs
// for every pending index (values, per-block faults, or the last transport
// error once the attempts are exhausted).
func (r *RemoteReader) readGroup(ctx context.Context, g *shardGroup, ids []grid.BlockID,
	vals [][]float32, errs []error, pending []int) {
	failPending := func(err error) {
		for _, i := range pending {
			if vals[i] == nil && errs[i] == nil {
				errs[i] = err
			}
		}
	}
	attemptsMax := r.cfg.FailoverAttempts
	if attemptsMax < len(g.eps)+1 {
		attemptsMax = len(g.eps) + 1
	}
	var avoid *endpoint
	var lastErr error
	for attempt := 1; ; attempt++ {
		want := tagsWanted(len(pending), r.cfg.PipelineDepth)
		rc, granted, err := r.acquire(ctx, g, avoid, want)
		if err != nil {
			// A failed dial consumes a failover attempt like a torn
			// exchange would: the endpoint's breaker was already charged,
			// so the next attempt naturally lands elsewhere.
			if attempt >= attemptsMax || ctx.Err() != nil || !faultio.Retryable(err) {
				failPending(err)
				return
			}
			lastErr = err
			continue
		}
		if attempt > 1 && rc.ep != avoid {
			r.m.failovers.Inc()
		}
		var done bool
		done, lastErr = r.exchange(ctx, rc, granted, ids, vals, errs, pending)
		if done {
			return
		}
		// Keep what this attempt answered; re-issue only the rest.
		still := pending[:0]
		for _, i := range pending {
			if vals[i] == nil && errs[i] == nil {
				still = append(still, i)
			}
		}
		pending = still
		if len(pending) == 0 {
			return
		}
		avoid = rc.ep
		if attempt >= attemptsMax || ctx.Err() != nil {
			if lastErr == nil {
				lastErr = fmt.Errorf("blocksvc: incomplete response: %w", faultio.ErrTransient)
			}
			failPending(lastErr)
			return
		}
	}
}

// exchange issues the pending subset of ids over rc as granted tagged
// requests and waits for their outcomes, harvesting results (including a
// torn tag's partial answers) into vals/errs. done reports whether every
// pending block got an answer; otherwise the batch should fail over with
// the returned error.
func (r *RemoteReader) exchange(ctx context.Context, rc *rconn, granted int, ids []grid.BlockID,
	vals [][]float32, errs []error, pending []int) (bool, error) {
	n := len(pending)
	tags := granted
	if tags > n {
		rc.unreserve(tags - n)
		tags = n
	}
	// Register every tag before writing anything: responses can start
	// arriving the moment the first frame is flushed.
	rc.mu.Lock()
	if rc.dead.Load() {
		rc.mu.Unlock()
		rc.tags.Add(-int32(tags)) // conn is out of rotation; no wake needed
		return false, fmt.Errorf("blocksvc: connection lost before send: %w", faultio.ErrTransient)
	}
	// Stack-backed tag bookkeeping for the common case (one or a few tags);
	// only an unusually deep split spills to the heap.
	var (
		reqsArr   [8]*pendingReq
		startsArr [8]int
		reqs      = reqsArr[:0]
		starts    = startsArr[:0]
	)
	if tags > len(reqsArr) {
		reqs = make([]*pendingReq, 0, tags)
		starts = make([]int, 0, tags)
	}
	for t := 0; t < tags; t++ {
		lo, hi := t*n/tags, (t+1)*n/tags
		if lo == hi {
			continue
		}
		rc.nextReq++
		p := &pendingReq{
			req:  rc.nextReq,
			ids:  make([]grid.BlockID, hi-lo),
			vals: make([][]float32, hi-lo),
			errs: make([]error, hi-lo),
			done: make(chan struct{}),
		}
		for k := range p.ids {
			p.ids[k] = ids[pending[lo+k]]
		}
		rc.pending[p.req] = p
		reqs = append(reqs, p)
		starts = append(starts, lo)
	}
	rc.mu.Unlock()
	rc.unreserve(tags - len(reqs))

	e := getEnc()
	rc.writeMu.Lock()
	rc.armWrite()
	var werr error
	for _, p := range reqs {
		e.reset()
		e.u64(p.req)
		e.u32(deadlineMillis(ctx))
		e.u32(uint32(len(p.ids)))
		for _, id := range p.ids {
			e.u32(uint32(id))
		}
		if werr = writeFrame(rc.bw, msgRead, e.b); werr != nil {
			break
		}
	}
	if werr == nil {
		werr = rc.bw.Flush()
	}
	rc.writeMu.Unlock()
	putEnc(e)
	if werr != nil {
		// teardown fails every registered tag (including ours); fall
		// through to the waits, which now resolve immediately.
		rc.teardown(werr)
	}

	var lastErr error
	torn := false
	for ti, p := range reqs {
		select {
		case <-p.done:
		case <-ctx.Done():
			// Abandon the exchange but keep whatever already arrived —
			// for this tag and the ones not yet waited on. Their tags
			// stay registered; the read loop retires them when the
			// server answers (it was told our deadline and sheds).
			for j := ti; j < len(reqs); j++ {
				r.harvest(reqs[j], starts[j], pending, vals, errs)
			}
			return false, ctx.Err()
		}
		switch p.outcome {
		case reqOK:
			r.harvest(p, starts[ti], pending, vals, errs)
		case reqShed:
			lastErr = fmt.Errorf("blocksvc: request shed: %w", faultio.Transient(ErrShed))
		case reqTorn:
			r.harvest(p, starts[ti], pending, vals, errs)
			lastErr = p.err
			torn = true
		}
	}
	if torn {
		r.m.transportErrors.Inc()
	}
	done := true
	for _, i := range pending {
		if vals[i] == nil && errs[i] == nil {
			done = false
			break
		}
	}
	return done, lastErr
}

// harvest copies a tag's answered blocks into the batch's result arrays.
// Taken under the tag's lock: the read loop may still be filling a torn or
// abandoned tag's late arrivals.
func (r *RemoteReader) harvest(p *pendingReq, start int, pending []int,
	vals [][]float32, errs []error) {
	p.mu.Lock()
	for k := range p.ids {
		i := pending[start+k]
		if p.vals[k] != nil {
			vals[i] = p.vals[k]
		} else if p.errs[k] != nil {
			errs[i] = p.errs[k]
		}
	}
	p.mu.Unlock()
}

// sendView writes one view frame on rc, tearing the conn down on a write
// failure.
func (rc *rconn) sendView(pos vec.V3) error {
	e := getEnc()
	e.u64(math.Float64bits(pos.X))
	e.u64(math.Float64bits(pos.Y))
	e.u64(math.Float64bits(pos.Z))
	rc.writeMu.Lock()
	rc.armWrite()
	werr := writeFrame(rc.bw, msgView, e.b)
	if werr == nil {
		werr = rc.bw.Flush()
	}
	rc.writeMu.Unlock()
	putEnc(e)
	if werr != nil {
		rc.teardown(werr)
	}
	return werr
}

// SendView tells the cluster where this session's camera is, driving each
// server's predictive prefetch into its shared cache. In cluster mode the
// hint goes to every shard that already has a live connection — each node
// prefetches only the blocks it owns — falling back to dialing the first
// shard when no connection exists yet. Best-effort: an error only means
// the hint was lost.
func (r *RemoteReader) SendView(ctx context.Context, pos vec.V3) error {
	topo := r.topo.Load()
	if len(topo.groups) == 1 {
		rc, _, err := r.acquire(ctx, topo.groups[0], nil, 0)
		if err != nil {
			return err
		}
		if err := rc.sendView(pos); err != nil {
			return err
		}
		r.m.viewUpdates.Inc()
		return nil
	}
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

// deadlineMillis encodes ctx's deadline as milliseconds-from-now for the
// wire (0 = none), so the server can shed work the client will no longer
// wait for.
func deadlineMillis(ctx context.Context) uint32 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	if ms > math.MaxUint32 {
		return 0
	}
	return uint32(ms)
}
