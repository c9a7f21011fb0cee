package blocksvc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/camera"
	"repro/internal/entropy"
	"repro/internal/f32le"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/visibility"
)

// Config describes what a Server serves and how hard it may be pushed.
type Config struct {
	// Cache is the shared block cache every session reads through. Its
	// singleflight miss path is what makes the server multi-session: N
	// sessions demanding one cold block cost exactly one backing read.
	// It must not recycle evicted buffers (MemCache.RecyclingEnabled: by
	// EnableRecycling, or because an ooc.Runtime drives it): a response is
	// written from the cache's own slices after the cache lock is released,
	// and with recycling on another session's miss could evict one of them
	// and have a later backing read decode into it mid-write. NewServer
	// refuses such a cache. What the cache reads from must be
	// immutable while the server lives: a block's CRC is computed the first
	// time the block is sent and remembered for every later send.
	Cache *store.MemCache
	// Grid is the served volume's block geometry (request validation and
	// per-request byte accounting).
	Grid *grid.Grid
	// Header is advertised to clients in the welcome message.
	Header store.Header

	// Vis and Imp enable per-session predictive prefetch: a client's view
	// updates are run through T_visible and the entropy threshold Sigma,
	// and the predicted high-entropy blocks are pulled into the shared
	// cache while the client renders. Nil disables prefetch.
	Vis   *visibility.Table
	Imp   *entropy.Table
	Sigma float64

	// PredictOff disables the per-session trajectory predictor, which
	// otherwise extrapolates recent view updates (camera.PredictorOptions
	// defaults) and feeds the *predicted* camera position into T_visible, so
	// prefetch warms the blocks of the position the camera is about to
	// occupy. Off, prefetch looks up the last-seen camera position — the
	// nearest-sample baseline — which is exactly the behavior of a
	// one-sample predictor history.
	PredictOff bool

	// MaxInflightBytes caps the bytes of block data being served across all
	// sessions at once; requests beyond it wait up to MaxQueueWait and are
	// then shed. A single request larger than the cap is shed immediately —
	// it could never be admitted (default 256 MiB).
	MaxInflightBytes int64
	// MaxSessionRequests caps one session's concurrently served requests;
	// excess requests are shed, keeping one greedy client from starving the
	// rest (default 8).
	MaxSessionRequests int
	// MaxQueueWait bounds how long a request may wait for admission before
	// being shed. The client's deadline, when sooner, wins (default 100ms).
	MaxQueueWait time.Duration
	// ResponseRunBytes is the target payload size of one blocks frame; the
	// response to a large read streams as a sequence of runs of roughly
	// this size (default 2 MiB).
	ResponseRunBytes int64
	// HandshakeTimeout bounds how long a fresh connection may take to send
	// its hello — and, symmetrically, how long the server will spend
	// writing the welcome to a peer that never drains its receive buffer
	// (default 10s).
	HandshakeTimeout time.Duration
	// ShardMap, when non-nil, runs the server in cluster mode: this node is
	// one shard of a consistent-hash cluster, admits only the blocks it
	// owns (answering others with a redirect carrying the current epoch),
	// and advertises the topology in every welcome. ShardID names this
	// node's shard in the map. Topology changes arrive through
	// UpdateShardMap and are pushed to connected clients.
	ShardMap *shard.Map
	// ShardID is this node's shard identity within ShardMap. Required in
	// cluster mode.
	ShardID string

	// HeartbeatInterval is the liveness cadence advertised in the welcome:
	// each session pings the client at this interval and requires some
	// inbound frame within twice of it, so a dead or wedged peer is torn
	// down within 2×HeartbeatInterval instead of pinning its session and
	// per-session gauges forever. 0 means the 5s default; negative
	// disables liveness entirely.
	HeartbeatInterval time.Duration

	// Metrics, when non-nil, exposes the server's counters, admission-wait
	// histograms, and per-session in-flight gauges on the given registry
	// (names under "svc.", documented in DESIGN.md §9). Nil disables the
	// export; the ServerStats snapshot is unaffected either way.
	Metrics *obs.Registry
}

// maxBlocksPerRequest bounds one read request; a larger one is a protocol
// error.
const maxBlocksPerRequest = 65536

// prefetchQueue bounds each session's pending-prefetch queue; a full queue
// drops the tail of the planner's list rather than block the read loop.
const prefetchQueue = 128

func (c Config) withDefaults() Config {
	if c.MaxInflightBytes <= 0 {
		c.MaxInflightBytes = 256 << 20
	}
	if c.MaxSessionRequests <= 0 {
		c.MaxSessionRequests = 8
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = 100 * time.Millisecond
	}
	if c.ResponseRunBytes <= 0 {
		c.ResponseRunBytes = 2 << 20
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 10 * time.Second
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 5 * time.Second
	}
	return c
}

// heartbeat returns the effective liveness interval: 0 when disabled.
func (c Config) heartbeat() time.Duration {
	if c.HeartbeatInterval < 0 {
		return 0
	}
	return c.HeartbeatInterval
}

// ServerStats is a point-in-time read of the server's counters (see
// Server.Snapshot).
type ServerStats struct {
	Sessions         int64 // connections that completed the handshake
	ActiveSessions   int64 // currently connected
	Requests         int64 // read requests admitted and served
	ShedRequests     int64 // read requests refused by admission control
	Blocks           int64 // blocks answered (any status)
	BlocksOK         int64 // blocks answered with payloads
	BlocksFailed     int64 // blocks answered with fault statuses
	BytesSent        int64 // payload bytes shipped
	ViewUpdates      int64 // view messages received
	PrefetchIssued   int64
	PrefetchExecuted int64
	PrefetchFailed   int64
	PrefetchDropped  int64
	// PrefetchHits counts demand-served blocks that a session's prefetch
	// had already pulled into the shared cache before the demand arrived —
	// each prefetched block is credited at most once, on its first demand.
	PrefetchHits int64

	// Predict* count view updates by the trajectory model that produced
	// the prefetch position: hovering (dwell), straight-line (linear),
	// orbit/zoom about the center (angular), or too little history (last —
	// the nearest-sample fallback).
	PredictDwell   int64
	PredictLinear  int64
	PredictAngular int64
	PredictLast    int64
	HeartbeatsSent int64 // pings sent by session liveness loops
	DeadPeers      int64 // sessions torn down by an expired idle deadline
	GoawaysSent    int64 // drain announcements delivered

	Redirects      int64 // blocks answered "not owned by this shard" (cluster mode)
	TopologyPushes int64 // topology frames delivered to connected sessions
}

// Server serves block reads to many concurrent sessions from one shared
// cache. Start it with Serve (once per listener); stop it with Close.
type Server struct {
	cfg Config
	// plan decides what every session prefetches; nil when prefetch is
	// disabled.
	plan   *policy.Planner
	sem    *byteSem
	m      *serverMetrics
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	sessions  map[*session]struct{}
	nextID    uint64
	closed    bool
	draining  bool

	// activeReqs counts read requests currently being served across all
	// sessions; Drain waits for it to hit zero.
	activeReqs atomic.Int64

	// topo is the adopted cluster topology, nil outside cluster mode.
	// Swapped whole by UpdateShardMap; each request captures one snapshot
	// at admission so its byte accounting and ownership answers agree.
	topo atomic.Pointer[serverTopology]

	// sums remembers each block's payload CRC-32C from the first send on,
	// as sumKnown|crc (0 = not sent yet): the served volume is immutable, so
	// the sum is a fact about the block id, not about the copy in hand. A
	// cached copy that has rotted since therefore goes out under the sum of
	// the bytes it should hold and fails the client's check, where a sum
	// taken afresh at every send would bless it. sumsTaken counts the sums
	// computed, for tests; it is touched on a first send only.
	sums      []atomic.Uint64
	sumsTaken atomic.Int64
}

const sumKnown = 1 << 32

// payloadSum returns the CRC-32C of block id's encoded payload: remembered
// when the block has been sent before, else taken over raw — the payload
// about to be sent — and remembered.
func (s *Server) payloadSum(id grid.BlockID, raw []byte) uint32 {
	if int(id) >= len(s.sums) { // the cache's grid is not Config.Grid
		return f32le.Checksum(raw)
	}
	if v := s.sums[id].Load(); v != 0 {
		return uint32(v)
	}
	sum := f32le.Checksum(raw)
	s.sums[id].Store(sumKnown | uint64(sum))
	s.sumsTaken.Add(1)
	return sum
}

// NewServer validates the config and returns a server ready to Serve.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Cache == nil {
		return nil, fmt.Errorf("blocksvc: nil cache")
	}
	if cfg.Grid == nil {
		return nil, fmt.Errorf("blocksvc: nil grid")
	}
	if cfg.Cache.RecyclingEnabled() {
		return nil, fmt.Errorf("blocksvc: the served cache recycles evicted buffers; " +
			"responses are written from cache-owned slices, which must stay immutable")
	}
	// Run splitting never goes below one block, so a block that cannot fit
	// one frame could never be answered: refuse it here rather than leave
	// every request for it waiting out its deadline.
	bs := cfg.Grid.BlockSize()
	if frame := runPreludeBytes + okEntryBytes + bs.Count()*4; frame > maxFrameBytes {
		return nil, fmt.Errorf("blocksvc: a %v-voxel block needs a %d-byte frame, over the %d-byte limit",
			bs, frame, maxFrameBytes)
	}
	var plan *policy.Planner
	if cfg.Vis != nil {
		var err error
		if plan, err = policy.NewPlanner(cfg.Vis, cfg.Imp, cfg.Sigma); err != nil {
			return nil, fmt.Errorf("blocksvc: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		plan:      plan,
		sem:       newByteSem(cfg.MaxInflightBytes),
		ctx:       ctx,
		cancel:    cancel,
		listeners: make(map[net.Listener]struct{}),
		sessions:  make(map[*session]struct{}),
		sums:      make([]atomic.Uint64, cfg.Grid.NumBlocks()),
	}
	if cfg.ShardMap != nil {
		if err := cfg.ShardMap.Validate(); err != nil {
			cancel()
			return nil, fmt.Errorf("blocksvc: shard map: %w", err)
		}
		if cfg.ShardID == "" {
			cancel()
			return nil, fmt.Errorf("blocksvc: cluster mode needs a shard id")
		}
		m := cfg.ShardMap.Clone()
		self := m.ShardIndex(cfg.ShardID)
		if self < 0 {
			cancel()
			return nil, fmt.Errorf("blocksvc: shard id %q not in the shard map", cfg.ShardID)
		}
		s.topo.Store(&serverTopology{m: m, ring: m.Ring(), self: self})
	} else if cfg.ShardID != "" {
		cancel()
		return nil, fmt.Errorf("blocksvc: shard id without a shard map")
	}
	s.m = newServerMetrics(s, cfg.Metrics)
	return s, nil
}

// serverTopology is one adopted cluster topology: the map, its ring, and
// this node's position in it (-1 when the node has been removed — it then
// owns nothing and redirects everything).
type serverTopology struct {
	m    *shard.Map
	ring *shard.Ring
	self int
}

// owns reports whether this node is the block's owner under t.
func (t *serverTopology) owns(id grid.BlockID) bool {
	return t.self >= 0 && t.ring.OwnerBlock(id) == t.self
}

// notOwnedError marks a block the addressed shard does not own under the
// given epoch; sendRun encodes it as a redirect entry.
type notOwnedError struct{ epoch uint64 }

func (e *notOwnedError) Error() string {
	return fmt.Sprintf("blocksvc: block not owned by this shard (epoch %d): %s",
		e.epoch, faultio.ErrTransient)
}

func (e *notOwnedError) Unwrap() error { return faultio.ErrTransient }

// UpdateShardMap adopts a newer cluster topology: the map is validated,
// must carry a higher epoch than the current one, and takes effect for
// every request admitted afterwards. Connected sessions get the map pushed
// as a topology frame so their routers re-route live traffic,
// and cache entries this node no longer owns are evicted immediately
// instead of aging out. A node absent from the new map keeps serving
// redirects until its clients leave.
func (s *Server) UpdateShardMap(m *shard.Map) error {
	if s.topo.Load() == nil {
		return fmt.Errorf("blocksvc: not in cluster mode")
	}
	if err := m.Validate(); err != nil {
		return fmt.Errorf("blocksvc: shard map: %w", err)
	}
	s.mu.Lock() // serialize concurrent updates so epoch compare-and-swap holds
	cur := s.topo.Load()
	if m.Epoch <= cur.m.Epoch {
		s.mu.Unlock()
		return fmt.Errorf("blocksvc: stale shard map epoch %d (have %d)", m.Epoch, cur.m.Epoch)
	}
	m = m.Clone()
	nt := &serverTopology{m: m, ring: m.Ring(), self: m.ShardIndex(s.cfg.ShardID)}
	s.topo.Store(nt)
	sessions := make([]*session, 0, len(s.sessions))
	for ss := range s.sessions {
		sessions = append(sessions, ss)
	}
	s.mu.Unlock()
	s.m.topologyPushes.Add(broadcastTopology(sessions, m))
	s.cfg.Cache.EvictWhere(func(id grid.BlockID) bool { return !nt.owns(id) })
	return nil
}

// broadcastTopology pushes a topology frame to every session whose welcome
// is on the wire, returning how many deliveries succeeded.
func broadcastTopology(sessions []*session, m *shard.Map) int64 {
	raw := m.AppendBinary(nil)
	var sent int64
	for _, ss := range sessions {
		if !ss.welcomed.Load() {
			continue
		}
		if ss.send(msgTopology, raw) == nil {
			sent++
		}
	}
	return sent
}

// Serve accepts sessions on l until the server is closed (returns nil) or
// the listener fails. Multiple Serve calls on different listeners share
// the cache and admission budget.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return fmt.Errorf("blocksvc: server closed")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.ctx.Err() != nil || s.stopping() {
				return nil
			}
			return err
		}
		s.StartSession(conn)
	}
}

// stopping reports whether the server has begun shutting down (drain or
// close), at which point accept errors are expected, not reportable.
func (s *Server) stopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed || s.draining
}

// StartSession runs one session over an already established connection
// (Serve calls it per accept; in-process transports call it directly). The
// connection is owned by the server afterwards. Returns false if the
// server is closed.
func (s *Server) StartSession(conn net.Conn) bool {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		conn.Close()
		return false
	}
	s.nextID++
	ss := &session{
		s:    s,
		id:   s.nextID,
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 256<<10),
		mem:  shardMemory{s: s},
	}
	ss.ctx, ss.cancel = context.WithCancel(s.ctx)
	if s.plan != nil {
		// One loop per session, stopped by the session's context.
		// Prefetches coalesce with demand reads (the cache's singleflight),
		// so a session prefetching a block another session is demanding
		// costs nothing extra.
		ss.prefetch = store.NewPrefetcher(ss.ctx, s.cfg.Cache, 1, prefetchQueue, func(err error) {
			if err == nil {
				s.m.prefetchExecuted.Inc()
			} else {
				s.m.prefetchFailed.Inc()
			}
		})
		ss.prefetched = make(map[grid.BlockID]struct{})
		if !s.cfg.PredictOff {
			ss.pred = camera.NewPredictor(camera.PredictorOptions{})
		}
	}
	s.sessions[ss] = struct{}{}
	s.mu.Unlock()
	s.m.registerSession(ss)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ss.run()
	}()
	return true
}

// Drain gracefully retires the server: it stops accepting new sessions,
// announces GOAWAY to every connected client (failover-aware clients move
// new work to a replica), finishes the read requests already in flight,
// then closes. ctx bounds how long in-flight work may take — when it ends
// first, the remaining work is cut off by Close and Drain returns ctx's
// error; a full drain returns nil. Concurrent and repeat calls are safe;
// whichever Drain or Close finishes first wins.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.draining = true
	listeners := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		listeners = append(listeners, l)
	}
	sessions := make([]*session, 0, len(s.sessions))
	for ss := range s.sessions {
		sessions = append(sessions, ss)
	}
	s.mu.Unlock()

	for _, l := range listeners {
		l.Close()
	}
	// Cluster mode: announce the ownership handoff before GOAWAY, so this
	// node's clients adopt the survivor topology and re-route new
	// work to the blocks' next owners instead of redialing a dying node.
	// (The operator's control plane distributes the same map to the
	// surviving servers; this push covers our own clients.)
	if t := s.topo.Load(); t != nil {
		handoff := t.m.WithoutShard(s.cfg.ShardID)
		if len(handoff.Shards) > 0 {
			s.m.topologyPushes.Add(broadcastTopology(sessions, handoff))
		}
	}
	var drainMillis uint32
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			drainMillis = uint32(min(ms, math.MaxUint32))
		}
	}
	var e enc
	e.u32(drainMillis)
	sent := int64(0)
	for _, ss := range sessions {
		if ss.send(msgGoaway, e.b) == nil {
			sent++
		}
	}
	s.m.goawaysSent.Add(sent)

	var err error
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for s.activeReqs.Load() > 0 {
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-tick.C:
			continue
		}
		break
	}
	s.Close()
	return err
}

// Close stops accepting, disconnects every session (canceling their
// in-flight reads), and waits for all session goroutines to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.cancel()
	for l := range s.listeners {
		l.Close()
	}
	for ss := range s.sessions {
		ss.conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Snapshot reads the server's counters. Each field is read atomically; the
// fields are not a consistent cut across each other.
func (s *Server) Snapshot() ServerStats { return s.m.snapshot() }

// blockBytes returns the payload size of a block, 0 for invalid ids (they
// are answered with a permanent status, not read).
func (s *Server) blockBytes(id grid.BlockID) int64 {
	if int(id) < 0 || int(id) >= s.cfg.Grid.NumBlocks() {
		return 0
	}
	return s.cfg.Grid.VoxelCount(id) * 4
}

// session is one client connection: a reader loop that admits requests,
// goroutines serving them (responses serialized by writeMu), and an
// optional prefetch worker driven by the client's view updates.
type session struct {
	s      *Server
	id     uint64
	conn   net.Conn
	br     *bufio.Reader
	ctx    context.Context
	cancel context.CancelFunc

	writeMu sync.Mutex // serializes frames of concurrent responses
	bw      *bufio.Writer

	// welcomed is set once the welcome is on the wire; topology broadcasts
	// skip the session until then, so a pushed frame can never precede it.
	welcomed atomic.Bool
	// tcp is non-nil when the transport takes vectored writes: sendRun then
	// ships a run as one writev instead of through bw.
	tcp *net.TCPConn

	reqWG sync.WaitGroup

	inflightMu sync.Mutex
	inflight   int

	// inflightBytes tracks the admitted bytes this session is currently
	// being served; exported as a per-session gauge while the session lives.
	inflightBytes atomic.Int64

	// prefetch is the session's bounded prefetch queue into the shared
	// cache; nil when prefetch is disabled.
	prefetch *store.Prefetcher
	// prefetched tracks blocks this session queued for prefetch whose first
	// demand has not arrived yet; serveRead resolves each entry once — a
	// cache hit credits PrefetchHits, a miss just clears the entry (the
	// prefetch was too late or already evicted). Guarded by prefetchedMu.
	prefetchedMu sync.Mutex
	prefetched   map[grid.BlockID]struct{}

	// pred extrapolates this session's camera trajectory for prefetch; nil
	// when prefetch is disabled or Config.PredictOff is set. mem is what the
	// planner sees of the shared cache from this shard, planned the scratch
	// its list is built in. All three are touched only by the session's read
	// loop (handleView).
	pred    *camera.Predictor
	mem     shardMemory
	planned []grid.BlockID

	// predViews / predHits back the per-session svc.predict.session.*
	// metrics registered while the session lives.
	predViews atomic.Int64
	predHits  atomic.Int64
}

// run owns the session lifecycle: handshake, read loop, teardown. On exit —
// client disconnect, protocol error, or server close — the session context
// is canceled first, so in-flight cache reads (and the store's merged-run
// loop beneath them) stop instead of pinning server I/O for a client that
// is gone.
func (ss *session) run() {
	defer func() {
		ss.cancel()
		ss.conn.Close()
		ss.reqWG.Wait()
		if ss.prefetch != nil {
			ss.prefetch.Close() // ctx is canceled: returns once the read in flight does
		}
		ss.s.mu.Lock()
		delete(ss.s.sessions, ss)
		ss.s.mu.Unlock()
		ss.s.m.unregisterSession(ss)
		ss.s.m.activeSessions.Add(-1)
	}()
	// The deferred decrement must balance even when the handshake fails,
	// so count the connection up front.
	ss.s.m.activeSessions.Add(1)
	if err := ss.handshake(); err != nil {
		return
	}
	ss.s.m.sessions.Inc()
	hb := ss.s.cfg.heartbeat()
	if hb > 0 {
		ss.reqWG.Add(1)
		go ss.heartbeatLoop(hb)
	}
	var lastArm time.Time
	for {
		// Any inbound frame proves the peer is alive; requiring one within
		// ~2×heartbeat bounds how long a dead client can pin this session.
		// Re-arming the deadline per frame allocates a timer per demand
		// batch, so refresh only once half the heartbeat has elapsed —
		// keeping at least 1.5×hb of slack.
		if hb > 0 {
			if now := time.Now(); now.Sub(lastArm) > hb/2 {
				ss.conn.SetReadDeadline(now.Add(2 * hb))
				lastArm = now
			}
		}
		typ, payload, err := readFrame(ss.br, nil)
		if err != nil {
			if hb > 0 && errors.Is(err, os.ErrDeadlineExceeded) && ss.ctx.Err() == nil {
				ss.s.m.deadPeers.Inc()
			}
			return // disconnect, torn frame, or dead peer: tear the session down
		}
		switch typ {
		case msgRead:
			if !ss.handleRead(payload) {
				return
			}
		case msgView:
			if !ss.handleView(payload) {
				return
			}
		case msgPong:
			if _, ok := decodeToken(payload); !ok {
				ss.fail("bad pong")
				return
			}
			// The frame's arrival was the point; tokens are not matched.
		default:
			ss.fail(fmt.Sprintf("unexpected message type %d", typ))
			return
		}
	}
}

// heartbeatLoop pings the client at the liveness cadence so an otherwise
// idle client has inbound traffic to answer (its own read deadline) and
// this session produces the frames the client's deadline wants to see.
func (ss *session) heartbeatLoop(interval time.Duration) {
	defer ss.reqWG.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var token uint64
	for {
		select {
		case <-ss.ctx.Done():
			return
		case <-tick.C:
			token++
			var e enc
			e.u64(token)
			if ss.send(msgPing, e.b) != nil {
				return
			}
			ss.s.m.heartbeatsSent.Inc()
		}
	}
}

// handshake validates the client hello and answers with the session id,
// served geometry, and liveness cadence. Both directions are bounded by
// HandshakeTimeout: the read deadline covers a client that never says
// hello, the write deadline covers a slow-loris peer that connects and
// never drains its receive buffer — without it the welcome write blocks
// and pins this goroutine forever.
func (ss *session) handshake() error {
	deadline := time.Now().Add(ss.s.cfg.HandshakeTimeout)
	ss.conn.SetReadDeadline(deadline)
	ss.conn.SetWriteDeadline(deadline)
	typ, payload, err := readFrame(ss.br, nil)
	if err != nil {
		return err
	}
	hello, ok := decodeHello(payload)
	if typ != msgHello || !ok || hello.Magic != protoMagic {
		ss.fail("bad hello")
		return fmt.Errorf("blocksvc: bad hello")
	}
	if hello.Version != ProtoVersion {
		ss.fail(fmt.Sprintf("protocol version %d unsupported (server speaks %d)",
			hello.Version, ProtoVersion))
		return fmt.Errorf("blocksvc: version mismatch")
	}
	ss.tcp, _ = ss.conn.(*net.TCPConn)
	h := ss.s.cfg.Header
	var e enc
	e.u16(ProtoVersion)
	e.u64(ss.id)
	e.u32(uint32(h.Res.X))
	e.u32(uint32(h.Res.Y))
	e.u32(uint32(h.Res.Z))
	e.u32(uint32(h.Block.X))
	e.u32(uint32(h.Block.Y))
	e.u32(uint32(h.Block.Z))
	e.u32(uint32(h.Variable))
	e.u32(uint32(h.Blocks))
	e.u32(uint32(h.Version))
	e.u32(uint32(ss.s.cfg.heartbeat() / time.Millisecond))
	e.u32(uint32(ss.s.cfg.MaxSessionRequests))
	// A cluster node advertises its topology, length-prefixed, so the client
	// becomes a router before its first read; a flat server declares 0 bytes.
	var raw []byte
	if topo := ss.s.topo.Load(); topo != nil {
		raw = topo.m.AppendBinary(nil)
	}
	e.u32(uint32(len(raw)))
	e.raw(raw)
	if err := ss.send(msgWelcome, e.b); err != nil {
		return err
	}
	ss.welcomed.Store(true)
	ss.conn.SetReadDeadline(time.Time{})
	ss.conn.SetWriteDeadline(time.Time{})
	return nil
}

// send writes one frame under the write lock and flushes it.
func (ss *session) send(typ byte, payload []byte) error {
	ss.writeMu.Lock()
	defer ss.writeMu.Unlock()
	if err := writeFrame(ss.bw, typ, payload); err != nil {
		return err
	}
	return ss.bw.Flush()
}

// fail reports a fatal protocol error to the client; the caller closes the
// session.
func (ss *session) fail(msg string) {
	ss.send(msgError, []byte(msg))
}

// handleRead admits one read request and serves it on its own goroutine
// (requests pipeline; responses interleave at frame granularity, keyed by
// request id). Returns false on a protocol error.
func (ss *session) handleRead(payload []byte) bool {
	msg, ok := decodeRead(payload, maxBlocksPerRequest)
	if !ok {
		ss.fail("bad read request")
		return false
	}
	// One topology snapshot per request: byte accounting here and the
	// ownership answers in serveRead must agree even if the map swaps
	// mid-request. Blocks this shard does not own are answered with a
	// 9-byte redirect and never touch the cache, so they cost the
	// admission budget nothing.
	topo := ss.s.topo.Load()
	var bytes int64
	for _, id := range msg.IDs {
		if topo != nil && !topo.owns(id) {
			continue
		}
		bytes += ss.s.blockBytes(id)
	}

	// Per-session cap: shed rather than queue a greedy client's backlog.
	ss.inflightMu.Lock()
	if ss.inflight >= ss.s.cfg.MaxSessionRequests {
		ss.inflightMu.Unlock()
		ss.shed(msg.Req)
		return true
	}
	ss.inflight++
	ss.inflightMu.Unlock()

	ss.reqWG.Add(1)
	ss.s.activeReqs.Add(1) // counted before the goroutine starts so Drain can't miss it
	go func() {
		defer ss.reqWG.Done()
		defer ss.s.activeReqs.Add(-1)
		defer func() {
			ss.inflightMu.Lock()
			ss.inflight--
			ss.inflightMu.Unlock()
		}()
		ss.serveRead(msg.Req, msg.IDs, bytes, msg.DeadlineMillis, topo)
	}()
	return true
}

// shed refuses one request with a retryable status.
func (ss *session) shed(req uint64) {
	ss.s.m.shedRequests.Inc()
	var e enc
	e.u64(req)
	ss.send(msgShed, e.b)
}

// serveRead admits the request against the global in-flight byte budget,
// reads through the shared cache in bounded runs, and streams the results.
// Deadline-aware shedding: the request waits for admission at most
// MaxQueueWait (or the client's own deadline, when sooner) and is then
// refused with a retryable shed status instead of queueing unboundedly. A
// request larger than the whole budget can never be admitted and is shed
// immediately.
func (ss *session) serveRead(req uint64, ids []grid.BlockID, bytes int64, deadlineMillis uint32, topo *serverTopology) {
	reqCtx := ss.ctx
	var cancel context.CancelFunc
	if deadlineMillis > 0 {
		reqCtx, cancel = context.WithTimeout(reqCtx, time.Duration(deadlineMillis)*time.Millisecond)
		defer cancel()
	}

	if bytes > ss.s.cfg.MaxInflightBytes {
		ss.shed(req)
		return
	}
	admitStart := time.Now()
	var err error
	if !ss.s.sem.TryAcquire(bytes) {
		admitCtx, admitCancel := context.WithTimeout(reqCtx, ss.s.cfg.MaxQueueWait)
		err = ss.s.sem.Acquire(admitCtx, bytes)
		admitCancel()
	}
	wait := time.Since(admitStart).Nanoseconds()
	if err != nil {
		if ss.ctx.Err() != nil {
			return // session is gone; nobody is listening
		}
		ss.s.m.shedWait.Observe(wait)
		ss.shed(req)
		return
	}
	ss.s.m.queueWait.Observe(wait)
	ss.inflightBytes.Add(bytes)
	defer func() {
		ss.inflightBytes.Add(-bytes)
		ss.s.sem.Release(bytes)
	}()
	ss.s.m.requests.Inc()

	// Serve and stream in runs of roughly ResponseRunBytes: results reach
	// the client as they are produced and one request never stages the
	// whole response in memory. Staging is pooled across requests and
	// sessions, so the steady state regrows nothing. Each concurrently
	// served request owns its own scratch — sessions pipeline.
	rs := getRunScratch()
	defer putRunScratch(rs)
	e := &rs.e
	idx := 0
	for idx < len(ids) {
		// A run ends at the ResponseRunBytes target or at what one frame can
		// carry (every entry costs at most okEntryBytes around its payload),
		// whichever comes first, and never below one block: NewServer has
		// checked that any one block fits a frame.
		runEnd := idx
		var runBytes int64
		for runEnd < len(ids) && runEnd-idx < 65535 {
			var b int64
			if topo == nil || topo.owns(ids[runEnd]) {
				b = ss.s.blockBytes(ids[runEnd])
			}
			entries := int64(runEnd-idx+1) * okEntryBytes
			if runEnd > idx && (runBytes+b > ss.s.cfg.ResponseRunBytes ||
				runPreludeBytes+entries+runBytes+b > maxFrameBytes) {
				break
			}
			runBytes += b
			runEnd++
		}
		run := ids[idx:runEnd]
		var vals [][]float32
		var hit []bool
		var errs []error
		if topo == nil {
			vals, hit, errs = ss.s.cfg.Cache.GetBatch(reqCtx, run)
		} else {
			vals, hit, errs = ss.serveRunSharded(reqCtx, run, topo)
		}
		ss.notePrefetchHits(run, hit, errs)
		if !ss.sendRun(rs, req, idx, run, vals, errs) {
			return // the frame was not written: the session is torn or failed
		}
		idx = runEnd
	}
	e.reset()
	e.u64(req)
	ss.send(msgDone, e.b)
}

// serveRunSharded answers one run on a cluster node: only owned blocks go
// through the shared cache (preserving the per-shard singleflight
// invariant — a non-owned request never triggers a backing read here), and
// the rest are answered in place with a redirect carrying the topology
// epoch the decision was made under.
func (ss *session) serveRunSharded(ctx context.Context, run []grid.BlockID, topo *serverTopology) ([][]float32, []bool, []error) {
	vals := make([][]float32, len(run))
	hit := make([]bool, len(run))
	errs := make([]error, len(run))
	owned := make([]grid.BlockID, 0, len(run))
	pos := make([]int, 0, len(run))
	for i, id := range run {
		if topo.owns(id) {
			owned = append(owned, id)
			pos = append(pos, i)
			continue
		}
		errs[i] = &notOwnedError{epoch: topo.m.Epoch}
	}
	if len(owned) > 0 {
		ov, oh, oe := ss.s.cfg.Cache.GetBatch(ctx, owned)
		for k, i := range pos {
			vals[i] = ov[k]
			hit[i] = oh[k]
			errs[i] = oe[k]
		}
	}
	return vals, hit, errs
}

// notePrefetchHits resolves the prefetch attribution of one demand run:
// every block this session had queued for prefetch is settled on its first
// demand — served from the cache it counts as a prefetch hit, missed it
// counts as nothing (the prefetch was too late or already evicted). Either
// way the entry is cleared, so revisits of a warm block can't inflate the
// hit ratio.
func (ss *session) notePrefetchHits(run []grid.BlockID, hit []bool, errs []error) {
	if ss.prefetch == nil {
		return
	}
	var hits int64
	ss.prefetchedMu.Lock()
	for i, id := range run {
		if _, ok := ss.prefetched[id]; !ok {
			continue
		}
		delete(ss.prefetched, id)
		if hit[i] && errs[i] == nil {
			hits++
		}
	}
	ss.prefetchedMu.Unlock()
	if hits > 0 {
		ss.predHits.Add(hits)
		ss.s.m.prefetchHits.Add(hits)
	}
}

// runScratch is everything one in-flight request needs to encode its
// response runs: frame staging and the segment list of the write. Pooled
// per request — a session serves up to MaxSessionRequests concurrently, so
// this state cannot live on the session.
type runScratch struct {
	e    enc
	cuts []int       // staging offsets where payloads insert
	pays [][]byte    // payload views, parallel to cuts
	bufs net.Buffers // the frame's segments: staging pieces and payloads interleaved
}

var runScratchPool = sync.Pool{New: func() any { return new(runScratch) }}

func getRunScratch() *runScratch {
	rs := runScratchPool.Get().(*runScratch)
	rs.e.reset()
	return rs
}

func putRunScratch(rs *runScratch) { runScratchPool.Put(rs) }

// Encoded sizes of a blocks frame's parts: the prelude (req, firstIdx, n),
// and what an OK entry carries around its payload (status, length, crc).
const (
	runPreludeBytes = 8 + 4 + 2
	okEntryBytes    = 1 + 4 + 4
)

// payloadView is f32le.Bytes; a variable only so TestBigEndianHostRoundTrip can
// take the view away, as a big-endian host does, and drive the staged branch.
var payloadView = f32le.Bytes

// sendRun encodes one run of results as a blocks frame and ships it — the
// one encoder, on every transport. Staging holds only the frame header and
// per-block metadata; every OK payload segment is a view straight into the
// cache-owned float32 slice (immutable while it is out: NewServer refuses a
// recycling cache), so no payload byte is copied here, and none is read
// either once the block's CRC is known (Server.payloadSum). A TCP transport
// takes the segments as one vectored write; any other goes through the
// session's buffered writer. Returns false when the frame was not written:
// a failed write, or a run no frame can carry, which fails the session out
// loud — the client is never left waiting for a frame that will not come.
func (ss *session) sendRun(rs *runScratch, req uint64, firstIdx int, ids []grid.BlockID,
	vals [][]float32, errs []error) bool {
	e := &rs.e
	var okCount, failCount, redirects, sent int64
	total := runPreludeBytes
	for i := range ids {
		switch errs[i].(type) {
		case nil:
			total += okEntryBytes + len(vals[i])*4
		case *notOwnedError:
			total += 1 + 8 // status, redirect epoch
		default:
			total++ // status
		}
	}
	if total > maxFrameBytes {
		ss.fail(fmt.Sprintf("a run of %d blocks needs a %d-byte frame, over the %d-byte limit",
			len(ids), total, maxFrameBytes))
		ss.conn.Close()
		return false
	}
	// Staging layout: frame header, then meta runs split at each payload
	// insertion point. Offsets (not views) are recorded during encoding so
	// staging growth can't invalidate anything.
	e.reset()
	e.u32(uint32(total))
	e.u8(msgBlocks)
	e.u64(req)
	e.u32(uint32(firstIdx))
	e.u16(uint16(len(ids)))
	cuts := rs.cuts[:0]
	pays := rs.pays[:0]
	for i := range ids {
		if errs[i] != nil {
			if no, ok := errs[i].(*notOwnedError); ok {
				redirects++
				e.u8(byte(statusRedirect))
				e.u64(no.epoch)
				continue
			}
			failCount++
			e.u8(byte(statusOf(errs[i])))
			continue
		}
		okCount++
		e.u8(byte(statusOK))
		e.u32(uint32(len(vals[i]) * 4))
		sent += int64(len(vals[i]) * 4)
		if pay := payloadView(vals[i]); pay != nil {
			cuts = append(cuts, len(e.b))
			pays = append(pays, pay)
			e.u32(ss.s.payloadSum(ids[i], pay))
			continue
		}
		// Big-endian host: memory is not the wire encoding, so the converted
		// bytes are staged in place of a view.
		off := len(e.b)
		e.b = f32le.Append(e.b, vals[i])
		e.u32(ss.s.payloadSum(ids[i], e.b[off:]))
	}
	bufs := rs.bufs[:0]
	prev := 0
	for k, cut := range cuts {
		bufs = append(bufs, e.b[prev:cut], pays[k])
		prev = cut
	}
	if prev < len(e.b) {
		bufs = append(bufs, e.b[prev:])
	}
	rs.cuts, rs.pays = cuts, pays
	// Keep the assembled array for the next run before WriteTo consumes the
	// local header.
	rs.bufs = bufs[:0]
	m := ss.s.m
	m.blocks.Add(int64(len(ids)))
	m.blocksOK.Add(okCount)
	m.blocksFailed.Add(failCount)
	m.redirects.Add(redirects)
	m.bytesSent.Add(sent)
	ss.writeMu.Lock()
	defer ss.writeMu.Unlock()
	if ss.tcp != nil {
		if err := ss.bw.Flush(); err != nil {
			return false
		}
		_, err := bufs.WriteTo(ss.tcp)
		return err == nil
	}
	for _, seg := range bufs {
		if _, err := ss.bw.Write(seg); err != nil {
			return false
		}
	}
	return ss.bw.Flush() == nil
}

// shardMemory is the planner's view of the shared cache from one session.
// Cluster mode: a block this shard does not own under topo reads as needing
// no prefetch — warming it would break per-shard read accounting and be
// evicted on the next topology change anyway — and so takes none of the
// budget.
type shardMemory struct {
	s    *Server
	topo *serverTopology // snapshot taken for the view being handled; nil outside cluster mode
}

func (m *shardMemory) Contains(id grid.BlockID) bool {
	return (m.topo != nil && !m.topo.owns(id)) || m.s.cfg.Cache.Contains(id)
}
func (m *shardMemory) SizeOf(id grid.BlockID) int64 { return m.s.blockBytes(id) }
func (m *shardMemory) Capacity() int64              { return m.s.cfg.Cache.Capacity() }

// handleView updates the session's predicted working set: the client's
// camera position extends the session's trajectory history, the predictor
// extrapolates where the camera is heading, and the planner turns the
// *predicted* position into the prefetch list — T_visible's set there,
// above the entropy threshold, not yet in the shared cache, most likely
// first — which is queued in that order. With the predictor off (or under
// one sample of history) the lookup position is the last-seen one, the
// nearest-sample baseline. Returns false on a protocol error.
func (ss *session) handleView(payload []byte) bool {
	pos, ok := decodeView(payload)
	if !ok {
		ss.fail("bad view update")
		return false
	}
	// Counted on the way out, after the prefetch counters: a Snapshot that
	// sees this view also sees everything it issued.
	defer ss.s.m.viewUpdates.Inc()
	if ss.prefetch == nil {
		return true
	}
	target := pos
	if ss.pred != nil {
		ss.pred.Observe(pos)
		var kind camera.PredictKind
		target, kind = ss.pred.Predict()
		ss.predViews.Add(1)
		switch kind {
		case camera.PredictDwell:
			ss.s.m.predictDwell.Inc()
		case camera.PredictLinear:
			ss.s.m.predictLinear.Inc()
		case camera.PredictAngular:
			ss.s.m.predictAngular.Inc()
		default:
			ss.s.m.predictLast.Inc()
		}
	}
	var issued, dropped int64
	ss.mem.topo = ss.s.topo.Load()
	ss.planned = ss.s.plan.Prefetch(ss.planned[:0], target, nil, &ss.mem)
	for _, id := range ss.planned {
		switch ss.prefetch.Offer(id) {
		case store.Issued:
			issued++
			ss.prefetchedMu.Lock()
			ss.prefetched[id] = struct{}{}
			ss.prefetchedMu.Unlock()
		case store.Dropped:
			dropped++
		}
	}
	ss.s.m.prefetchIssued.Add(issued)
	ss.s.m.prefetchDropped.Add(dropped)
	return true
}

// byteSem is a context-aware weighted semaphore with FIFO admission: the
// server's global in-flight byte budget.
type byteSem struct {
	capacity int64
	mu       sync.Mutex
	avail    int64
	waiters  []*semWaiter
}

type semWaiter struct {
	need  int64
	ready chan struct{}
}

func newByteSem(capacity int64) *byteSem {
	return &byteSem{capacity: capacity, avail: capacity}
}

// InUse reports the units currently acquired — the server's in-flight byte
// gauge.
func (s *byteSem) InUse() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.capacity - s.avail
}

// TryAcquire takes n units only if they are free right now (and no earlier
// request is queued), so the uncontended hot path skips the deadline
// machinery Acquire's ctx needs.
func (s *byteSem) TryAcquire(n int64) bool {
	s.mu.Lock()
	ok := len(s.waiters) == 0 && s.avail >= n
	if ok {
		s.avail -= n
	}
	s.mu.Unlock()
	return ok
}

// Acquire takes n units, waiting FIFO behind earlier requests, until ctx
// ends. The caller must Release exactly n on success.
func (s *byteSem) Acquire(ctx context.Context, n int64) error {
	s.mu.Lock()
	if len(s.waiters) == 0 && s.avail >= n {
		s.avail -= n
		s.mu.Unlock()
		return nil
	}
	w := &semWaiter{need: n, ready: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		granted := true
		for i, x := range s.waiters {
			if x == w {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				granted = false
				break
			}
		}
		s.mu.Unlock()
		if granted {
			// Release raced the cancellation and already granted us the
			// units; hand them back.
			s.Release(n)
		}
		return ctx.Err()
	}
}

// Release returns n units and admits as many queued waiters as now fit, in
// arrival order.
func (s *byteSem) Release(n int64) {
	s.mu.Lock()
	s.avail += n
	for len(s.waiters) > 0 && s.waiters[0].need <= s.avail {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.avail -= w.need
		close(w.ready)
	}
	s.mu.Unlock()
}
