package blocksvc

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net"
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

	// Vis and Imp enable per-session predictive prefetch: each session's
	// trajectory predictor (camera.Predictor) extrapolates the client's
	// view updates, the *predicted* camera position is run through
	// T_visible and the entropy threshold Sigma, and the predicted
	// high-entropy blocks are pulled into the shared cache while the client
	// renders. Nil disables prefetch.
	Vis   *visibility.Table
	Imp   *entropy.Table
	Sigma float64

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
	// ShardMap, when non-nil, runs the server in cluster mode: this node is
	// one shard of a consistent-hash cluster, admits only the blocks it
	// owns (answering others with a redirect carrying the current epoch),
	// and advertises the topology in every welcome. ShardID names this
	// node's shard in the map. Topology changes arrive through
	// updateShardMap and are pushed to connected clients.
	ShardMap *shard.Map
	// ShardID is this node's shard identity within ShardMap. Required in
	// cluster mode.
	ShardID string

	// HeartbeatInterval is the liveness cadence advertised in the welcome:
	// each session pings the client at this interval and requires some
	// inbound frame within twice of it, so a dead or wedged peer is torn
	// down within 2×HeartbeatInterval instead of pinning its session
	// forever. The hello read and the welcome write are held to the same
	// two intervals (two of the default's when liveness is off). 0 means
	// the 5s default; negative disables liveness. The welcome advertises
	// whole milliseconds, so NewServer refuses an interval under 1ms.
	HeartbeatInterval time.Duration

	// Metrics, when non-nil, exposes the server's counters, admission-wait
	// histograms and in-flight byte gauge on the given registry (names under
	// "svc.", documented in DESIGN.md §9; none is per session, so the name
	// set does not grow with the sessions connected). Nil disables the
	// export; the ServerStats snapshot is unaffected either way.
	Metrics *obs.Registry

	// runBytes, when positive, replaces responseRunBytes; this package's
	// tests use it to split a response into many small frames.
	runBytes int64
}

// responseRunBytes is the target payload size of one blocks frame: the
// response to a large read streams as a sequence of runs of roughly this
// size.
const responseRunBytes = 2 << 20

// maxBlocksPerRequest bounds one read request; a larger one is a protocol
// error.
const maxBlocksPerRequest = 65536

// prefetchQueue bounds each session's pending-prefetch queue; a full queue
// drops the tail of the planner's list rather than block the read loop.
const prefetchQueue = 128

// defaultHeartbeat is HeartbeatInterval's default.
const defaultHeartbeat = 5 * time.Second

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
	if c.runBytes <= 0 {
		c.runBytes = responseRunBytes
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = defaultHeartbeat
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
	// Swapped whole by updateShardMap; each request captures one snapshot
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
	if cfg.HeartbeatInterval > 0 && cfg.HeartbeatInterval < time.Millisecond {
		return nil, fmt.Errorf("blocksvc: heartbeat %v is under the welcome's 1ms resolution", cfg.HeartbeatInterval)
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
	var topo *serverTopology
	if cfg.ShardMap != nil {
		if err := cfg.ShardMap.Validate(); err != nil {
			return nil, fmt.Errorf("blocksvc: shard map: %w", err)
		}
		if cfg.ShardID == "" {
			return nil, fmt.Errorf("blocksvc: cluster mode needs a shard id")
		}
		m := cfg.ShardMap.Clone()
		topo = &serverTopology{m: m, ring: m.Ring(), self: m.ShardIndex(cfg.ShardID)}
		if topo.self < 0 {
			return nil, fmt.Errorf("blocksvc: shard id %q not in the shard map", cfg.ShardID)
		}
	} else if cfg.ShardID != "" {
		return nil, fmt.Errorf("blocksvc: shard id without a shard map")
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
	s.topo.Store(topo)
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

// owns reports whether this node is the block's owner under t. A flat
// server (t nil) owns every block.
func (t *serverTopology) owns(id grid.BlockID) bool {
	return t == nil || (t.self >= 0 && t.ring.OwnerBlock(id) == t.self)
}

// notOwnedError marks a block the addressed shard does not own under the
// given epoch; sendRun encodes it as a redirect entry.
type notOwnedError struct{ epoch uint64 }

func (e *notOwnedError) Error() string {
	return fmt.Sprintf("blocksvc: block not owned by this shard (epoch %d): %s",
		e.epoch, faultio.ErrTransient)
}

func (e *notOwnedError) Unwrap() error { return faultio.ErrTransient }

// updateShardMap adopts a newer cluster topology: the map is validated,
// must carry a higher epoch than the current one, and takes effect for
// every request admitted afterwards. Connected sessions get the map pushed
// as a topology frame so their routers re-route live traffic,
// and cache entries this node no longer owns are evicted immediately
// instead of aging out. A node absent from the new map keeps serving
// redirects until its clients leave.
func (s *Server) updateShardMap(m *shard.Map) error {
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
		s.startSession(conn)
	}
}

// stopping reports whether the server has begun shutting down (drain or
// close), at which point accept errors are expected, not reportable.
func (s *Server) stopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed || s.draining
}

// startSession runs one session over an accepted connection, which the
// server owns afterwards; a closed or draining server closes it at once.
func (s *Server) startSession(conn net.Conn) {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		conn.Close()
		return
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
		ss.pred = camera.NewPredictor()
	}
	s.sessions[ss] = struct{}{}
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ss.run()
	}()
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
