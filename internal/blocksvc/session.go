package blocksvc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/camera"
	"repro/internal/grid"
	"repro/internal/store"
)

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

	// inflight counts the read requests this session is being served; only
	// the read loop adds to it, so a check after the add is exact.
	inflight atomic.Int64

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
	// when prefetch is disabled. mem is what the planner sees of the shared
	// cache from this shard, planned the scratch its list is built in. All
	// three are touched only by the session's read loop (handleView).
	pred    *camera.Predictor
	mem     shardMemory
	planned []grid.BlockID
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
// served geometry, and liveness cadence. Both directions are held to the
// rule every later frame is: two heartbeats of silence (two of the
// default's when liveness is off). The read deadline covers a client that
// never says hello, the write deadline a slow-loris peer that connects and
// never drains its receive buffer — without it the welcome write blocks and
// pins this goroutine forever.
func (ss *session) handshake() error {
	silence := 2 * defaultHeartbeat
	if hb := ss.s.cfg.heartbeat(); hb > 0 {
		silence = 2 * hb
	}
	deadline := time.Now().Add(silence)
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

// shardMemory is the planner's view of the shared cache from one session.
// Cluster mode: a block this shard does not own under topo reads as needing
// no prefetch — warming it would break per-shard read accounting and be
// evicted on the next topology change anyway — and so takes none of the
// budget.
type shardMemory struct {
	s    *Server
	topo *serverTopology // snapshot taken for the view being handled; nil outside cluster mode
}

func (m *shardMemory) AppendMissing(dst, ids []grid.BlockID) []grid.BlockID {
	start := len(dst)
	dst = m.s.cfg.Cache.AppendMissing(dst, ids)
	owned := dst[:start]
	for _, id := range dst[start:] {
		if m.topo.owns(id) {
			owned = append(owned, id)
		}
	}
	return owned
}
func (m *shardMemory) SizeOf(id grid.BlockID) int64 { return m.s.blockBytes(id) }
func (m *shardMemory) Capacity() int64              { return m.s.cfg.Cache.Capacity() }

// handleView updates the session's predicted working set: the client's
// camera position extends the session's trajectory history, the predictor
// extrapolates where the camera is heading, and the planner turns the
// *predicted* position into the prefetch list — T_visible's set there,
// above the entropy threshold, not yet in the shared cache, most likely
// first — which is queued in that order. Under one sample of history the
// predicted position is the last-seen one, the nearest-sample baseline.
// Returns false on a protocol error.
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
	ss.pred.Observe(pos)
	target, kind := ss.pred.Predict()
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
	ss.mem.topo = ss.s.topo.Load()
	ss.planned = ss.s.plan.Prefetch(ss.planned[:0], target, nil, &ss.mem)
	issued, _, dropped := ss.prefetch.Offer(ss.planned)
	ss.prefetchedMu.Lock()
	for _, id := range ss.planned[:issued] {
		ss.prefetched[id] = struct{}{}
	}
	ss.prefetchedMu.Unlock()
	ss.s.m.prefetchIssued.Add(int64(issued))
	ss.s.m.prefetchDropped.Add(int64(dropped))
	return true
}
