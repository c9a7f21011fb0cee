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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/f32le"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/shard"
	"repro/internal/vec"
)

// Outcomes of one tagged request, set once under pendingReq.mu together
// with the token put in its done channel.
const (
	reqOK   = 1 + iota // server answered every block and sent done
	reqShed            // server refused the request (admission control)
	reqTorn            // connection died with the tag unanswered
)

// pendingReq is one tagged in-flight request: the read loop fills vals and
// errs as responses stream in, and the issuing batch harvests them once
// the token is in done. Partial fills survive a tear, so failover re-issues
// only the tag's unanswered blocks.
//
// Records are reused. A batch takes one from the reader's free list
// (takeReq) holding it twice: once for itself and once for the read loop,
// the tag's registration in rc.pending. The batch's hold ends when it has
// harvested the record, or at once when it leaves on its own ctx; the read
// loop's when it retires the tag (done, shed) or, for the tags left
// registered on a torn connection, when the loop exits. Only the last
// release (release) empties the record and returns it, so a tag's late
// answer can land only in the record registered under that tag. done is
// 1-buffered because a closed channel cannot be re-armed: the outcome puts
// the one token in it, and the last release takes it out if the batch left
// without it.
type pendingReq struct {
	req uint64
	ids []grid.BlockID

	mu       sync.Mutex
	vals     [][]float32
	errs     []error
	answered int
	outcome  int
	err      error
	holds    int           // the batch and the read loop, until each releases
	done     chan struct{} // holds the one token once outcome is set
}

// errTaken stands in a record's errs for a block its batch has harvested:
// the value has left the record, and a second answer for the index is
// still a duplicate.
var errTaken = errors.New("blocksvc: block taken by its batch")

// maxFreeReqs bounds the spent request records a RemoteReader keeps for
// reuse, above the tags it has in flight at once: each connection carries
// at most pipelineDepth, a group at most Conns connections.
const maxFreeReqs = 64

// takeReq hands a batch a record for n blocks, held twice (see
// pendingReq): a spent one from the free list, or a new one. ids, vals and
// errs are n long, vals and errs all nil.
func (r *RemoteReader) takeReq(n int) *pendingReq {
	var p *pendingReq
	r.reqMu.Lock()
	if k := len(r.freeReqs); k > 0 {
		p = r.freeReqs[k-1]
		r.freeReqs[k-1] = nil
		r.freeReqs = r.freeReqs[:k-1]
	}
	r.reqMu.Unlock()
	if p == nil {
		p = &pendingReq{done: make(chan struct{}, 1)}
	}
	if cap(p.ids) < n {
		p.ids = make([]grid.BlockID, n)
		p.vals = make([][]float32, n)
		p.errs = make([]error, n)
	}
	p.ids, p.vals, p.errs = p.ids[:n], p.vals[:n], p.errs[:n]
	p.holds = 2
	return p
}

// release ends one hold on p. The last one finds nobody writing the record
// any more: a block still in vals arrived after its batch left on its ctx
// and is nobody's, so its buffer goes back to the pool; then the record is
// emptied — no block slice or error stays reachable from the free list —
// and returned.
func (r *RemoteReader) release(p *pendingReq) {
	p.mu.Lock()
	p.holds--
	last := p.holds == 0
	p.mu.Unlock()
	if !last {
		return
	}
	for k, v := range p.vals {
		if v != nil {
			r.bufs.Put(v)
			p.vals[k] = nil
		}
	}
	clear(p.errs)
	select {
	case <-p.done:
	default:
	}
	p.req, p.answered, p.outcome, p.err = 0, 0, 0, nil
	p.ids, p.vals, p.errs = p.ids[:0], p.vals[:0], p.errs[:0]
	r.reqMu.Lock()
	if len(r.freeReqs) < maxFreeReqs {
		r.freeReqs = append(r.freeReqs, p)
	}
	r.reqMu.Unlock()
}

// resolve sets p's outcome and puts its token, unless an outcome was set
// first. Called with p.mu held.
func (p *pendingReq) resolve(outcome int, err error) {
	if p.outcome == 0 {
		p.outcome, p.err = outcome, err
		p.done <- struct{}{}
	}
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

	hb         time.Duration // server-advertised heartbeat interval (0 = liveness disabled)
	maxReqs    int           // server-granted concurrent requests
	welcomeMap *shard.Map    // cluster topology from the welcome, consumed by connect

	tags   atomic.Int32 // reserved request slots
	dead   atomic.Bool  // torn down; skip on acquire
	goaway atomic.Bool  // endpoint announced drain on this conn; do not reuse

	writeMu      sync.Mutex
	lastWriteArm time.Time // guarded by writeMu; see armWrite
	we           enc       // frame staging, guarded by writeMu

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
		k := min(int32(want), free)
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
		raw, err := r.cfg.Dial(tctx, ep.addr)
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
	g.mu.Lock()
	if err := g.gone(); err != nil {
		g.mu.Unlock()
		conn.c.Close()
		return nil, err
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
		in:      newFrameReader(raw, 256<<10),
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
	rc.maxReqs = max(1, min(int(welcome.MaxRequests), pipelineDepth))
	rc.welcomeMap = welcome.ShardMap
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
	rc.in.large = r.g.BlockSize().Count()*4 >= largePayloadBytes
	return rc, nil
}

// usable reports whether rc can carry new work.
func (rc *rconn) usable() bool {
	return !rc.dead.Load() && !rc.goaway.Load() && !rc.ep.draining.Load()
}

// armWrite refreshes the write deadline once its slack has decayed below
// 1.5×hb. Called with writeMu held before every write; the deadline is never
// cleared — since each write path arms first, a leftover deadline cannot
// fail a later write spuriously, and skipping the clear halves the timer
// traffic a deadline round-trip costs.
func (rc *rconn) armWrite() {
	if rc.hb <= 0 {
		return
	}
	if now := time.Now(); now.Sub(rc.lastWriteArm) > rc.hb/2 {
		rc.c.SetWriteDeadline(now.Add(2 * rc.hb))
		rc.lastWriteArm = now
	}
}

// teardown kills a torn connection exactly once: closes the socket,
// deregisters it from its group, and fails every pending tag transiently
// so their batches fail over. The endpoint is charged a failure unless the
// client itself is closing or the conn was drained by GOAWAY; an idle conn
// whose liveness deadline expired additionally counts a dead peer.
//
// The failed tags stay registered: each is the read loop's to release, and
// the loop may still be reading a frame into one. They are failed under
// rc.mu, so by the time the loop sees the connection dead and releases
// them (releasePending), every one holds its outcome.
func (rc *rconn) teardown(cause error) {
	err := fmt.Errorf("blocksvc: connection lost: %v: %w", cause, faultio.ErrTransient)
	rc.mu.Lock()
	if rc.dead.Load() {
		rc.mu.Unlock()
		return
	}
	rc.dead.Store(true)
	npend := len(rc.pending)
	for _, p := range rc.pending {
		p.mu.Lock()
		p.resolve(reqTorn, err)
		p.mu.Unlock()
	}
	rc.mu.Unlock()
	rc.c.Close()
	r := rc.r
	g := rc.grp
	g.mu.Lock()
	delete(g.conns, rc)
	g.nconns--
	g.mu.Unlock()
	g.wake()
	if r.closed.Load() || rc.goaway.Load() {
		return
	}
	if npend == 0 && errors.Is(cause, os.ErrDeadlineExceeded) {
		r.m.deadPeers.Inc()
	}
	r.noteFailure(rc.ep)
}

// releasePending ends the read loop's hold on every tag still registered:
// the loop has stopped and the connection is dead, so no tag registers or
// is answered any more.
func (rc *rconn) releasePending() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for req, p := range rc.pending {
		delete(rc.pending, req)
		rc.r.release(p)
	}
}

// readLoop is rc's dedicated receiver: it owns the conn's read side and
// demultiplexes every inbound frame by tag. Any protocol violation or
// transport error tears the connection down.
func (rc *rconn) readLoop() {
	defer rc.r.connWG.Done()
	buf := make([]byte, 0, 64<<10)
	var lastArm time.Time
	for {
		if rc.hb > 0 {
			// Re-arming every frame makes the runtime allocate a timer per
			// block batch; re-arm only once the armed deadline has consumed a
			// quarter of its slack, keeping at least 1.5×hb of headroom.
			if now := time.Now(); now.Sub(lastArm) > rc.hb/2 {
				rc.c.SetReadDeadline(now.Add(2 * rc.hb))
				lastArm = now
			}
		}
		if err := rc.readOne(buf); err != nil {
			rc.teardown(err)
			rc.releasePending()
			return
		}
	}
}

// readOne reads and dispatches one inbound frame. A blocks frame is never
// materialised: readBlocks streams it, each payload landing in the block
// buffer it is delivered in. Every other frame is small and goes through
// readFrame into buf, the loop's one receive buffer (a frame that exceeds it
// is read under readPayload's hostile-length bound and dropped afterwards).
// The header is peeked with fills that stop where a blocks frame's first
// payload starts (its status and length are an OK entry's bytes less the
// trailing sum); any other frame is read with the cap lifted.
func (rc *rconn) readOne(buf []byte) error {
	br := rc.in.br
	rc.in.readAhead(frameHeaderSize + runPreludeBytes + okEntryBytes - 4)
	hdr, err := br.Peek(frameHeaderSize)
	if err != nil {
		return err
	}
	if hdr[4] != msgBlocks {
		rc.in.readAhead(0)
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
			p.resolve(reqTorn, fmt.Errorf("blocksvc: done with %d of %d blocks unanswered: %w",
				short, len(p.ids), faultio.ErrTransient))
			p.mu.Unlock()
			r.release(p)
			return fmt.Errorf("done with %d blocks unanswered", short)
		}
		p.resolve(reqOK, nil)
		p.mu.Unlock()
		r.release(p)
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
		p.resolve(reqShed, nil)
		p.mu.Unlock()
		r.release(p)
		rc.unreserve(1)
		r.m.shedRequests.Inc()
		// Shed is proof of life: the endpoint answered, it is just over
		// capacity.
		r.noteSuccess(rc.ep)
		return nil
	case msgPing:
		// The server's heartbeat: the pong renews its read deadline, as
		// this ping renewed ours.
		token, ok := decodeToken(payload)
		if !ok {
			return fmt.Errorf("bad ping")
		}
		rc.writeMu.Lock()
		rc.armWrite()
		e := &rc.we
		e.reset()
		e.u64(token)
		err := writeFrame(rc.bw, msgPong, e.b)
		if err == nil {
			err = rc.bw.Flush()
		}
		rc.writeMu.Unlock()
		return err
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
// unknown. The read loop's hold on it is the caller's to release.
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
			in.readAhead(okEntryBytes) // the sum, then the next entry's status and length
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

// sendView writes one view frame on rc, tearing the conn down on a write
// failure.
func (rc *rconn) sendView(pos vec.V3) error {
	rc.writeMu.Lock()
	rc.armWrite()
	e := &rc.we
	e.reset()
	e.u64(math.Float64bits(pos.X))
	e.u64(math.Float64bits(pos.Y))
	e.u64(math.Float64bits(pos.Z))
	werr := writeFrame(rc.bw, msgView, e.b)
	if werr == nil {
		werr = rc.bw.Flush()
	}
	rc.writeMu.Unlock()
	if werr != nil {
		rc.teardown(werr)
	}
	return werr
}
