package blocksvc

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/f32le"
	"repro/internal/grid"
)

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
		if topo.owns(id) {
			bytes += ss.s.blockBytes(id)
		}
	}

	// Per-session cap: shed rather than queue a greedy client's backlog.
	if ss.inflight.Add(1) > int64(ss.s.cfg.MaxSessionRequests) {
		ss.inflight.Add(-1)
		ss.shed(msg.Req)
		return true
	}

	ss.reqWG.Add(1)
	ss.s.activeReqs.Add(1) // counted before the goroutine starts so Drain can't miss it
	go func() {
		defer ss.reqWG.Done()
		defer ss.s.activeReqs.Add(-1)
		defer ss.inflight.Add(-1)
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
	err := ss.s.sem.Acquire(reqCtx, bytes, ss.s.cfg.MaxQueueWait)
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
	defer ss.s.sem.Release(bytes)
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
			if topo.owns(ids[runEnd]) {
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
		vals, hit, errs := ss.serveRun(reqCtx, run, topo)
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

// serveRun reads one run through the shared cache. A run this node owns
// whole — every run on a flat server — goes to the cache as it is.
// Otherwise only the owned blocks do (preserving the per-shard singleflight
// invariant: a non-owned request never triggers a backing read here), and
// the rest are answered in place with a redirect carrying the topology
// epoch the decision was made under.
func (ss *session) serveRun(ctx context.Context, run []grid.BlockID, topo *serverTopology) ([][]float32, []bool, []error) {
	if !slices.ContainsFunc(run, func(id grid.BlockID) bool { return !topo.owns(id) }) {
		return ss.s.cfg.Cache.GetBatch(ctx, run)
	}
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

// Acquire takes n units, waiting FIFO behind earlier requests until ctx ends
// or maxWait passes. Units free on arrival, with nobody queued, are taken at
// once; only a request that queues builds the timeout. The caller must
// Release exactly n on success.
func (s *byteSem) Acquire(ctx context.Context, n int64, maxWait time.Duration) error {
	s.mu.Lock()
	if len(s.waiters) == 0 && s.avail >= n {
		s.avail -= n
		s.mu.Unlock()
		return nil
	}
	w := &semWaiter{need: n, ready: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(ctx, maxWait)
	defer cancel()
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := slices.Index(s.waiters, w); i >= 0 {
		s.waiters = slices.Delete(s.waiters, i, i+1)
	} else {
		// Granted while the wait was ending: hand the units back.
		s.avail += n
	}
	// Either way the queue changed under its head: whoever now fits goes.
	s.admitLocked()
	return ctx.Err()
}

// Release returns n units and admits as many queued waiters as now fit.
func (s *byteSem) Release(n int64) {
	s.mu.Lock()
	s.avail += n
	s.admitLocked()
	s.mu.Unlock()
}

// admitLocked grants queued waiters in arrival order while the head fits.
// It runs whenever units come back or a waiter leaves the queue, so a
// request behind one that gave up is not left asleep with its units free.
func (s *byteSem) admitLocked() {
	for len(s.waiters) > 0 && s.waiters[0].need <= s.avail {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.avail -= w.need
		close(w.ready)
	}
}
