package blocksvc

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/faultio"
	"repro/internal/grid"
)

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

// retire takes the group out of service: it marks it dropped (under the
// same lock that admits new connections, so none can slip in after) and
// closes its conns — each read loop's teardown then fails the pending tags
// transiently, so their batches re-route — and wakes its parked batches.
func (g *shardGroup) retire() {
	g.mu.Lock()
	g.dropped.Store(true)
	g.mu.Unlock()
	for _, rc := range g.snapshotConns() {
		rc.c.Close()
	}
	g.wake()
}

// gone says why g takes no new work — the client closed, or the shard left
// the topology — and is nil while it does.
func (g *shardGroup) gone() error {
	if g.r.closed.Load() {
		return fmt.Errorf("blocksvc: client closed: %w", faultio.ErrPermanent)
	}
	if g.dropped.Load() {
		return fmt.Errorf("blocksvc: shard %s left the topology: %w", g.name, faultio.ErrTransient)
	}
	return nil
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

// newGroup builds a connection group for one shard's replica addresses.
func (r *RemoteReader) newGroup(shardID string, addrs []string) *shardGroup {
	g := &shardGroup{
		r:     r,
		name:  shardID,
		key:   groupKey(shardID, addrs),
		conns: make(map[*rconn]struct{}),
	}
	for i, addr := range addrs {
		name := addr
		if name == "" {
			name = fmt.Sprintf("endpoint-%d", i)
		}
		g.eps = append(g.eps, &endpoint{
			idx:   i,
			addr:  addr,
			name:  name,
			shard: shardID,
			br:    r.cfg.newBreaker(),
		})
	}
	return g
}

// endpoint is one replica plus its health state.
type endpoint struct {
	idx      int
	addr     string // what ClientConfig.Dial is handed
	name     string // addr, or "endpoint-<idx>" when that is empty
	shard    string // owning group's shard ID (metric naming)
	br       *breaker.Breaker
	draining atomic.Bool // set by GOAWAY, cleared by a fresh successful handshake

	dials    atomic.Int64 // successful connects to this endpoint
	failures atomic.Int64 // transport failures attributed to this endpoint
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
	for _, desperate := range [...]bool{false, true} {
		for _, ep := range g.eps {
			if !desperate && (ep == avoid || ep.draining.Load()) {
				continue
			}
			if ok, probe := ep.br.Allow(now); ok {
				if probe {
					r.m.breakerProbes.Inc()
				}
				return ep
			}
		}
	}
	return nil
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
		if err := g.gone(); err != nil {
			return nil, 0, err
		}
		skip := avoid
		if len(g.eps) == 1 {
			skip = nil
		}
		g.mu.Lock()
		rc := g.leastLoaded(skip)
		switch {
		case rc != nil:
			g.mu.Unlock()
		case g.nconns < r.cfg.Conns:
			g.nconns++
			g.mu.Unlock()
			err := errNoEndpoint
			if ep := r.pickEndpoint(g, avoid); ep != nil {
				rc, err = r.connect(ctx, g, ep)
			}
			if err != nil {
				g.mu.Lock()
				g.nconns--
				g.mu.Unlock()
				return nil, 0, err
			}
		default:
			// A conn to the avoided endpoint with capacity beats waiting.
			if skip != nil {
				rc = g.leastLoaded(nil)
			}
			if rc == nil {
				w := make(chan struct{})
				g.waiters = append(g.waiters, w)
				g.mu.Unlock()
				select {
				case <-w:
				case <-ctx.Done():
					return nil, 0, ctx.Err()
				}
				continue
			}
			g.mu.Unlock()
		}
		if want <= 0 {
			return rc, 0, nil
		}
		if k := rc.tryReserve(want); k > 0 {
			return rc, k, nil
		}
		// Raced to full; rescan.
	}
}

// leastLoaded returns the usable conn with the fewest reserved tags and a
// free one, skipping conns to skip; nil when there is none. Called with
// g.mu held.
func (g *shardGroup) leastLoaded(skip *endpoint) *rconn {
	var best *rconn
	for rc := range g.conns {
		if !rc.usable() || rc.ep == skip || int(rc.tags.Load()) >= rc.maxReqs {
			continue
		}
		if best == nil || rc.tags.Load() < best.tags.Load() {
			best = rc
		}
	}
	return best
}

// errNoEndpoint fails a dial every one of whose endpoints a breaker holds
// open.
var errNoEndpoint = fmt.Errorf("blocksvc: no admissible endpoint (breakers open): %w",
	faultio.ErrTransient)

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

// tagsWanted picks how many tagged requests to split a batch across:
// batches up to splitThreshold blocks stay one request (splitting only
// adds per-request overhead when the server already streams a single
// request's runs incrementally), larger ones fan out so the server's
// request workers overlap their cache reads, capped by pipelineDepth.
const splitThreshold = 64

func tagsWanted(n int) int {
	if n <= splitThreshold {
		return 1
	}
	return min((n+splitThreshold-1)/splitThreshold, pipelineDepth)
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
	attemptsMax := len(g.eps) + 1
	var avoid *endpoint
	var lastErr error
	for attempt := 1; ; attempt++ {
		want := tagsWanted(len(pending))
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
		p := r.takeReq(hi - lo)
		p.req = rc.nextReq
		for k := range p.ids {
			p.ids[k] = ids[pending[lo+k]]
		}
		rc.pending[p.req] = p
		reqs = append(reqs, p)
		starts = append(starts, lo)
	}
	rc.mu.Unlock()
	rc.unreserve(tags - len(reqs))

	rc.writeMu.Lock()
	rc.armWrite()
	e := &rc.we
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
			// server answers (it was told our deadline and sheds), and
			// what lands after this harvest goes back to the pool with
			// the record's last release.
			for j := ti; j < len(reqs); j++ {
				r.harvest(reqs[j], starts[j], pending, vals, errs)
				r.release(reqs[j])
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
		r.release(p)
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

// harvest moves a tag's answered blocks into the batch's result arrays;
// each value taken leaves errTaken in its place. Taken under the tag's
// lock: the read loop may still be filling an abandoned tag's late
// arrivals.
func (r *RemoteReader) harvest(p *pendingReq, start int, pending []int,
	vals [][]float32, errs []error) {
	p.mu.Lock()
	for k := range p.ids {
		i := pending[start+k]
		if p.vals[k] != nil {
			vals[i] = p.vals[k]
			p.vals[k], p.errs[k] = nil, errTaken
		} else if p.errs[k] != nil {
			errs[i] = p.errs[k]
		}
	}
	p.mu.Unlock()
}

// deadlineMillis encodes ctx's deadline as milliseconds-from-now for the
// wire (0 = none), so the server can shed work the client will no longer
// wait for.
func deadlineMillis(ctx context.Context) uint32 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := max(time.Until(dl).Milliseconds(), 1)
	if ms > math.MaxUint32 {
		return 0
	}
	return uint32(ms)
}
