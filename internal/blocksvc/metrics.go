package blocksvc

import (
	"fmt"

	"repro/internal/obs"
)

// serverMetrics is the server's counters — the one place they live (names
// under "svc.", documented in DESIGN.md §9). Handles are resolved once at
// construction, so the request path commits straight to atomics: no lock,
// no registry map lookup. Server.Snapshot reads the same handles back, so
// the ServerStats view and a /debug/metrics scrape cannot disagree.
type serverMetrics struct {
	sessions         *obs.Counter
	activeSessions   *obs.Gauge
	requests         *obs.Counter
	shedRequests     *obs.Counter
	blocks           *obs.Counter
	blocksOK         *obs.Counter
	blocksFailed     *obs.Counter
	bytesSent        *obs.Counter
	viewUpdates      *obs.Counter
	prefetchIssued   *obs.Counter
	prefetchExecuted *obs.Counter
	prefetchFailed   *obs.Counter
	prefetchDropped  *obs.Counter
	prefetchHits     *obs.Counter
	predictDwell     *obs.Counter
	predictLinear    *obs.Counter
	predictAngular   *obs.Counter
	predictLast      *obs.Counter
	heartbeatsSent   *obs.Counter
	deadPeers        *obs.Counter
	goawaysSent      *obs.Counter
	redirects        *obs.Counter
	topologyPushes   *obs.Counter

	queueWait *obs.Histogram // admission wait of requests that were admitted
	shedWait  *obs.Histogram // admission wait of requests that were shed
}

// newServerMetrics registers the server's counters on reg, or on a private
// registry when reg is nil, so Snapshot works whether or not a caller wired
// metrics up. What only a scrape can read — histograms, the semaphore gauge
// — goes to the caller's registry alone (nil handles are no-ops). Servers
// handed the same registry share its counters, as ooc runtimes do.
func newServerMetrics(s *Server, reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{}
	m.queueWait = reg.Histogram("svc.queue_wait_ns", obs.DurationBuckets())
	m.shedWait = reg.Histogram("svc.shed_wait_ns", obs.DurationBuckets())
	reg.GaugeFunc("svc.inflight_bytes", s.sem.InUse)
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m.sessions = reg.Counter("svc.sessions")
	m.activeSessions = reg.Gauge("svc.active_sessions")
	m.requests = reg.Counter("svc.requests")
	m.shedRequests = reg.Counter("svc.shed_requests")
	m.blocks = reg.Counter("svc.blocks")
	m.blocksOK = reg.Counter("svc.blocks_ok")
	m.blocksFailed = reg.Counter("svc.blocks_failed")
	m.bytesSent = reg.Counter("svc.bytes_sent")
	m.viewUpdates = reg.Counter("svc.view_updates")
	m.prefetchIssued = reg.Counter("svc.prefetch_issued")
	m.prefetchExecuted = reg.Counter("svc.prefetch_executed")
	m.prefetchFailed = reg.Counter("svc.prefetch_failed")
	m.prefetchDropped = reg.Counter("svc.prefetch_dropped")
	m.prefetchHits = reg.Counter("svc.prefetch_hits")
	m.predictDwell = reg.Counter("svc.predict.dwell")
	m.predictLinear = reg.Counter("svc.predict.linear")
	m.predictAngular = reg.Counter("svc.predict.angular")
	m.predictLast = reg.Counter("svc.predict.last")
	m.heartbeatsSent = reg.Counter("svc.heartbeats_sent")
	m.deadPeers = reg.Counter("svc.dead_peers")
	m.goawaysSent = reg.Counter("svc.goaways_sent")
	m.redirects = reg.Counter("svc.redirects")
	m.topologyPushes = reg.Counter("svc.topology_pushes")
	return m
}

// snapshot reads the handles back into a ServerStats value. Each field is
// one atomic load; the set is not a cross-field consistent cut.
func (m *serverMetrics) snapshot() ServerStats {
	return ServerStats{
		Sessions:         m.sessions.Value(),
		ActiveSessions:   m.activeSessions.Value(),
		Requests:         m.requests.Value(),
		ShedRequests:     m.shedRequests.Value(),
		Blocks:           m.blocks.Value(),
		BlocksOK:         m.blocksOK.Value(),
		BlocksFailed:     m.blocksFailed.Value(),
		BytesSent:        m.bytesSent.Value(),
		ViewUpdates:      m.viewUpdates.Value(),
		PrefetchIssued:   m.prefetchIssued.Value(),
		PrefetchExecuted: m.prefetchExecuted.Value(),
		PrefetchFailed:   m.prefetchFailed.Value(),
		PrefetchDropped:  m.prefetchDropped.Value(),
		PrefetchHits:     m.prefetchHits.Value(),
		PredictDwell:     m.predictDwell.Value(),
		PredictLinear:    m.predictLinear.Value(),
		PredictAngular:   m.predictAngular.Value(),
		PredictLast:      m.predictLast.Value(),
		HeartbeatsSent:   m.heartbeatsSent.Value(),
		DeadPeers:        m.deadPeers.Value(),
		GoawaysSent:      m.goawaysSent.Value(),
		Redirects:        m.redirects.Value(),
		TopologyPushes:   m.topologyPushes.Value(),
	}
}

// clientMetrics is the RemoteReader's counters — the one place they live
// (names under "client.", documented in DESIGN.md §9) — resolved once like
// serverMetrics, plus an end-to-end request-latency histogram. Per-endpoint
// health lives under "client.shard.<shard>.endpoint.<i>." — registered as
// shard groups come into the topology and unregistered as they leave, so
// /debug/metrics never shows a departed node.
type clientMetrics struct {
	reg *obs.Registry // the caller's registry (nil = none)

	dials           *obs.Counter
	dialRetries     *obs.Counter
	requests        *obs.Counter
	blocksRequested *obs.Counter
	blocksServed    *obs.Counter
	remoteFaults    *obs.Counter
	shedRequests    *obs.Counter
	checksumErrors  *obs.Counter
	transportErrors *obs.Counter
	bytesReceived   *obs.Counter
	viewUpdates     *obs.Counter
	failovers       *obs.Counter
	goawaysReceived *obs.Counter
	deadPeers       *obs.Counter
	breakerOpens    *obs.Counter
	breakerProbes   *obs.Counter
	breakerCloses   *obs.Counter
	redirects       *obs.Counter
	reroutes        *obs.Counter
	topologyUpdates *obs.Counter

	requestNs *obs.Histogram
}

// newClientMetrics registers the client's counters on reg, or on a private
// registry when reg is nil, so Snapshot works either way; the latency
// histogram goes to the caller's registry alone. Readers handed the same
// registry share its counters.
func newClientMetrics(reg *obs.Registry) *clientMetrics {
	m := &clientMetrics{reg: reg}
	m.requestNs = reg.Histogram("client.request_ns", obs.DurationBuckets())
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m.dials = reg.Counter("client.dials")
	m.dialRetries = reg.Counter("client.dial_retries")
	m.requests = reg.Counter("client.requests")
	m.blocksRequested = reg.Counter("client.blocks_requested")
	m.blocksServed = reg.Counter("client.blocks_served")
	m.remoteFaults = reg.Counter("client.remote_faults")
	m.shedRequests = reg.Counter("client.shed_requests")
	m.checksumErrors = reg.Counter("client.checksum_errors")
	m.transportErrors = reg.Counter("client.transport_errors")
	m.bytesReceived = reg.Counter("client.bytes_received")
	m.viewUpdates = reg.Counter("client.view_updates")
	m.failovers = reg.Counter("client.failovers")
	m.goawaysReceived = reg.Counter("client.goaways_received")
	m.deadPeers = reg.Counter("client.dead_peers")
	m.breakerOpens = reg.Counter("client.breaker_opens")
	m.breakerProbes = reg.Counter("client.breaker_probes")
	m.breakerCloses = reg.Counter("client.breaker_closes")
	m.redirects = reg.Counter("client.redirects")
	m.reroutes = reg.Counter("client.reroutes")
	m.topologyUpdates = reg.Counter("client.topology_updates")
	return m
}

// snapshot reads the handles back into a ClientStats value, one atomic load
// per field.
func (m *clientMetrics) snapshot() ClientStats {
	return ClientStats{
		Dials:           m.dials.Value(),
		DialRetries:     m.dialRetries.Value(),
		Requests:        m.requests.Value(),
		BlocksRequested: m.blocksRequested.Value(),
		BlocksServed:    m.blocksServed.Value(),
		RemoteFaults:    m.remoteFaults.Value(),
		ShedRequests:    m.shedRequests.Value(),
		ChecksumErrors:  m.checksumErrors.Value(),
		TransportErrors: m.transportErrors.Value(),
		BytesReceived:   m.bytesReceived.Value(),
		ViewUpdates:     m.viewUpdates.Value(),
		Failovers:       m.failovers.Value(),
		GoawaysReceived: m.goawaysReceived.Value(),
		DeadPeers:       m.deadPeers.Value(),
		BreakerOpens:    m.breakerOpens.Value(),
		BreakerProbes:   m.breakerProbes.Value(),
		BreakerCloses:   m.breakerCloses.Value(),
		Redirects:       m.redirects.Value(),
		Reroutes:        m.reroutes.Value(),
		TopologyUpdates: m.topologyUpdates.Value(),
	}
}

// endpointMetricPrefix names one endpoint's health metrics. Keyed by shard
// ID and endpoint index — stable across topology changes, unlike a global
// endpoint position.
func endpointMetricPrefix(shardID string, idx int) string {
	return fmt.Sprintf("client.shard.%s.endpoint.%d.", shardID, idx)
}

// endpointMetricSuffixes are the per-endpoint metric names registered and
// unregistered as shard groups enter and leave the topology.
var endpointMetricSuffixes = [...]string{"dials", "failures", "breaker_state", "draining"}

// registerGroup exposes one shard group's per-endpoint health.
func (m *clientMetrics) registerGroup(g *shardGroup) {
	if m.reg == nil {
		return
	}
	for _, ep := range g.eps {
		ep := ep
		prefix := endpointMetricPrefix(g.name, ep.idx)
		m.reg.CounterFunc(prefix+"dials", ep.dials.Load)
		m.reg.CounterFunc(prefix+"failures", ep.failures.Load)
		// 0=closed, 1=open, 2=half-open (breaker.State values).
		m.reg.GaugeFunc(prefix+"breaker_state", func() int64 { return int64(ep.br.State()) })
		m.reg.GaugeFunc(prefix+"draining", func() int64 {
			if ep.draining.Load() {
				return 1
			}
			return 0
		})
	}
}

// unregisterGroup retires a departed shard group's metric names.
func (m *clientMetrics) unregisterGroup(g *shardGroup) {
	if m.reg == nil {
		return
	}
	for _, ep := range g.eps {
		prefix := endpointMetricPrefix(g.name, ep.idx)
		for _, suffix := range endpointMetricSuffixes {
			m.reg.Unregister(prefix + suffix)
		}
	}
}
