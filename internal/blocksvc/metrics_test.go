package blocksvc

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/vec"
)

// serverStatNames and clientStatNames pin every Stats field to its metric
// name (DESIGN.md §9): renaming a metric or wiring snapshot() to the wrong
// handle fails TestSnapshotIsTheRegistry.
var serverStatNames = map[string]string{
	"Sessions": "svc.sessions", "ActiveSessions": "svc.active_sessions",
	"Requests": "svc.requests", "ShedRequests": "svc.shed_requests",
	"Blocks": "svc.blocks", "BlocksOK": "svc.blocks_ok", "BlocksFailed": "svc.blocks_failed",
	"BytesSent": "svc.bytes_sent", "ViewUpdates": "svc.view_updates",
	"PrefetchIssued": "svc.prefetch_issued", "PrefetchExecuted": "svc.prefetch_executed",
	"PrefetchFailed": "svc.prefetch_failed", "PrefetchDropped": "svc.prefetch_dropped",
	"PrefetchHits": "svc.prefetch_hits",
	"PredictDwell": "svc.predict.dwell", "PredictLinear": "svc.predict.linear",
	"PredictAngular": "svc.predict.angular", "PredictLast": "svc.predict.last",
	"HeartbeatsSent": "svc.heartbeats_sent", "DeadPeers": "svc.dead_peers",
	"GoawaysSent": "svc.goaways_sent",
	"Redirects":   "svc.redirects", "TopologyPushes": "svc.topology_pushes",
}

var clientStatNames = map[string]string{
	"Dials": "client.dials", "DialRetries": "client.dial_retries",
	"Requests": "client.requests", "BlocksRequested": "client.blocks_requested",
	"BlocksServed": "client.blocks_served", "RemoteFaults": "client.remote_faults",
	"ShedRequests": "client.shed_requests", "ChecksumErrors": "client.checksum_errors",
	"TransportErrors": "client.transport_errors", "BytesReceived": "client.bytes_received",
	"ViewUpdates": "client.view_updates", "Failovers": "client.failovers",
	"GoawaysReceived": "client.goaways_received", "DeadPeers": "client.dead_peers",
	"BreakerOpens": "client.breaker_opens", "BreakerProbes": "client.breaker_probes",
	"BreakerCloses": "client.breaker_closes",
	"Redirects":     "client.redirects", "Reroutes": "client.reroutes",
	"TopologyUpdates": "client.topology_updates",
}

// assertStatsMatchRegistry checks every int64 field of a Stats struct
// against the registry value under its pinned name.
func assertStatsMatchRegistry(t *testing.T, stats any, names map[string]string, snap obs.Snapshot) {
	t.Helper()
	v := reflect.ValueOf(stats)
	if v.NumField() != len(names) {
		t.Fatalf("%T has %d fields, %d names pinned", stats, v.NumField(), len(names))
	}
	for i := 0; i < v.NumField(); i++ {
		field := v.Type().Field(i).Name
		name := names[field]
		got, ok := snap.Counters[name]
		if !ok {
			got, ok = snap.Gauges[name]
		}
		if !ok {
			t.Errorf("%T.%s: metric %q not in the registry", stats, field, name)
		} else if got != v.Field(i).Int() {
			t.Errorf("%T.%s = %d, registry %q = %d", stats, field, v.Field(i).Int(), name, got)
		}
	}
}

// TestEndpointMetricsRetiredWithReader: a reader's per-endpoint health names
// leave the registry with it — at Close, and when Dial itself fails — so a
// later reader on the same registry shows its own breakers, not a dead one's.
func TestEndpointMetricsRetiredWithReader(t *testing.T) {
	endpointNames := func(reg *obs.Registry) (names []string) {
		for _, name := range reg.Names() {
			if strings.HasPrefix(name, "client.shard.") {
				names = append(names, name)
			}
		}
		return names
	}
	reg := obs.NewRegistry()
	f := startService(t, svcOpts{})
	r, err := Dial(ClientConfig{Dial: f.dial, Retry: fastRetry(1), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := endpointNames(reg); len(got) != len(endpointMetricSuffixes) {
		t.Fatalf("live reader exports %v", got)
	}
	r.Close()
	if got := endpointNames(reg); len(got) != 0 {
		t.Errorf("left after Close: %v", got)
	}

	gone := NewPipeListener()
	gone.Close()
	if _, err := Dial(ClientConfig{Endpoints: []string{"a", "b"}, Dial: gone.Dial,
		Retry: fastRetry(1), Metrics: reg}); err == nil {
		t.Fatal("Dial against a closed listener succeeded")
	}
	if got := endpointNames(reg); len(got) != 0 {
		t.Errorf("left after a failed Dial: %v", got)
	}
}

// TestSnapshotIsTheRegistry: the Stats snapshots are read from the registry
// handles, so after N concurrent sessions (prefetch on, all sharing the
// registries) every ServerStats and ClientStats field equals the
// value scraped under its metric name — and the same stack with no registry
// at all still counts.
func TestSnapshotIsTheRegistry(t *testing.T) {
	run := func(sreg, creg *obs.Registry) (*svcFixture, []*RemoteReader) {
		f := startService(t, svcOpts{prefetch: true, mutate: func(c *Config) {
			c.Metrics = sreg
		}})
		const sessions = 4
		readers := make([]*RemoteReader, sessions)
		var wg sync.WaitGroup
		for s := range readers {
			r, err := Dial(ClientConfig{Dial: f.lis.Dial, Conns: 2, Retry: fastRetry(3), Metrics: creg})
			if err != nil {
				t.Fatal(err)
			}
			readers[s] = r
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx := context.Background()
				for round := 0; round < 3; round++ {
					if err := r.SendView(ctx, vec.New(3, 0, float64(round))); err != nil {
						t.Error(err)
					}
					if _, errs := r.ReadBlocks(ctx, f.g.All()); anyErr(errs) != nil {
						t.Error(anyErr(errs))
					}
				}
			}()
		}
		wg.Wait()
		for _, r := range readers {
			r.Close()
		}
		f.lis.Close()
		f.srv.Close() // every session and prefetch worker has exited: counters are final
		return f, readers
	}

	sreg, creg := obs.NewRegistry(), obs.NewRegistry()
	f, readers := run(sreg, creg)
	st := f.srv.Snapshot()
	if want := int64(len(readers) * 3); st.Requests < want || st.ViewUpdates != want {
		t.Fatalf("server saw too little traffic for the check to mean anything: %+v", st)
	}
	assertStatsMatchRegistry(t, st, serverStatNames, sreg.Snapshot())
	for _, r := range readers {
		// Readers sharing a registry share its counters: each one's snapshot
		// is the fleet's.
		assertStatsMatchRegistry(t, r.Snapshot(), clientStatNames, creg.Snapshot())
	}
	if cs := readers[0].Snapshot(); cs.Requests != int64(len(readers)*3) {
		t.Errorf("client.requests = %d across %d readers, want %d", cs.Requests, len(readers), len(readers)*3)
	}

	f, readers = run(nil, nil)
	if st := f.srv.Snapshot(); st.Requests == 0 || st.BlocksOK == 0 || st.Sessions == 0 {
		t.Errorf("server without a registry did not count: %+v", st)
	}
	if cs := readers[0].Snapshot(); cs.Requests != 3 || cs.BlocksServed == 0 {
		t.Errorf("reader without a registry did not count its own 3 requests: %+v", cs)
	}
}
