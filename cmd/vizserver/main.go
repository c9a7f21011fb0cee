// Command vizserver serves a block store to remote visualization sessions
// over the blocksvc wire protocol: one shared in-memory cache fronts the
// checksummed block file, concurrent sessions' demand reads coalesce onto
// single backing reads, each session's camera view updates drive predictive
// prefetch into the shared cache, and admission control sheds load instead
// of queueing it unboundedly.
//
// Usage:
//
//	vizserver -addr 127.0.0.1:9123 -dataset 3d_ball -scale 0.25 -blocks 2048
//	          [-cache-frac 0.5] [-sigma-quantile 0.75] [-no-prefetch]
//	          [-max-inflight-mb 256] [-max-session-reqs 8] [-queue-wait 100ms]
//	          [-heartbeat 5s] [-drain-timeout 5s]
//	          [-shard-id a -shard-map cluster.json]
//	          [-debug-addr 127.0.0.1:9124]
//	          [-fail-rate 0 -perm-frac 0 -corrupt-rate 0 -io-latency 0]
//
// Clients (vizsim -realio -remote addr) must be started with the same
// -dataset/-scale/-blocks so their geometry matches the served volume. The
// fault-injection flags put a deterministic injector between the file and
// the cache, so degraded-but-graceful behavior can be demonstrated across
// the wire. -heartbeat is the liveness ping interval, and with it how long
// a connection may stay silent from its hello on: two intervals (10s for
// the hello when liveness is off). SIGINT/SIGTERM drain the server — stop
// accepting, announce GOAWAY, finish in-flight requests up to
// -drain-timeout — then print its counters; clients with a second replica
// fail over seamlessly.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/blocksvc"
	"repro/internal/cache"
	"repro/internal/entropy"
	"repro/internal/faultio"
	"repro/internal/obs"
	"repro/internal/radius"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/visibility"
	"repro/internal/volume"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9123", "listen address")
		dataset  = flag.String("dataset", "3d_ball", "dataset name (3d_ball, lifted_mix_frac, lifted_rr, climate)")
		scale    = flag.Float64("scale", 0.25, "dataset scale factor")
		blocks   = flag.Int("blocks", 2048, "approximate block count")
		vars     = flag.Int("climate-vars", 8, "climate variable count")
		angle    = flag.Float64("view-angle", 10, "full view angle for prefetch prediction, degrees")
		cacheFrc = flag.Float64("cache-frac", 0.5, "shared cache size as a fraction of the dataset")
		quantile = flag.Float64("sigma-quantile", 0.75, "entropy quantile below which blocks are not prefetched")
		noPre    = flag.Bool("no-prefetch", false, "disable server-side view-driven prefetch")

		maxMB   = flag.Int64("max-inflight-mb", 256, "admission: in-flight payload budget, MiB")
		maxReqs = flag.Int("max-session-reqs", 8, "admission: concurrent requests per session")
		maxWait = flag.Duration("queue-wait", 100*time.Millisecond, "admission: longest wait before a request is shed")

		heartbeat = flag.Duration("heartbeat", 0, "liveness ping interval advertised to clients; a session, its hello included, may go two intervals silent (0 = 5s default, negative disables pings and holds the hello to 10s; at least 1ms)")
		drainT    = flag.Duration("drain-timeout", 5*time.Second, "on SIGTERM/SIGINT: how long to let in-flight requests finish")

		shardID  = flag.String("shard-id", "", "cluster mode: this node's shard id (must appear in -shard-map)")
		shardMap = flag.String("shard-map", "",
			"cluster mode: JSON topology file mapping shard ids to addresses; this node serves only the blocks the consistent-hash ring assigns to -shard-id and answers the rest with redirects")

		debugAddr = flag.String("debug-addr", "",
			"optional HTTP debug listen address (JSON metrics at /debug/metrics, pprof at /debug/pprof/)")

		failRate    = flag.Float64("fail-rate", 0, "injected transient read-failure probability")
		permFrac    = flag.Float64("perm-frac", 0, "fraction of injected failures that are permanent")
		corruptRate = flag.Float64("corrupt-rate", 0, "injected payload bit-flip probability")
		ioLatency   = flag.Duration("io-latency", 0, "injected latency per block read")
		faultSeed   = flag.Uint64("fault-seed", 1, "fault injector seed")
	)
	flag.Parse()

	ds := volume.ByName(*dataset)
	if ds == nil {
		fmt.Fprintf(os.Stderr, "vizserver: unknown dataset %q\n", *dataset)
		os.Exit(2)
	}
	ds = ds.Scale(*scale)
	if *dataset == "climate" {
		ds = ds.WithVariables(*vars)
	}
	g, err := ds.GridWithBlockCount(*blocks)
	if err != nil {
		fatal(err)
	}

	dir, err := os.MkdirTemp("", "vizserver")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, ds.Name+".bvol")
	start := time.Now()
	if err := store.Write(path, ds, g, 0); err != nil {
		fatal(err)
	}
	bf, err := store.Open(path)
	if err != nil {
		fatal(err)
	}
	defer bf.Close()
	fmt.Printf("materialized       %s (v%d, %d blocks) in %v\n",
		path, bf.Header().Version, g.NumBlocks(), time.Since(start).Round(time.Millisecond))

	inj := faultio.NewInjector(bf, faultio.InjectorConfig{
		Seed:          *faultSeed,
		FailRate:      *failRate,
		PermanentFrac: *permFrac,
		CorruptRate:   *corruptRate,
		Latency:       *ioLatency,
	})
	capacity := int64(float64(ds.TotalBytes()) * *cacheFrc)
	if capacity <= 0 {
		capacity = 1
	}
	mc, err := store.NewMemCache(inj, capacity, cache.NewLRU())
	if err != nil {
		fatal(err)
	}
	reg := obs.NewRegistry()
	mc.Instrument(reg)

	cfg := blocksvc.Config{
		Cache:              mc,
		Grid:               g,
		Header:             bf.Header(),
		MaxInflightBytes:   *maxMB << 20,
		MaxSessionRequests: *maxReqs,
		MaxQueueWait:       *maxWait,
		HeartbeatInterval:  *heartbeat,
		Metrics:            reg,
	}
	if (*shardID == "") != (*shardMap == "") {
		fatal(fmt.Errorf("cluster mode needs both -shard-id and -shard-map"))
	}
	if *shardMap != "" {
		m, err := shard.Load(*shardMap)
		if err != nil {
			fatal(err)
		}
		cfg.ShardMap = m
		cfg.ShardID = *shardID
	}
	if !*noPre {
		imp := entropy.Build(ds, g, entropy.Options{})
		vis, err := visibility.NewTable(g, tableOptions(vec.Radians(*angle), *cacheFrc))
		if err != nil {
			fatal(err)
		}
		cfg.Vis, cfg.Imp = vis, imp
		cfg.Sigma = imp.ThresholdForQuantile(*quantile)
	}
	srv, err := blocksvc.NewServer(cfg)
	if err != nil {
		fatal(err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serving            %s on %s (cache %d MiB, prefetch %v)\n",
		ds.Name, l.Addr(), capacity>>20, !*noPre)
	if cfg.ShardMap != nil {
		fmt.Printf("cluster            shard %q of %d (topology epoch %d)\n",
			cfg.ShardID, len(cfg.ShardMap.Shards), cfg.ShardMap.Epoch)
	}

	if *debugAddr != "" {
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		defer dl.Close()
		go http.Serve(dl, debugMux(reg))
		fmt.Printf("debug endpoint     http://%s/debug/metrics (pprof under /debug/pprof/)\n", dl.Addr())
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("\ndraining           (%v, in-flight work gets up to %v)\n", s, *drainT)
		ctx, cancel := context.WithTimeout(context.Background(), *drainT)
		if err := srv.Drain(ctx); err != nil {
			fmt.Printf("drain              cut short: %v\n", err)
		}
		cancel()
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	}
	l.Close()
	srv.Close()

	st := srv.Snapshot()
	fmt.Printf("sessions           %d served (%d still connected at shutdown)\n",
		st.Sessions, st.ActiveSessions)
	fmt.Printf("requests           %d served, %d shed by admission control\n",
		st.Requests, st.ShedRequests)
	fmt.Printf("blocks             %d answered (%d with data, %d faulted), %d MiB sent\n",
		st.Blocks, st.BlocksOK, st.BlocksFailed, st.BytesSent>>20)
	fmt.Printf("view updates       %d received\n", st.ViewUpdates)
	fmt.Printf("liveness           %d heartbeats sent, %d dead peers dropped, %d goaways announced\n",
		st.HeartbeatsSent, st.DeadPeers, st.GoawaysSent)
	if st.Redirects > 0 || st.TopologyPushes > 0 {
		fmt.Printf("cluster            %d redirects answered, %d topology pushes sent\n",
			st.Redirects, st.TopologyPushes)
	}
	fmt.Printf("prefetch           %d issued, %d executed, %d failed, %d dropped\n",
		st.PrefetchIssued, st.PrefetchExecuted, st.PrefetchFailed, st.PrefetchDropped)
	cc := mc.Counters()
	fmt.Printf("shared cache       %d hits / %d misses, %d coalesced across sessions\n",
		cc.Hits, cc.Misses, cc.Coalesced)
	ios := bf.IOStats()
	fmt.Printf("block file         %d blocks served, %d batches in %d merged runs\n",
		ios.Reads, ios.Batches, ios.MergedRuns)
	is := inj.Stats()
	if is.Transient+is.Permanent+is.Corrupted > 0 {
		fmt.Printf("injected faults    %d transient, %d permanent, %d corrupted over %d reads\n",
			is.Transient, is.Permanent, is.Corrupted, is.Reads)
	}
}

// tableOptions describes the T_visible the sessions' prefetch predicts from.
// Its vicinal radius is Eq. (6)'s for ρ = cacheFrac: capacity over volume,
// the fraction the shared cache is sized to.
func tableOptions(theta, cacheFrac float64) visibility.Options {
	nAz, nEl, nDist := visibility.LatticeForTotal(25920, 10)
	return visibility.Options{
		NAzimuth: nAz, NElevation: nEl, NDistance: nDist,
		RMin: 2.5, RMax: 3.5,
		ViewAngle: theta,
		Radius:    radius.Dynamic{Ratio: cacheFrac, Min: 0.15},
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vizserver:", err)
	os.Exit(1)
}
