// Command vizsim runs one interactive-visualization simulation: a dataset,
// a camera path, and a replacement policy, reporting miss rate and timing.
//
// Usage:
//
//	vizsim -dataset 3d_ball -policy opt -path random -deg-lo 10 -deg-hi 15
//	       [-blocks 2048] [-steps 400] [-scale 0.25] [-ratio 0.5]
//
// Policies: fifo, lru, arc, opt (the paper's app-aware policy).
// Paths: spherical (uses -deg-lo as the per-step interval), random, orbit.
//
// With -realio the run moves actual bytes instead of simulating the
// hierarchy: the dataset is materialized as a checksummed block file and
// the concurrent out-of-core runtime drives it, optionally through a
// deterministic fault injector (-fail-rate, -corrupt-rate, -io-latency,
// -fault-seed), reporting retry/degradation counters alongside cache and
// prefetch stats. With -remote addr the blocks come from a running vizserver
// instead of local disk: the runtime reads through a pooled blocksvc client,
// sends its camera positions so the server prefetches ahead of the session,
// and reports wire-level fault/shed counters. A comma-separated -remote list
// is replicas of ONE shard (each address serves the whole dataset; the
// client fails over between them); -shard-map cluster.json instead routes
// reads across a sharded cluster where each node owns a consistent-hash
// slice of the blocks and the client re-routes live on topology changes. -cache-dir adds a persistent
// SSD spill tier under the in-memory cache (sized by -cache-size): DRAM
// evictions are written behind to checksummed spill files that survive
// restarts, so a reconnecting session re-serves warm blocks from local
// flash instead of the wire. -metrics 2s prints live registry snapshots
// while frames run and ends with the frame-phase
// (visibility/demand-wait/render/prefetch-issue) latency breakdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/blocksvc"
	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/entropy"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/ooc"
	"repro/internal/policy"
	"repro/internal/radius"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/vec"
	"repro/internal/visibility"
	"repro/internal/volume"
)

func main() {
	var (
		dataset  = flag.String("dataset", "3d_ball", "dataset name (3d_ball, lifted_mix_frac, lifted_rr, climate)")
		policy   = flag.String("policy", "opt", "replacement policy: fifo, lru, arc, opt")
		path     = flag.String("path", "random", "camera path: spherical, random, orbit")
		degLo    = flag.Float64("deg-lo", 10, "per-step direction change lower bound (or spherical interval)")
		degHi    = flag.Float64("deg-hi", 15, "per-step direction change upper bound (random path)")
		blocks   = flag.Int("blocks", 2048, "approximate block count")
		steps    = flag.Int("steps", 400, "path length")
		scale    = flag.Float64("scale", 0.25, "dataset scale factor")
		ratio    = flag.Float64("ratio", 0.5, "cache ratio between successive levels")
		angle    = flag.Float64("view-angle", 10, "full view angle, degrees")
		dist     = flag.Float64("distance", 3, "nominal camera distance")
		vars     = flag.Int("climate-vars", 8, "climate variable count")
		seed     = flag.Uint64("seed", 1, "random-path seed")
		pathFile = flag.String("path-file", "", "replay a recorded camera path instead of generating one")
		savePath = flag.String("save-path", "", "write the camera path used to this file")

		realio      = flag.Bool("realio", false, "move actual bytes through the out-of-core runtime instead of simulating")
		remote      = flag.String("remote", "", "realio: read blocks from vizservers at these comma-separated addresses instead of local disk; the flat list is REPLICAS of one shard (every address serves the whole dataset and the client fails over between them) — for a sharded cluster use -shard-map instead")
		shardMapF   = flag.String("shard-map", "", "realio: route reads across a sharded vizserver cluster described by this JSON topology file (each address owns a consistent-hash slice of the blocks); mutually exclusive with -remote")
		cacheDir    = flag.String("cache-dir", "", "realio: persistent spill-tier directory under the in-memory cache (survives restarts; empty = no spill tier)")
		cacheSize   = flag.Int64("cache-size", 256<<20, "realio: spill-tier capacity in bytes")
		metrics     = flag.Duration("metrics", 0, "realio: print a live metrics snapshot at this interval, plus a final frame-phase breakdown (0 = off)")
		cacheFrac   = flag.Float64("cache-frac", 0.25, "realio: in-memory cache size as a fraction of the dataset")
		failRate    = flag.Float64("fail-rate", 0, "realio: injected transient read-failure probability")
		permFrac    = flag.Float64("perm-frac", 0, "realio: fraction of injected failures that are permanent")
		corruptRate = flag.Float64("corrupt-rate", 0, "realio: injected payload bit-flip probability")
		ioLatency   = flag.Duration("io-latency", 0, "realio: injected latency per block read")
		faultSeed   = flag.Uint64("fault-seed", 1, "realio: fault injector seed")
		readTimeout = flag.Duration("read-deadline", 0, "realio: per-read-attempt deadline (0 = none)")
	)
	flag.Parse()

	ds := volume.ByName(*dataset)
	if ds == nil {
		fmt.Fprintf(os.Stderr, "vizsim: unknown dataset %q\n", *dataset)
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

	var p camera.Path
	if *pathFile != "" {
		f, err := os.Open(*pathFile)
		if err != nil {
			fatal(err)
		}
		p, err = camera.LoadPath(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		switch *path {
		case "spherical":
			p = camera.Spherical(*dist, *degLo, *steps)
		case "random":
			p = camera.Random(*dist*0.93, *dist*1.07, *degLo, *degHi, *steps, *seed)
		case "orbit":
			p = camera.Orbit(*dist, *steps)
		case "head":
			p = camera.HeadMotion(*dist, *steps, *seed)
		default:
			fmt.Fprintf(os.Stderr, "vizsim: unknown path %q\n", *path)
			os.Exit(2)
		}
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			fatal(err)
		}
		if err := p.Save(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if (*remote != "" || *shardMapF != "") && !*realio {
		fmt.Fprintln(os.Stderr, "vizsim: -remote and -shard-map require -realio")
		os.Exit(2)
	}
	if *remote != "" && *shardMapF != "" {
		fmt.Fprintln(os.Stderr, "vizsim: -remote (replicas of one shard) and -shard-map (sharded cluster) are mutually exclusive")
		os.Exit(2)
	}
	if *realio {
		err := runRealIO(ds, g, p, vec.Radians(*angle), *remote, *shardMapF, *cacheDir, *cacheSize, *cacheFrac, faultio.InjectorConfig{
			Seed:          *faultSeed,
			FailRate:      *failRate,
			PermanentFrac: *permFrac,
			CorruptRate:   *corruptRate,
			Latency:       *ioLatency,
		}, *readTimeout, *metrics)
		if err != nil {
			fatal(err)
		}
		return
	}

	cfg := sim.Config{
		Dataset:    ds,
		Grid:       g,
		Path:       p,
		ViewAngle:  vec.Radians(*angle),
		CacheRatio: *ratio,
	}

	var m sim.Metrics
	switch *policy {
	case "opt":
		m, err = sim.RunAppAware(cfg, sim.AppAwareConfig{})
	case "fifo":
		m, err = sim.RunBaseline(cfg, func() cache.Policy { return cache.NewFIFO() }, "FIFO")
	case "lru":
		m, err = sim.RunBaseline(cfg, func() cache.Policy { return cache.NewLRU() }, "LRU")
	case "arc":
		m, err = sim.RunBaseline(cfg, func() cache.Policy { return cache.NewARC() }, "ARC")
	default:
		fmt.Fprintf(os.Stderr, "vizsim: unknown policy %q\n", *policy)
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("dataset           %s (scaled to %v, %d variables, %d blocks)\n",
		ds.Name, ds.Res, ds.Variables, g.NumBlocks())
	fmt.Printf("path              %s (%d steps)\n", p.Name, p.Len())
	fmt.Printf("policy            %s\n", m.Policy)
	fmt.Printf("miss rate         %.4f (DRAM level: %.4f)\n", m.MissRate, m.DRAMMissRate)
	fmt.Printf("I/O time          %v (lookup share %v)\n", m.IOTime, m.QueryTime)
	fmt.Printf("prefetch time     %v (%d blocks)\n", m.PrefetchTime, m.Prefetches)
	fmt.Printf("render time       %v\n", m.RenderTime)
	fmt.Printf("total time        %v\n", m.TotalTime)
	fmt.Printf("mean visible set  %.1f blocks\n", m.MeanVisible)
	fmt.Printf("demand fetches    %d\n", m.DemandFetches)
}

// runRealIO plays the camera path through the fault-tolerant out-of-core
// runtime against real storage, printing retry/degradation counters
// alongside cache and prefetch stats. The backing store is either a locally
// materialized checksummed block file or, with remote set, a vizserver
// reached over the blocksvc protocol (the injector then models client-side
// faults on top of whatever the server injects). With metricsEvery > 0 a
// reporter prints live registry snapshots while frames run, and the run ends
// with the frame-phase latency breakdown.
func runRealIO(ds *volume.Dataset, g *grid.Grid, p camera.Path, theta float64,
	remote, shardMapPath, cacheDir string, cacheSize int64, cacheFrac float64,
	inject faultio.InjectorConfig, readDeadline, metricsEvery time.Duration) error {
	reg := obs.NewRegistry()
	var (
		reader store.BlockReader
		bf     *store.BlockFile
		rr     *blocksvc.RemoteReader
		err    error
	)
	if remote != "" || shardMapPath != "" {
		ccfg := blocksvc.ClientConfig{Conns: 4, Metrics: reg}
		if shardMapPath != "" {
			// Sharded cluster: the topology file drives consistent-hash
			// routing; each shard owns a slice of the blocks.
			ccfg.ShardMap, err = shard.Load(shardMapPath)
			if err != nil {
				return err
			}
		} else {
			// Flat list: replicas of ONE shard; every address serves the
			// whole dataset and the client fails over between them.
			for _, addr := range strings.Split(remote, ",") {
				if addr = strings.TrimSpace(addr); addr != "" {
					ccfg.Endpoints = append(ccfg.Endpoints, addr)
				}
			}
		}
		rr, err = blocksvc.Dial(ccfg)
		if err != nil {
			return err
		}
		defer rr.Close()
		hdr := rr.Header()
		if hdr.Res != g.Res() || hdr.Block != g.BlockSize() {
			return fmt.Errorf("remote serves %v in %v blocks; local flags give %v in %v — "+
				"start vizsim with the server's -dataset/-scale/-blocks",
				hdr.Res, hdr.Block, g.Res(), g.BlockSize())
		}
		if m := rr.Topology(); m != nil {
			fmt.Printf("remote cluster     %d shards (topology epoch %d, seed %d), %d blocks, 4 pooled conns per shard\n",
				len(m.Shards), m.Epoch, m.Seed, g.NumBlocks())
		} else {
			fmt.Printf("remote store       %s (v%d, %d blocks, %d replicas, 4 pooled conns)\n",
				remote, hdr.Version, g.NumBlocks(), len(ccfg.Endpoints))
		}
		reader = rr
	} else {
		dir, err := os.MkdirTemp("", "vizsim-realio")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, ds.Name+".bvol")
		start := time.Now()
		if err := store.Write(path, ds, g, 0); err != nil {
			return err
		}
		bf, err = store.Open(path)
		if err != nil {
			return err
		}
		defer bf.Close()
		fmt.Printf("materialized       %s (v%d, %d blocks) in %v\n",
			path, bf.Header().Version, g.NumBlocks(), time.Since(start).Round(time.Millisecond))
		reader = bf
	}

	inj := faultio.NewInjector(reader, inject)
	imp := entropy.Build(ds, g, entropy.Options{})
	sigma := imp.ThresholdForQuantile(0.75)
	// With a cache dir, a persistent spill tier sits between the DRAM cache
	// and the (possibly remote) store: DRAM misses check local flash before
	// paying the fetch, and DRAM evictions are written behind into it. The
	// tier evicts by the paper's importance split — high-entropy blocks
	// outlive low-entropy ones on flash, mirroring the simulator policy.
	var spill *tier.Tier
	missReader := store.BlockReader(inj)
	if cacheDir != "" {
		spill, err = tier.Open(tier.Config{
			Dir:      cacheDir,
			Capacity: cacheSize,
			Policy:   policy.NewImportanceLRU(imp.Score, sigma),
		})
		if err != nil {
			return err
		}
		defer spill.Close()
		spill.Instrument(reg)
		missReader = tier.NewReader(inj, spill)
		c := spill.Counters()
		fmt.Printf("spill tier         %s (%d bytes budget; recovered %d blocks, quarantined %d, reclaimed %d temps)\n",
			cacheDir, cacheSize, c.Blocks, c.Quarantined, c.TmpReclaimed)
	}
	capacity := int64(float64(ds.TotalBytes()) * cacheFrac)
	if capacity <= 0 {
		capacity = 1
	}
	mc, err := store.NewMemCache(missReader, capacity, cache.NewLRU())
	if err != nil {
		return err
	}
	if spill != nil {
		mc.OnEvict(func(id grid.BlockID, vals []float32) { spill.Put(id, vals) })
	}
	mc.Instrument(reg)
	// Eq. (6)'s ρ is capacity over volume: the fraction mc was sized to.
	nAz, nEl, nDist := visibility.LatticeForTotal(25920, 10)
	vis, err := visibility.NewTable(g, visibility.Options{
		NAzimuth: nAz, NElevation: nEl, NDistance: nDist,
		RMin: 2.5, RMax: 3.5,
		ViewAngle: theta,
		Radius:    radius.Dynamic{Ratio: cacheFrac, Min: 0.15},
	})
	if err != nil {
		return err
	}
	rt, err := ooc.New(mc, vis, imp, ooc.Options{
		Sigma:           sigma,
		PrefetchWorkers: 4,
		ReadDeadline:    readDeadline,
		Metrics:         reg,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	var reporter sync.WaitGroup
	if metricsEvery > 0 {
		stop := make(chan struct{})
		defer func() { close(stop); reporter.Wait() }()
		reporter.Add(1)
		go func() {
			defer reporter.Done()
			tick := time.NewTicker(metricsEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					reportMetrics(reg)
				}
			}
		}()
	}

	ctx := context.Background()
	var missing int
	var touched float64
	wall := time.Now()
	for _, pos := range p.Steps {
		if rr != nil {
			// Tell the server where the camera is so its shared-cache
			// prefetch works ahead of this session.
			rr.SendView(ctx, pos)
		}
		visSpan := rt.Phases().Begin(obs.PhaseVisibility)
		visible := visibility.VisibleSet(g, camera.Camera{Pos: pos, ViewAngle: theta})
		visSpan.End()
		data, rep, err := rt.Frame(ctx, pos, visible)
		if err != nil {
			return err
		}
		// The stand-in for rendering: touch every visible block's payload
		// once.
		renderSpan := rt.Phases().Begin(obs.PhaseRender)
		for _, vals := range data {
			if len(vals) > 0 {
				touched += float64(vals[0]) + float64(vals[len(vals)-1])
			}
		}
		renderSpan.End()
		missing += len(rep.Missing)
	}
	elapsed := time.Since(wall)
	_ = touched

	// Drain the prefetch queue before reading the counters, so "executed"
	// covers every block this run queued.
	rt.Close()
	st := rt.Snapshot()
	cc := mc.Counters()
	fmt.Printf("frames             %d in %v wall clock\n", st.Frames, elapsed.Round(time.Millisecond))
	fmt.Printf("cache              %d hits / %d misses (hit rate %.4f)\n",
		cc.Hits, cc.Misses, float64(cc.Hits)/float64(maxI64(cc.Hits+cc.Misses, 1)))
	fmt.Printf("demand             %d store reads, %d memory hits, %d frames read their misses as one batch\n",
		st.DemandReads, st.DemandHits, st.DemandBatches)
	fmt.Printf("coalesced          %d duplicate in-flight requests merged\n", cc.Coalesced)
	if bf != nil {
		ios := bf.IOStats()
		fmt.Printf("block file         %d blocks served, %d batches (%d batched blocks in %d merged runs), %d/%d decode bufs reused\n",
			ios.Reads, ios.Batches, ios.BatchBlocks, ios.MergedRuns, ios.BufReuses, ios.BufGets)
	}
	fmt.Printf("recycled           %d evicted bufs handed back for reuse, %d left to the GC past the retire cap\n",
		cc.Recycled, cc.RetireDropped)
	if rr != nil {
		rs := rr.Snapshot()
		fmt.Printf("remote             %d requests (%d blocks) over %d dials, %d MiB received, %d views sent\n",
			rs.Requests, rs.BlocksRequested, rs.Dials, rs.BytesReceived>>20, rs.ViewUpdates)
		fmt.Printf("remote faults      %d server-side, %d shed, %d wire checksum rejects, %d torn connections\n",
			rs.RemoteFaults, rs.ShedRequests, rs.ChecksumErrors, rs.TransportErrors)
		fmt.Printf("remote liveness    %d dead conns dropped (server heartbeats went quiet), %d goaways seen\n",
			rs.DeadPeers, rs.GoawaysReceived)
		fmt.Printf("remote failover    %d batches re-routed; breaker %d opens / %d probes / %d closes\n",
			rs.Failovers, rs.BreakerOpens, rs.BreakerProbes, rs.BreakerCloses)
		if rs.TopologyUpdates > 0 || rs.Redirects > 0 || rs.Reroutes > 0 {
			fmt.Printf("remote cluster     %d topology updates adopted, %d redirects seen, %d cross-shard re-routes\n",
				rs.TopologyUpdates, rs.Redirects, rs.Reroutes)
		}
	}
	if spill != nil {
		// Let the write-behind queue land before reporting, so the final
		// counters (and the directory the next session warms from) reflect
		// every spill this run produced.
		spill.Drain()
		tc := spill.Counters()
		fmt.Printf("spill tier         %d writes, %d hits / %d misses, %d evictions, %d blocks (%d MiB) resident\n",
			tc.SpillWrites, tc.SpillHits, tc.SpillMisses, tc.Evictions, tc.Blocks, tc.OccupancyBytes>>20)
		fmt.Printf("spill faults       %d disk faults, %d quarantined, %d dropped; breaker %s (%d opens / %d recoveries, %d reads + %d writes bypassed)\n",
			tc.DiskFaults, tc.Quarantined, tc.Dropped, spill.BreakerState(),
			tc.BreakerOpens, tc.BreakerRecov, tc.ReadBypassed, tc.WriteBypassed)
	}
	fmt.Printf("prefetch           %d issued, %d deduped, %d executed, %d failed, %d dropped\n",
		st.PrefetchIssued, st.PrefetchDeduped, st.PrefetchExecuted, st.PrefetchFailed, st.PrefetchDropped)
	fmt.Printf("retries            %d extra read attempts absorbed\n", st.Retries)
	fmt.Printf("checksum rejects   %d\n", st.ChecksumErrors)
	fmt.Printf("degraded frames    %d of %d (%d blocks lost)\n", st.DegradedFrames, st.Frames, missing)
	is := inj.Stats()
	fmt.Printf("injected faults    %d transient, %d permanent, %d corrupted (%d caught) over %d reads\n",
		is.Transient, is.Permanent, is.Corrupted, is.CorruptCaught, is.Reads)
	if metricsEvery > 0 {
		reportPhases(reg)
	}
	return nil
}

// reportMetrics prints one live line from the registry: frame count, cache
// traffic, and the demand-wait tail so a stalling run is visible as it runs.
func reportMetrics(reg *obs.Registry) {
	s := reg.Snapshot()
	dw := s.Histograms["ooc.phase.demand_wait_ns"]
	fmt.Printf("metrics            frames=%d cache=%d/%d coalesced=%d degraded=%d demand_wait p50=%v p95=%v\n",
		s.Counters["ooc.frames"],
		s.Counters["cache.hits"], s.Counters["cache.misses"],
		s.Counters["cache.coalesced"], s.Counters["ooc.degraded_frames"],
		time.Duration(dw.P50), time.Duration(dw.P95))
	if _, ok := s.Gauges["tier.breaker_state"]; ok {
		fmt.Printf("tier               spills=%d hits=%d faults=%d quarantined=%d occupancy=%dMiB breaker=%s\n",
			s.Counters["tier.spill_writes"], s.Counters["tier.spill_hits"],
			s.Counters["tier.disk_faults"], s.Counters["tier.quarantined"],
			s.Gauges["tier.occupancy_bytes"]>>20,
			breakerState(s.Gauges["tier.breaker_state"]).String())
	}
}

// breakerState mirrors the tier's gauge encoding for display.
type breakerState int64

func (s breakerState) String() string {
	switch s {
	case 0:
		return "closed"
	case 1:
		return "open"
	case 2:
		return "half-open"
	default:
		return "unknown"
	}
}

// reportPhases prints the frame-phase latency breakdown the registry
// accumulated over the whole run: the paper's visibility → demand-wait →
// render → prefetch-issue split, plus the whole-frame distribution.
func reportPhases(reg *obs.Registry) {
	s := reg.Snapshot()
	fmt.Println("frame phases       count        p50        p95        p99")
	for _, name := range []string{
		"ooc.phase.visibility_ns",
		"ooc.phase.demand_wait_ns",
		"ooc.phase.render_ns",
		"ooc.phase.prefetch_issue_ns",
		"ooc.frame_ns",
	} {
		h, ok := s.Histograms[name]
		if !ok || h.Count == 0 {
			continue
		}
		label := strings.TrimSuffix(name, "_ns")
		label = strings.TrimPrefix(label, "ooc.phase.")
		label = strings.TrimPrefix(label, "ooc.")
		fmt.Printf("  %-16s %6d %10v %10v %10v\n", label, h.Count,
			time.Duration(h.P50), time.Duration(h.P95), time.Duration(h.P99))
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vizsim:", err)
	os.Exit(1)
}
