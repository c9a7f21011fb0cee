// Realio: genuine out-of-core visualization with actual disk I/O — the
// paper's future-work direction (§VI, parallel data fetching). The example
// materializes a block-layout file on disk (bvol v2, checksummed), opens it
// behind a fault injector and a byte-budgeted in-memory cache, and drives
// the concurrent runtime: demand reads are parallel and retried on
// transient faults, and the vicinity's predicted high-entropy blocks are
// prefetched by background workers while each frame "renders".
//
// The injector deliberately fails 5% of reads and corrupts 2% to show the
// fault-tolerance layer at work: retries absorb every transient fault and
// the per-block CRC32C catches every corruption, so all frames complete
// undegraded — the counters at the end prove how much was absorbed.
//
// Run with:
//
//	go run ./examples/realio
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	vizcache "repro"

	"repro/internal/cache"
	"repro/internal/entropy"
	"repro/internal/faultio"
	"repro/internal/ooc"
	"repro/internal/radius"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/visibility"
)

func main() {
	ds := vizcache.LiftedRR().Scale(0.125)
	g, err := ds.GridWithBlockCount(1024)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Materialize the dataset in block layout (one-time, like cmd/datagen).
	dir, err := os.MkdirTemp("", "vizcache-realio")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, ds.Name+".bvol")
	start := time.Now()
	if err := store.Write(path, ds, g, 0); err != nil {
		log.Fatal(err)
	}
	bf, err := store.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer bf.Close()
	fmt.Printf("materialized %s (v%d, %d blocks, %d bytes) in %v\n",
		path, bf.Header().Version, g.NumBlocks(), ds.TotalBytes(),
		time.Since(start).Round(time.Millisecond))

	// 2. A deterministic fault injector between disk and cache: transient
	// failures and in-transit bit flips, as unreliable storage would serve.
	inj := faultio.NewInjector(bf, faultio.InjectorConfig{
		Seed:        1,
		FailRate:    0.05,
		CorruptRate: 0.02,
	})

	// 3. Cache 25% of the data in memory, LRU-managed.
	const cacheFrac = 0.25
	mc, err := store.NewMemCache(inj, int64(cacheFrac*float64(ds.TotalBytes())), cache.NewLRU())
	if err != nil {
		log.Fatal(err)
	}

	// 4. Prediction tables (Steps 1-2 of the paper's pipeline). The vicinal
	// radius is Eq. (6)'s for the ρ the cache was just sized to.
	imp := entropy.Build(ds, g, entropy.Options{})
	nAz, nEl, nDist := visibility.LatticeForTotal(25920, 10)
	vis, err := visibility.NewTable(g, visibility.Options{
		NAzimuth: nAz, NElevation: nEl, NDistance: nDist,
		RMin: 2.5, RMax: 3.5,
		ViewAngle: vec.Radians(10),
		Radius:    radius.Dynamic{Ratio: cacheFrac, Min: 0.15},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 5. The concurrent out-of-core runtime, with retries and a per-read
	// deadline so one slow block cannot stall a frame.
	rt, err := ooc.New(mc, vis, imp, ooc.Options{
		Sigma:           imp.ThresholdForQuantile(0.75),
		PrefetchWorkers: 4,
		ReadDeadline:    2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	ctx := context.Background()
	theta := vec.Radians(10)
	path2 := vizcache.SphericalPath(3, 5, 90)
	var frameBytes int64
	var degraded int
	wall := time.Now()
	for i, pos := range path2.Steps {
		visible := vizcache.VisibleBlocks(g, vizcache.Camera{Pos: pos, ViewAngle: theta})
		data, rep, err := rt.Frame(ctx, pos, visible)
		if err != nil {
			log.Fatal(err)
		}
		if rep.Degraded {
			// A production renderer would substitute a lower LOD, or a copy
			// it kept of the previous frame's data, for rep.Missing (the
			// slices Frame returns last only until the next Frame); here we
			// just count it.
			degraded++
		}
		for _, vals := range data {
			frameBytes += int64(len(vals)) * 4
		}
		// "Render": a cheap reduction standing in for ray marching, giving
		// the prefetch workers wall-clock time to run concurrently.
		var sum float64
		for _, vals := range data {
			for _, v := range vals {
				sum += float64(v)
			}
		}
		if i%30 == 0 {
			cc := mc.Counters()
			fmt.Printf("frame %2d: %3d blocks, running hit rate %.2f (checksum %.1f)\n",
				i, len(visible), float64(cc.Hits)/float64(max64(cc.Hits+cc.Misses, 1)), sum)
		}
	}
	elapsed := time.Since(wall)

	cc := mc.Counters()
	st := rt.Snapshot()
	fmt.Printf("\n%d frames in %v wall clock (%.1f MB touched)\n",
		st.Frames, elapsed.Round(time.Millisecond), float64(frameBytes)/(1<<20))
	fmt.Printf("cache: %d hits / %d misses (hit rate %.2f)\n",
		cc.Hits, cc.Misses, float64(cc.Hits)/float64(max64(cc.Hits+cc.Misses, 1)))
	fmt.Printf("prefetch: %d issued, %d executed, %d failed, %d dropped\n",
		st.PrefetchIssued, st.PrefetchExecuted, st.PrefetchFailed, st.PrefetchDropped)
	fmt.Printf("faults: %d retries absorbed, %d corruptions caught by CRC, %d reads lost, %d/%d frames degraded\n",
		st.Retries, st.ChecksumErrors, st.FailedReads, degraded, st.Frames)
	inStats := inj.Stats()
	fmt.Printf("injected: %d transient, %d permanent, %d corrupted (%d caught, %d silent) over %d reads\n",
		inStats.Transient, inStats.Permanent, inStats.Corrupted,
		inStats.CorruptCaught, inStats.CorruptSilent, inStats.Reads)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
