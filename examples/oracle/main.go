// Oracle: how close does the application-aware policy get to the offline
// optimum? The example records the block request stream of a random
// exploration, replays it against the online policies (FIFO, LRU, ARC) and
// Belady's clairvoyant OPT at equal capacity, and reports where the paper's
// app-aware policy lands in between.
//
// Run with:
//
//	go run ./examples/oracle
package main

import (
	"fmt"
	"log"

	vizcache "repro"
)

func main() {
	ds := vizcache.Ball().Scale(0.125)
	g, err := ds.GridWithBlockCount(2048)
	if err != nil {
		log.Fatal(err)
	}
	path := vizcache.RandomPath(2.8, 3.2, 10, 15, 150, 7)
	cfg := vizcache.SimConfig{
		Dataset: ds, Grid: g, Path: path,
		ViewAngle: 0.1745, CacheRatio: 0.5,
	}

	// Full-hierarchy runs: baselines and the app-aware policy.
	fmt.Println("multi-level hierarchy (DRAM 25% / SSD 50% of data):")
	var recorded *vizcache.Trace
	for _, b := range []struct {
		name string
		mk   func() vizcache.Policy
	}{
		{"FIFO", func() vizcache.Policy { return vizcache.NewFIFO() }},
		{"LRU", func() vizcache.Policy { return vizcache.NewLRU() }},
		{"ARC", func() vizcache.Policy { return vizcache.NewARC() }},
	} {
		m, err := vizcache.RunBaseline(cfg, b.mk, b.name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s miss rate %.4f, total %v\n", m.Policy, m.MissRate, m.TotalTime)
		recorded = m.Trace
	}
	opt, err := vizcache.RunAppAware(cfg, vizcache.AppAwareConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-6s miss rate %.4f, total %v  <- the paper's policy\n",
		"OPT", opt.MissRate, opt.TotalTime)

	// Single-level replay at DRAM capacity: the apples-to-apples ground
	// where Belady's offline optimum is defined.
	blockBytes := g.Bytes(0, ds.ValueSize, ds.Variables)
	dramBlocks := int(float64(ds.TotalBytes()) * 0.25 / float64(blockBytes))
	fmt.Printf("\nsingle-level replay of the same %d-request trace at %d-block capacity:\n",
		recorded.TotalRequests(), dramBlocks)
	for _, b := range []struct {
		name string
		mk   func() vizcache.Policy
	}{
		{"FIFO", func() vizcache.Policy { return vizcache.NewFIFO() }},
		{"LRU", func() vizcache.Policy { return vizcache.NewLRU() }},
		{"ARC", func() vizcache.Policy { return vizcache.NewARC() }},
		{"Belady", func() vizcache.Policy { return vizcache.NewBelady(recorded.Flatten()) }},
	} {
		r := vizcache.ReplayTrace(recorded, b.mk(), dramBlocks)
		fmt.Printf("  %-6s miss rate %.4f (%d misses)\n", r.Policy, r.MissRate(), r.Misses)
	}
	fmt.Println("\nBelady needs the future; the app-aware policy approaches it using")
	fmt.Println("only the T_visible and T_important tables.")
}
