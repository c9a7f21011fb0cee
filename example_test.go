package vizcache_test

// Godoc examples for the public API. They run as tests, so every snippet in
// the documentation is verified to compile and behave.

import (
	"fmt"

	vizcache "repro"
)

// ExampleNewViewer shows the minimal interactive session: open a dataset,
// move the camera, read the session metrics.
func ExampleNewViewer() {
	ds := vizcache.Ball().Scale(1.0 / 32) // tiny for the example
	viewer, err := vizcache.NewViewer(ds, vizcache.ViewerOptions{Blocks: 64})
	if err != nil {
		panic(err)
	}
	for _, pos := range vizcache.SphericalPath(3, 5, 10).Steps {
		viewer.Goto(pos)
	}
	m := viewer.Metrics()
	fmt.Println(m.Steps, "views under", m.Policy)
	// Output: 10 views under OPT(app-aware)
}

// ExampleRunBaseline compares a conventional policy with the paper's
// application-aware policy on the same exploration.
func ExampleRunBaseline() {
	ds := vizcache.Ball().Scale(1.0 / 32)
	g, err := ds.GridWithBlockCount(64)
	if err != nil {
		panic(err)
	}
	cfg := vizcache.SimConfig{
		Dataset:    ds,
		Grid:       g,
		Path:       vizcache.SphericalPath(3, 10, 20),
		ViewAngle:  0.17, // ~10°
		CacheRatio: 0.5,
	}
	lru, err := vizcache.RunBaseline(cfg, func() vizcache.Policy { return vizcache.NewLRU() }, "LRU")
	if err != nil {
		panic(err)
	}
	opt, err := vizcache.RunAppAware(cfg, vizcache.AppAwareConfig{})
	if err != nil {
		panic(err)
	}
	fmt.Println(opt.MissRate < lru.MissRate)
	// Output: true
}

// ExampleVisibleBlocks computes the exact visible set for one view point.
func ExampleVisibleBlocks() {
	ds := vizcache.Ball().Scale(1.0 / 32)
	g, err := ds.GridWithBlockCount(512)
	if err != nil {
		panic(err)
	}
	cam := vizcache.Camera{Pos: vizcache.Vec(0, 0, 3), ViewAngle: 0.26}
	visible := vizcache.VisibleBlocks(g, cam)
	fmt.Println(len(visible) > 0, len(visible) < g.NumBlocks())
	// Output: true true
}
