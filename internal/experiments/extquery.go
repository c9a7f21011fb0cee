package experiments

// ExtQuery (extension): query-based visualization (§III-A; related work
// [3]) under caching. A scientist activates a value-range query — "show me
// the flame: 0.35 < mixfrac < 0.55" — which restricts rendering to blocks
// whose summaries may match. Queries shrink per-frame working sets (less
// I/O) and concentrate them on high-entropy regions, which is exactly what
// the importance preload anticipated: the app-aware policy's advantage
// grows under query-constrained exploration.

import (
	"time"

	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/grid"
	"repro/internal/memhier"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/summary"
	"repro/internal/vec"
	"repro/internal/visibility"
)

// ExtQuery compares unconstrained vs query-constrained exploration under
// LRU and the app-aware policy. Series "io_ms" and "missrate" have one
// entry per (mode, policy) row in table order.
func ExtQuery(o Options) (*Result, error) {
	o = o.WithDefaults()
	ds, err := scaledDataset("lifted_rr", o)
	if err != nil {
		return nil, err
	}
	g, err := gridWithBlocks(ds, 1024)
	if err != nil {
		return nil, err
	}
	imp := importanceFor(ds, g)
	sums, err := summary.Build(ds, g, []int{0}, summary.Options{})
	if err != nil {
		return nil, err
	}
	// The flame-sheet query: values around the stoichiometric surface.
	flame := summary.Query{{Variable: 0, Min: 0.35, Max: 0.55}}
	path := randomPath(o, 10, 15)
	theta := vec.Radians(o.ViewAngleDeg)
	model := render.DefaultCostModel()

	tb := report.NewTable(
		"Extension: query-based visualization under caching (lifted_rr, flame-sheet query)",
		"mode", "policy", "mean blocks/frame", "miss rate", "demand I/O")
	res := newResult("ext-query", tb)

	type mode struct {
		name  string
		query summary.Query
	}
	for _, md := range []mode{{"full volume", nil}, {"flame query", flame}} {
		for _, pol := range []string{"LRU", "OPT"} {
			h, err := memhier.New(
				memhier.StandardConfig(ds.TotalBytes(), o.CacheRatio,
					func() cache.Policy { return cache.NewLRU() }),
				func(id grid.BlockID) int64 { return g.Bytes(id, ds.ValueSize, ds.Variables) },
			)
			if err != nil {
				return nil, err
			}
			// Preload for OPT only (Algorithm 1 line 7).
			if pol == "OPT" {
				sigma := imp.ThresholdForQuantile(0.75)
				for _, id := range imp.Ranked() {
					if imp.Score(id) <= sigma || !h.Fits(0, id) {
						break
					}
					h.Preload(0, id)
				}
			}
			var io time.Duration
			var blockSum int
			for _, pos := range path.Steps {
				visible := visibility.VisibleSet(g, camera.Camera{Pos: pos, ViewAngle: theta})
				if md.query != nil {
					visible, err = sums.Filter(visible, md.query)
					if err != nil {
						return nil, err
					}
				}
				blockSum += len(visible)
				before := h.DemandTime
				for _, id := range visible {
					h.Get(id)
				}
				io += h.DemandTime - before
				_ = model
			}
			mean := float64(blockSum) / float64(path.Len())
			tb.AddRow(md.name, pol, mean, h.TotalMissRate(), io)
			res.Series["io_ms"] = append(res.Series["io_ms"], float64(io)/float64(time.Millisecond))
			res.Series["missrate"] = append(res.Series["missrate"], h.TotalMissRate())
			res.Series["blocks"] = append(res.Series["blocks"], mean)
			res.XLabels = append(res.XLabels, md.name+"/"+pol)
		}
	}
	return res, nil
}
