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
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/summary"
	"repro/internal/visibility"
)

// ExtQuery compares unconstrained vs query-constrained exploration under
// LRU and the app-aware policy's importance preload. Series "io_ms" and
// "missrate" have one entry per (mode, policy) row in table order.
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
	sums, err := summary.Build(ds, g, []int{0})
	if err != nil {
		return nil, err
	}
	// The flame-sheet query: values around the stoichiometric surface.
	flame := summary.Query{{Variable: 0, Min: 0.35, Max: 0.55}}
	cfg := baseConfig(ds, g, randomPath(o, 10, 15), o)
	cam := camera.Camera{ViewAngle: cfg.ViewAngle}

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
			var s *sim.Session
			if pol == "OPT" {
				// Algorithm 1's line-7 preload alone: the query, not the
				// camera, decides what a frame needs.
				s, err = sim.NewAppAware(cfg, sim.AppAwareConfig{
					Importance: imp, SigmaQuantile: 0.75, Policy: &sim.Options{Preload: true},
				})
			} else {
				s, err = sim.NewBaseline(cfg, func() cache.Policy { return cache.NewLRU() }, pol)
			}
			if err != nil {
				return nil, err
			}
			for _, pos := range cfg.Path.Steps {
				cam.Pos = pos
				visible := visibility.VisibleSet(g, cam)
				if md.query != nil {
					if visible, err = sums.Filter(visible, md.query); err != nil {
						return nil, err
					}
				}
				s.Step(pos, visible)
			}
			m := s.Metrics()
			tb.AddRow(md.name, pol, m.MeanVisible, m.MissRate, m.IOTime)
			res.Series["io_ms"] = append(res.Series["io_ms"], float64(m.IOTime)/float64(time.Millisecond))
			res.Series["missrate"] = append(res.Series["missrate"], m.MissRate)
			res.Series["blocks"] = append(res.Series["blocks"], m.MeanVisible)
			res.XLabels = append(res.XLabels, md.name+"/"+pol)
		}
	}
	return res, nil
}
