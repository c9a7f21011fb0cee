package experiments

// Ablation studies for the design choices DESIGN.md §5 calls out. These go
// beyond the paper's evaluation: they quantify each Algorithm 1 component,
// sweep the entropy threshold σ, and compare against an adaptive
// application-agnostic policy (ARC) plus Belady's offline optimum as the
// lower bound.

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// AblationComponents toggles Algorithm 1's three mechanisms one at a time
// on a random 10–15° path (3d_ball, 2048 blocks). Series "missrate" and
// "total_ms" have one entry per variant (XLabels).
func AblationComponents(o Options) (*Result, error) {
	o = o.WithDefaults()
	ds, err := scaledDataset("3d_ball", o)
	if err != nil {
		return nil, err
	}
	g, err := gridWithBlocks(ds, 2048)
	if err != nil {
		return nil, err
	}
	imp := importanceFor(ds, g)
	path := randomPath(o, 10, 15)
	cfg := baseConfig(ds, g, path, o)

	variants := []struct {
		name string
		opts sim.Options
	}{
		{"full", sim.Options{Preload: true, PrefetchEnabled: true, StaleOnlyEviction: true}},
		{"no-preload", sim.Options{PrefetchEnabled: true, StaleOnlyEviction: true}},
		{"no-prefetch", sim.Options{Preload: true, StaleOnlyEviction: true}},
		{"no-stale-eviction", sim.Options{Preload: true, PrefetchEnabled: true}},
		{"none (plain LRU fetch)", sim.Options{}},
	}
	tb := report.NewTable(
		"Ablation: Algorithm 1 components (3d_ball, 2048 blocks, random 10-15°)",
		"variant", "miss rate", "I/O time", "prefetch time", "total time")
	res := newResult("ablation-components", tb)
	for _, v := range variants {
		opts := v.opts
		m, err := sim.RunAppAware(cfg, sim.AppAwareConfig{Importance: imp, Policy: &opts})
		if err != nil {
			return nil, err
		}
		tb.AddRow(v.name, m.MissRate, m.IOTime, m.PrefetchTime, m.TotalTime)
		res.Series["missrate"] = append(res.Series["missrate"], m.MissRate)
		res.Series["total_ms"] = append(res.Series["total_ms"],
			float64(m.TotalTime)/float64(time.Millisecond))
		res.XLabels = append(res.XLabels, v.name)
	}
	return res, nil
}

// SigmaQuantiles are the σ sweep points: the fraction of blocks whose
// entropy exceeds the threshold.
func SigmaQuantiles() []float64 { return []float64{0.1, 0.25, 0.5, 0.75, 1.0} }

// AblationSigma sweeps the entropy threshold σ. Low quantiles prefetch
// almost nothing (under-use of prediction); quantile 1 prefetches every
// predicted block (maximum transfer cost). Series "missrate" and
// "prefetch_ms" per quantile.
func AblationSigma(o Options) (*Result, error) {
	o = o.WithDefaults()
	ds, err := scaledDataset("3d_ball", o)
	if err != nil {
		return nil, err
	}
	g, err := gridWithBlocks(ds, 2048)
	if err != nil {
		return nil, err
	}
	imp := importanceFor(ds, g)
	path := randomPath(o, 10, 15)
	cfg := baseConfig(ds, g, path, o)

	tb := report.NewTable(
		"Ablation: entropy threshold σ (fraction of blocks above σ)",
		"quantile", "σ (bits)", "miss rate", "prefetches", "prefetch time", "total time")
	res := newResult("ablation-sigma", tb)
	for _, q := range SigmaQuantiles() {
		m, err := sim.RunAppAware(cfg, sim.AppAwareConfig{Importance: imp, SigmaQuantile: q})
		if err != nil {
			return nil, err
		}
		sigma := imp.ThresholdForQuantile(q)
		tb.AddRow(q, sigma, m.MissRate, m.Prefetches, m.PrefetchTime, m.TotalTime)
		res.Series["missrate"] = append(res.Series["missrate"], m.MissRate)
		res.Series["prefetch_ms"] = append(res.Series["prefetch_ms"],
			float64(m.PrefetchTime)/float64(time.Millisecond))
		res.Series["prefetches"] = append(res.Series["prefetches"], float64(m.Prefetches))
		res.XLabels = append(res.XLabels, fmt.Sprintf("%g", q))
	}
	return res, nil
}

// AblationPolicies compares the app-aware policy against the online
// baselines (FIFO, LRU, ARC) and Belady's offline bound on the same trace:
// the DRAM-level request stream is recorded once and replayed against a
// single cache of equal block capacity. Series "missrate" per policy
// (XLabels).
func AblationPolicies(o Options) (*Result, error) {
	o = o.WithDefaults()
	ds, err := scaledDataset("3d_ball", o)
	if err != nil {
		return nil, err
	}
	g, err := gridWithBlocks(ds, 2048)
	if err != nil {
		return nil, err
	}
	imp := importanceFor(ds, g)
	path := randomPath(o, 10, 15)
	cfg := baseConfig(ds, g, path, o)

	tb := report.NewTable(
		"Ablation: replacement policy zoo + offline bound (3d_ball, 2048 blocks, random 10-15°)",
		"policy", "miss rate", "total time")
	res := newResult("ablation-policies", tb)
	add := func(name string, missRate float64, total time.Duration) {
		tb.AddRow(name, missRate, total)
		res.Series["missrate"] = append(res.Series["missrate"], missRate)
		res.XLabels = append(res.XLabels, name)
	}

	// Hierarchy runs for the online policies.
	type online struct {
		name string
		mk   cache.Factory
	}
	var recorded *trace.Trace
	for _, p := range []online{
		{"FIFO", func() cache.Policy { return cache.NewFIFO() }},
		{"LRU", func() cache.Policy { return cache.NewLRU() }},
		{"ARC", func() cache.Policy { return cache.NewARC() }},
	} {
		m, err := sim.RunBaseline(cfg, p.mk, p.name)
		if err != nil {
			return nil, err
		}
		add(p.name, m.MissRate, m.TotalTime)
		recorded = m.Trace
	}
	opt, err := sim.RunAppAware(cfg, sim.AppAwareConfig{Importance: imp})
	if err != nil {
		return nil, err
	}
	add(opt.Policy, opt.MissRate, opt.TotalTime)

	// Belady lower bound on the same request stream, single-level cache
	// with the DRAM block capacity.
	capBlocks := dramBlockCapacity(cfg)
	flat := recorded.Flatten()
	bel := trace.Replay(recorded, cache.NewBelady(flat), capBlocks)
	add("Belady(offline, DRAM-only)", bel.MissRate(), 0)
	return res, nil
}

// dramBlockCapacity estimates how many (uniform) blocks fit in the DRAM
// level under the run's cache ratio.
func dramBlockCapacity(cfg sim.Config) int {
	total := cfg.Dataset.TotalBytes()
	dram := int64(float64(total) * cfg.CacheRatio * cfg.CacheRatio)
	blockBytes := cfg.Grid.Bytes(0, cfg.Dataset.ValueSize, cfg.Dataset.Variables)
	if blockBytes <= 0 {
		return 1
	}
	n := int(dram / blockBytes)
	if n < 1 {
		n = 1
	}
	return n
}

// AblationPrefetchWindow compares the paper's unbounded prefetching (which
// loses to LRU beyond ~10° view changes at cache ratio 0.5, Fig. 13a)
// against our render-window-bounded extension, which stops speculating when
// the frame finishes drawing. Series "unbounded_ms", "windowed_ms", and
// "lru_ms" hold total time per degree range.
func AblationPrefetchWindow(o Options) (*Result, error) {
	o = o.WithDefaults()
	ds, err := scaledDataset("3d_ball", o)
	if err != nil {
		return nil, err
	}
	g, err := gridWithBlocks(ds, 4096)
	if err != nil {
		return nil, err
	}
	imp := importanceFor(ds, g)
	tb := report.NewTable(
		"Ablation: unbounded (paper) vs render-window-bounded prefetching (3d_ball, 4096 blocks, ratio 0.5)",
		"degrees/step", "LRU total", "OPT unbounded", "OPT windowed")
	res := newResult("ablation-prefetch-window", tb)
	for _, dr := range RandomDegreeRanges() {
		path := randomPath(o, dr[0], dr[1])
		cfg := baseConfig(ds, g, path, o)
		lru, err := sim.RunBaseline(cfg, func() cache.Policy { return cache.NewLRU() }, "LRU")
		if err != nil {
			return nil, err
		}
		// Both arms use the paper's synchronous prefetch pricing so the
		// window is the only difference under test.
		unbounded, err := sim.RunAppAware(cfg, sim.AppAwareConfig{
			Importance: imp, PrefetchBatch: 1,
		})
		if err != nil {
			return nil, err
		}
		windowed, err := sim.RunAppAware(cfg, sim.AppAwareConfig{
			Importance: imp, PrefetchBatch: 1, WindowedPrefetch: true,
		})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%g-%g", dr[0], dr[1])
		tb.AddRow(label, lru.TotalTime, unbounded.TotalTime, windowed.TotalTime)
		res.Series["lru_ms"] = append(res.Series["lru_ms"],
			float64(lru.TotalTime)/float64(time.Millisecond))
		res.Series["unbounded_ms"] = append(res.Series["unbounded_ms"],
			float64(unbounded.TotalTime)/float64(time.Millisecond))
		res.Series["windowed_ms"] = append(res.Series["windowed_ms"],
			float64(windowed.TotalTime)/float64(time.Millisecond))
		res.XLabels = append(res.XLabels, label)
	}
	return res, nil
}

// AblationOverlap quantifies the prefetch/render overlap: the same
// app-aware run accounted with and without overlapping. Series "total_ms"
// with entries [overlapped, serialized].
func AblationOverlap(o Options) (*Result, error) {
	o = o.WithDefaults()
	ds, err := scaledDataset("3d_ball", o)
	if err != nil {
		return nil, err
	}
	g, err := gridWithBlocks(ds, 2048)
	if err != nil {
		return nil, err
	}
	imp := importanceFor(ds, g)
	path := randomPath(o, 5, 10)
	cfg := baseConfig(ds, g, path, o)
	m, err := sim.RunAppAware(cfg, sim.AppAwareConfig{Importance: imp})
	if err != nil {
		return nil, err
	}
	serialized := m.IOTime + m.PrefetchTime + m.RenderTime
	tb := report.NewTable(
		"Ablation: prefetch/render overlap accounting",
		"accounting", "total time")
	tb.AddRow("overlapped (paper model)", m.TotalTime)
	tb.AddRow("serialized (no overlap)", serialized)
	res := newResult("ablation-overlap", tb)
	res.Series["total_ms"] = []float64{
		float64(m.TotalTime) / float64(time.Millisecond),
		float64(serialized) / float64(time.Millisecond),
	}
	res.XLabels = []string{"overlapped", "serialized"}
	return res, nil
}
