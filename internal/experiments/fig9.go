package experiments

// Fig. 9: miss rate versus block division on 3d_ball, for spherical paths
// with 1–45° per-step intervals (panels a–g) and random paths with 0–5°
// through 30–35° per-step changes (panels h–n), comparing FIFO, LRU, and
// the application-aware policy (OPT). Paper findings reproduced here:
// OPT < LRU ≤ FIFO for every block division; small blocks help at small
// view-direction changes; block size matters little at large changes; the
// sweet spot is ~1024–4096 total blocks.

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/grid"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/volume"
)

// SphericalDegrees are Fig. 9's spherical-path per-step intervals (a–g plus
// the 45° panel).
func SphericalDegrees() []float64 { return []float64{1, 5, 10, 15, 20, 25, 30, 45} }

// RandomDegreeRanges are Fig. 9's random-path per-step change ranges (h–n).
func RandomDegreeRanges() [][2]float64 {
	return [][2]float64{{0, 5}, {5, 10}, {10, 15}, {15, 20}, {20, 25}, {25, 30}, {30, 35}}
}

// BlockSizesFor scales the paper's six §V-B1 block extents (defined on the
// 1024³ ball) to the scaled dataset so total block counts match the paper's
// 512–16,384 range.
func BlockSizesFor(ds *volume.Dataset) []grid.Dims {
	f := float64(ds.Res.X) / 1024.0
	out := make([]grid.Dims, 0, 6)
	for _, b := range grid.StandardBlockSizes() {
		s := grid.Dims{X: scaleAxis(b.X, f), Y: scaleAxis(b.Y, f), Z: scaleAxis(b.Z, f)}
		out = append(out, s)
	}
	return out
}

func scaleAxis(n int, f float64) int {
	s := int(float64(n) * f)
	if s < 2 {
		s = 2
	}
	return s
}

// Fig9 runs the block-division sweep. Series are keyed
// "<path>/<policy>" with one miss-rate value per block size; XLabels hold
// the block-size strings.
func Fig9(o Options) (*Result, error) {
	o = o.WithDefaults()
	ds, err := scaledDataset("3d_ball", o)
	if err != nil {
		return nil, err
	}
	sizes := BlockSizesFor(ds)
	tb := report.NewTable(
		"Fig. 9: miss rate between different block divisions (3d_ball)",
		"path", "block size", "#blocks", "FIFO", "LRU", "OPT")
	res := newResult("fig9", tb)
	for _, b := range sizes {
		res.XLabels = append(res.XLabels, b.String())
	}

	// Assemble all panels: spherical a–g and random h–n.
	type panel struct {
		label  string
		isRand bool
		lo, hi float64
		deg    float64
	}
	panels := make([]panel, 0, 15)
	for _, d := range SphericalDegrees() {
		panels = append(panels, panel{label: fmt.Sprintf("spherical-%gdeg", d), deg: d})
	}
	for _, r := range RandomDegreeRanges() {
		panels = append(panels, panel{
			label:  fmt.Sprintf("random-%g-%gdeg", r[0], r[1]),
			isRand: true, lo: r[0], hi: r[1],
		})
	}

	for _, p := range panels {
		var path = sphericalPath(o, p.deg)
		if p.isRand {
			path = randomPath(o, p.lo, p.hi)
		}
		for _, bs := range sizes {
			g, err := ds.Grid(bs)
			if err != nil {
				return nil, err
			}
			imp := importanceFor(ds, g)
			cfg := baseConfig(ds, g, path, o)
			fifo, err := sim.RunBaseline(cfg, func() cache.Policy { return cache.NewFIFO() }, "FIFO")
			if err != nil {
				return nil, err
			}
			lru, err := sim.RunBaseline(cfg, func() cache.Policy { return cache.NewLRU() }, "LRU")
			if err != nil {
				return nil, err
			}
			opt, err := sim.RunAppAware(cfg, sim.AppAwareConfig{Importance: imp})
			if err != nil {
				return nil, err
			}
			tb.AddRow(p.label, bs.String(), g.NumBlocks(),
				fifo.MissRate, lru.MissRate, opt.MissRate)
			res.Series[p.label+"/FIFO"] = append(res.Series[p.label+"/FIFO"], fifo.MissRate)
			res.Series[p.label+"/LRU"] = append(res.Series[p.label+"/LRU"], lru.MissRate)
			res.Series[p.label+"/OPT"] = append(res.Series[p.label+"/OPT"], opt.MissRate)
		}
	}
	return res, nil
}
