// Package analytics implements the paper's data-dependent operations
// (Fig. 3): per-view histograms of variables and correlation matrices over
// the data regions seen from the current view. These operations require the
// full-resolution values of every visible block — the access pattern that
// motivates the application-aware placement policy.
package analytics

import (
	"fmt"
	"math"

	"repro/internal/entropy"
	"repro/internal/grid"
	"repro/internal/volume"
)

// RegionHistogram builds a histogram of one variable over the given blocks,
// sampling at most maxPerAxis values per block axis (0 = every voxel). The
// histogram range adapts to the observed min/max, matching the dynamically
// updated analytic graphs of Fig. 3.
func RegionHistogram(ds *volume.Dataset, g *grid.Grid, blocks []grid.BlockID, variable, bins, maxPerAxis int) (*entropy.Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("analytics: bins = %d", bins)
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("analytics: empty block set")
	}
	all := make([]float32, 0, 4096)
	for _, id := range blocks {
		all = append(all, ds.BlockSamples(g, id, variable, maxPerAxis)...)
	}
	min, max := all[0], all[0]
	for _, v := range all {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max <= min {
		max = min + 1 // degenerate constant region: one-bin histogram
	}
	h := entropy.NewHistogram(bins, float64(min), float64(max))
	h.AddAll(all)
	return h, nil
}

// CorrelationMatrix computes the Pearson correlation between every pair of
// the given variables over the region covered by blocks — the paper's
// "correlation matrix of 151 primary variables for the regions seen from
// the images". The result is symmetric with unit diagonal; variables with
// zero variance in the region correlate 0 with everything (and 1 with
// themselves).
func CorrelationMatrix(ds *volume.Dataset, g *grid.Grid, blocks []grid.BlockID, vars []int, maxPerAxis int) ([][]float64, error) {
	if len(vars) == 0 {
		return nil, fmt.Errorf("analytics: no variables")
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("analytics: empty block set")
	}
	for _, v := range vars {
		if v < 0 || v >= ds.Variables {
			return nil, fmt.Errorf("analytics: variable %d out of [0,%d)", v, ds.Variables)
		}
	}
	// Gather per-variable sample vectors over the same spatial points.
	series := make([][]float32, len(vars))
	for i, v := range vars {
		for _, id := range blocks {
			series[i] = append(series[i], ds.BlockSamples(g, id, v, maxPerAxis)...)
		}
	}
	n := len(series[0])
	means := make([]float64, len(vars))
	for i := range series {
		var s float64
		for _, v := range series[i] {
			s += float64(v)
		}
		means[i] = s / float64(n)
	}
	stds := make([]float64, len(vars))
	for i := range series {
		var s float64
		for _, v := range series[i] {
			d := float64(v) - means[i]
			s += d * d
		}
		stds[i] = math.Sqrt(s)
	}
	m := make([][]float64, len(vars))
	for i := range m {
		m[i] = make([]float64, len(vars))
		m[i][i] = 1
	}
	for i := 0; i < len(vars); i++ {
		for j := i + 1; j < len(vars); j++ {
			if stds[i] == 0 || stds[j] == 0 {
				continue
			}
			var cov float64
			for k := 0; k < n; k++ {
				cov += (float64(series[i][k]) - means[i]) * (float64(series[j][k]) - means[j])
			}
			r := cov / (stds[i] * stds[j])
			m[i][j], m[j][i] = r, r
		}
	}
	return m, nil
}

// Stats summarizes one variable over a region.
type Stats struct {
	Count    int
	Min, Max float64
	Mean     float64
	StdDev   float64
}

// RegionStats computes summary statistics of a variable over the blocks.
func RegionStats(ds *volume.Dataset, g *grid.Grid, blocks []grid.BlockID, variable, maxPerAxis int) (Stats, error) {
	if len(blocks) == 0 {
		return Stats{}, fmt.Errorf("analytics: empty block set")
	}
	var st Stats
	st.Min = math.Inf(1)
	st.Max = math.Inf(-1)
	var sum, sumSq float64
	for _, id := range blocks {
		for _, v := range ds.BlockSamples(g, id, variable, maxPerAxis) {
			f := float64(v)
			st.Count++
			sum += f
			sumSq += f * f
			if f < st.Min {
				st.Min = f
			}
			if f > st.Max {
				st.Max = f
			}
		}
	}
	st.Mean = sum / float64(st.Count)
	variance := sumSq/float64(st.Count) - st.Mean*st.Mean
	if variance < 0 {
		variance = 0
	}
	st.StdDev = math.Sqrt(variance)
	return st, nil
}
