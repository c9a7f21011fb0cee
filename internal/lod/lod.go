// Package lod implements the conventional multi-resolution (level-of-detail)
// representation the paper's §III-B describes as the standard
// view-dependent optimization: a pyramid of progressively downsampled
// versions of the volume, with the rendered level chosen by camera
// distance. Far-away exploration loads dramatically fewer bytes — but, as
// the paper argues, data-dependent operations (iso-surfaces, histograms,
// correlations) computed on coarse levels are *wrong*, which is the
// motivation for the application-aware full-resolution policy. The
// ExtLOD experiment quantifies both sides.
package lod

import (
	"fmt"
	"math"

	"repro/internal/camera"
	"repro/internal/grid"
	"repro/internal/visibility"
	"repro/internal/volume"
)

// Pyramid is a multi-resolution stack over one dataset. Level 0 is full
// resolution; each level halves every axis (floor, min 1 voxel). All levels
// share the nominal block extent, so coarser levels have fewer blocks.
//
// Because datasets are analytic fields, a coarser level is represented by a
// dataset descriptor with the reduced resolution: block extraction then
// samples the field at the coarser voxel centers (point-sampled
// downsampling).
type Pyramid struct {
	levels []*volume.Dataset
	grids  []*grid.Grid
}

// NewPyramid builds a pyramid with at most maxLevels levels (≥ 1). Level
// construction stops early when an axis would drop below one block.
func NewPyramid(ds *volume.Dataset, block grid.Dims, maxLevels int) (*Pyramid, error) {
	if ds == nil {
		return nil, fmt.Errorf("lod: nil dataset")
	}
	if maxLevels < 1 {
		return nil, fmt.Errorf("lod: maxLevels %d", maxLevels)
	}
	p := &Pyramid{}
	res := ds.Res
	for l := 0; l < maxLevels; l++ {
		if res.X < block.X || res.Y < block.Y || res.Z < block.Z {
			break
		}
		lvl := *ds
		lvl.Res = res
		g, err := grid.New(res, block)
		if err != nil {
			break
		}
		p.levels = append(p.levels, &lvl)
		p.grids = append(p.grids, g)
		res = grid.Dims{X: half(res.X), Y: half(res.Y), Z: half(res.Z)}
	}
	if len(p.levels) == 0 {
		return nil, fmt.Errorf("lod: block %v larger than volume %v", block, ds.Res)
	}
	return p, nil
}

func half(n int) int {
	h := n / 2
	if h < 1 {
		h = 1
	}
	return h
}

// Grid returns the block grid of level l.
func (p *Pyramid) Grid(l int) *grid.Grid { return p.grids[l] }

// Ref names one block of one pyramid level.
type Ref struct {
	Level int
	Block grid.BlockID
}

// globalID maps a Ref to a dense unique id across the pyramid.
func (p *Pyramid) globalID(r Ref) grid.BlockID {
	off := 0
	for l := 0; l < r.Level; l++ {
		off += p.grids[l].NumBlocks()
	}
	return grid.BlockID(off + int(r.Block))
}

// numGlobalBlocks returns the total block count across all levels.
func (p *Pyramid) numGlobalBlocks() int {
	n := 0
	for _, g := range p.grids {
		n += g.NumBlocks()
	}
	return n
}

// LevelForDistance picks the level whose voxel footprint best matches a
// camera at distance d: the projected size of a level-l voxel scales as
// 2^l / d, so the level grows logarithmically with distance beyond the
// reference distance refDist (at which level 0 is exact).
func (p *Pyramid) LevelForDistance(d, refDist float64) int {
	if d <= refDist || refDist <= 0 {
		return 0
	}
	l := int(math.Floor(math.Log2(d / refDist)))
	if l >= len(p.levels) {
		l = len(p.levels) - 1
	}
	if l < 0 {
		l = 0
	}
	return l
}

// Select returns the blocks a conventional LOD renderer loads for the
// camera: the visible set of the single level chosen by camera distance.
func (p *Pyramid) Select(cam camera.Camera, refDist float64) []Ref {
	l := p.LevelForDistance(cam.Distance(), refDist)
	set := visibility.VisibleSet(p.grids[l], cam)
	out := make([]Ref, len(set))
	for i, id := range set {
		out[i] = Ref{Level: l, Block: id}
	}
	return out
}

// SelectionBytes returns the total storage footprint of a selection.
func (p *Pyramid) SelectionBytes(refs []Ref) int64 {
	var total int64
	for _, r := range refs {
		ds := p.levels[r.Level]
		total += p.grids[r.Level].Bytes(r.Block, ds.ValueSize, ds.Variables)
	}
	return total
}

// DownsampleError measures what coarse levels cost in analysis accuracy:
// the mean absolute difference between level-l samples and full-resolution
// samples of the given variable over the level's whole domain, estimated on
// an n³ probe lattice. Zero for level 0.
func (p *Pyramid) DownsampleError(l, variable, n int) float64 {
	if l == 0 {
		return 0
	}
	if n < 2 {
		n = 2
	}
	fine, coarse := p.levels[0], p.levels[l]
	var sum float64
	count := 0
	for iz := 0; iz < n; iz++ {
		z := (float64(iz) + 0.5) / float64(n)
		for iy := 0; iy < n; iy++ {
			y := (float64(iy) + 0.5) / float64(n)
			for ix := 0; ix < n; ix++ {
				x := (float64(ix) + 0.5) / float64(n)
				// Snap to each level's voxel centers to compare what a
				// renderer actually reads.
				fv := sampleAtVoxelCenter(fine, variable, x, y, z)
				cv := sampleAtVoxelCenter(coarse, variable, x, y, z)
				sum += math.Abs(fv - cv)
				count++
			}
		}
	}
	return sum / float64(count)
}

// sampleAtVoxelCenter evaluates the dataset at the center of the voxel
// containing the normalized coordinate.
func sampleAtVoxelCenter(ds *volume.Dataset, variable int, x, y, z float64) float64 {
	snap := func(c float64, n int) float64 {
		i := int(c * float64(n))
		if i >= n {
			i = n - 1
		}
		return (float64(i) + 0.5) / float64(n)
	}
	return ds.Field.Sample(variable,
		snap(x, ds.Res.X), snap(y, ds.Res.Y), snap(z, ds.Res.Z))
}
