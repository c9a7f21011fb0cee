// Package grid partitions a volumetric dataset into uniform-size blocks, the
// unit of I/O, caching, and replacement throughout the system. It also maps
// blocks into the normalized world coordinate system the paper uses for its
// geometric models: the volume is centered at the origin with its longest
// edge normalized to length 2 (coordinates in [-1, 1]).
package grid

import (
	"fmt"

	"repro/internal/vec"
)

// Dims holds an integer extent in voxels along each axis.
type Dims struct {
	X, Y, Z int
}

// Count returns the number of voxels in the extent.
func (d Dims) Count() int64 { return int64(d.X) * int64(d.Y) * int64(d.Z) }

// String implements fmt.Stringer in the familiar WxHxD form.
func (d Dims) String() string { return fmt.Sprintf("%dx%dx%d", d.X, d.Y, d.Z) }

// BlockID identifies one block of a Grid. IDs are dense in [0, NumBlocks).
type BlockID int32

// Grid is an immutable partition of a volume of Res voxels into blocks of at
// most Block voxels. Blocks on the high faces may be partial when Res is not
// an exact multiple of Block. The world-space embedding keeps the volume's
// aspect ratio and normalizes the longest edge to 2.
type Grid struct {
	res   Dims
	block Dims
	nb    Dims    // number of blocks per axis
	scale vec.V3  // world units per voxel, per axis
	half  vec.V3  // half extent of the volume in world units
	rad   float64 // radius of the enclosing sphere of the volume
}

// New returns a Grid partitioning res voxels into blocks of block voxels.
// It returns an error when either extent is non-positive or the block is
// larger than the volume along any axis.
func New(res, block Dims) (*Grid, error) {
	if res.X <= 0 || res.Y <= 0 || res.Z <= 0 {
		return nil, fmt.Errorf("grid: non-positive resolution %v", res)
	}
	if block.X <= 0 || block.Y <= 0 || block.Z <= 0 {
		return nil, fmt.Errorf("grid: non-positive block size %v", block)
	}
	if block.X > res.X || block.Y > res.Y || block.Z > res.Z {
		return nil, fmt.Errorf("grid: block %v exceeds resolution %v", block, res)
	}
	g := &Grid{
		res:   res,
		block: block,
		nb: Dims{
			X: ceilDiv(res.X, block.X),
			Y: ceilDiv(res.Y, block.Y),
			Z: ceilDiv(res.Z, block.Z),
		},
	}
	longest := res.X
	if res.Y > longest {
		longest = res.Y
	}
	if res.Z > longest {
		longest = res.Z
	}
	// World units per voxel: the longest edge spans [-1, 1].
	s := 2.0 / float64(longest)
	g.scale = vec.New(s, s, s)
	g.half = vec.New(
		float64(res.X)*s/2,
		float64(res.Y)*s/2,
		float64(res.Z)*s/2,
	)
	g.rad = g.half.Norm()
	return g, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Res returns the voxel resolution of the volume.
func (g *Grid) Res() Dims { return g.res }

// BlockSize returns the nominal block extent in voxels.
func (g *Grid) BlockSize() Dims { return g.block }

// BlocksPerAxis returns the number of blocks along each axis.
func (g *Grid) BlocksPerAxis() Dims { return g.nb }

// NumBlocks returns the total number of blocks.
func (g *Grid) NumBlocks() int { return g.nb.X * g.nb.Y * g.nb.Z }

// EnclosingRadius returns the radius of the smallest origin-centered sphere
// containing the whole volume in world coordinates. The exploration domain Ω
// must lie outside this sphere for cameras to see the volume from outside.
func (g *Grid) EnclosingRadius() float64 { return g.rad }

// HalfExtent returns the half extent of the volume in world units.
func (g *Grid) HalfExtent() vec.V3 { return g.half }

// ID converts block coordinates to a BlockID. It panics when the coordinates
// are out of range, as that is always a programming error.
func (g *Grid) ID(bx, by, bz int) BlockID {
	if bx < 0 || bx >= g.nb.X || by < 0 || by >= g.nb.Y || bz < 0 || bz >= g.nb.Z {
		panic(fmt.Sprintf("grid: block coordinate (%d,%d,%d) out of %v", bx, by, bz, g.nb))
	}
	return BlockID(bx + g.nb.X*(by+g.nb.Y*bz))
}

// Coords converts a BlockID back to block coordinates.
func (g *Grid) Coords(id BlockID) (bx, by, bz int) {
	i := int(id)
	if i < 0 || i >= g.NumBlocks() {
		panic(fmt.Sprintf("grid: block id %d out of [0,%d)", i, g.NumBlocks()))
	}
	bx = i % g.nb.X
	i /= g.nb.X
	by = i % g.nb.Y
	bz = i / g.nb.Y
	return bx, by, bz
}

// VoxelBounds returns the half-open voxel range [min, max) covered by the
// block. Blocks on the high faces are clipped to the volume resolution.
func (g *Grid) VoxelBounds(id BlockID) (min, max Dims) {
	bx, by, bz := g.Coords(id)
	min = Dims{bx * g.block.X, by * g.block.Y, bz * g.block.Z}
	max = Dims{
		minInt(min.X+g.block.X, g.res.X),
		minInt(min.Y+g.block.Y, g.res.Y),
		minInt(min.Z+g.block.Z, g.res.Z),
	}
	return min, max
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// VoxelCount returns the number of voxels actually contained in the block
// (smaller than BlockSize().Count() for clipped edge blocks).
func (g *Grid) VoxelCount(id BlockID) int64 {
	lo, hi := g.VoxelBounds(id)
	return int64(hi.X-lo.X) * int64(hi.Y-lo.Y) * int64(hi.Z-lo.Z)
}

// Bytes returns the storage footprint of the block for the given value size
// (bytes per voxel per variable) and variable count.
func (g *Grid) Bytes(id BlockID, valueSize, variables int) int64 {
	return g.VoxelCount(id) * int64(valueSize) * int64(variables)
}

// VoxelToWorld maps a (possibly fractional) voxel coordinate to world space.
func (g *Grid) VoxelToWorld(x, y, z float64) vec.V3 {
	return vec.New(
		x*g.scale.X-g.half.X,
		y*g.scale.Y-g.half.Y,
		z*g.scale.Z-g.half.Z,
	)
}

// WorldToVoxel maps a world coordinate to fractional voxel space.
func (g *Grid) WorldToVoxel(p vec.V3) (x, y, z float64) {
	return (p.X + g.half.X) / g.scale.X,
		(p.Y + g.half.Y) / g.scale.Y,
		(p.Z + g.half.Z) / g.scale.Z
}

// WorldBounds returns the axis-aligned world-space bounds of the block.
func (g *Grid) WorldBounds(id BlockID) (lo, hi vec.V3) {
	vlo, vhi := g.VoxelBounds(id)
	lo = g.VoxelToWorld(float64(vlo.X), float64(vlo.Y), float64(vlo.Z))
	hi = g.VoxelToWorld(float64(vhi.X), float64(vhi.Y), float64(vhi.Z))
	return lo, hi
}

// Center returns the world-space centroid of the block.
func (g *Grid) Center(id BlockID) vec.V3 {
	lo, hi := g.WorldBounds(id)
	return lo.Add(hi).Scale(0.5)
}

// Corners returns the eight world-space corner points b₀..b₇ of the block,
// the points tested against the view frustum by the paper's Eq. (1).
func (g *Grid) Corners(id BlockID) [8]vec.V3 {
	lo, hi := g.WorldBounds(id)
	return [8]vec.V3{
		{X: lo.X, Y: lo.Y, Z: lo.Z},
		{X: hi.X, Y: lo.Y, Z: lo.Z},
		{X: lo.X, Y: hi.Y, Z: lo.Z},
		{X: hi.X, Y: hi.Y, Z: lo.Z},
		{X: lo.X, Y: lo.Y, Z: hi.Z},
		{X: hi.X, Y: lo.Y, Z: hi.Z},
		{X: lo.X, Y: hi.Y, Z: hi.Z},
		{X: hi.X, Y: hi.Y, Z: hi.Z},
	}
}

// All returns every BlockID in ascending order. The slice is freshly
// allocated and owned by the caller.
func (g *Grid) All() []BlockID {
	ids := make([]BlockID, g.NumBlocks())
	for i := range ids {
		ids[i] = BlockID(i)
	}
	return ids
}

// StandardBlockSizes returns the block extents evaluated by the paper's
// §V-B1 block-size study (Fig. 9): 32×32×64 through 128×128×128.
func StandardBlockSizes() []Dims {
	return []Dims{
		{32, 32, 64},
		{32, 64, 64},
		{64, 64, 64},
		{64, 64, 128},
		{64, 128, 128},
		{128, 128, 128},
	}
}

// DivisionsFor returns a block size that partitions res into approximately n
// blocks, splitting axes in proportion to their extents. It is used by
// experiments specified as "the dataset is divided into N blocks". The
// actual block count may differ slightly when res does not factor evenly;
// callers that need the exact count should check NumBlocks on the result.
func DivisionsFor(res Dims, n int) Dims {
	if n <= 1 {
		return res
	}
	// Search over per-axis split counts whose product is closest to n while
	// keeping blocks as close to cubic (in voxel aspect) as possible.
	best := Dims{1, 1, 1}
	bestScore := -1.0
	for sx := 1; sx <= res.X && sx <= 256; sx++ {
		for sy := 1; sy <= res.Y && sy <= 256; sy++ {
			// Choose sz so the product is as close to n as possible.
			sz := n / (sx * sy)
			for _, szc := range []int{sz, sz + 1} {
				if szc < 1 || szc > res.Z {
					continue
				}
				total := sx * sy * szc
				score := score(res, sx, sy, szc, total, n)
				if bestScore < 0 || score < bestScore {
					bestScore = score
					best = Dims{sx, sy, szc}
				}
			}
		}
	}
	return Dims{
		X: ceilDiv(res.X, best.X),
		Y: ceilDiv(res.Y, best.Y),
		Z: ceilDiv(res.Z, best.Z),
	}
}

// score ranks a candidate split: primarily by the relative error versus the
// requested block count, secondarily by block anisotropy.
func score(res Dims, sx, sy, sz, total, n int) float64 {
	countErr := float64(abs(total-n)) / float64(n)
	bx := float64(res.X) / float64(sx)
	by := float64(res.Y) / float64(sy)
	bz := float64(res.Z) / float64(sz)
	maxB, minB := bx, bx
	for _, b := range []float64{by, bz} {
		if b > maxB {
			maxB = b
		}
		if b < minB {
			minB = b
		}
	}
	aniso := maxB/minB - 1
	return countErr*100 + aniso
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
