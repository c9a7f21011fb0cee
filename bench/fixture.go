package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/camera"
	"repro/internal/entropy"
	"repro/internal/grid"
	"repro/internal/radius"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/visibility"
	"repro/internal/volume"
)

// Every workload looks at its volume through the same window: the paper's
// 10° view angle from camera radius 3, a T_visible of 32×16×3 keys over
// r∈[2.5,3.5], and the top quarter of blocks by entropy as prefetch
// candidates.
const (
	viewAngleDeg  = 10.0
	cameraRadius  = 3.0
	sigmaQuantile = 0.75
)

// volumeSpec names one of the two fixture volumes. Both cut the ball into
// 8×8×8 = 512 blocks, so a camera position sees the same block ids in either;
// only the payload per block differs (128 KiB against 2 KiB).
type volumeSpec struct {
	name  string
	scale float64 // of the 1024³ catalog ball
	block int     // voxels per block edge
}

var volumes = map[string]volumeSpec{
	"vol128k": {name: "vol128k", scale: 0.25, block: 32},
	"vol2k":   {name: "vol2k", scale: 1.0 / 16, block: 8},
}

// fixture is one materialized volume: the block file on disk, the tables the
// runtime and the server predict from, and a handle kept only to look up the
// checksums that delivered blocks are verified against.
type fixture struct {
	spec  volumeSpec
	g     *grid.Grid
	file  string
	truth *store.BlockFile
	imp   *entropy.Table
	sigma float64
	vis   *visibility.Table
	theta float64
}

func buildFixture(spec volumeSpec, dir string) (*fixture, error) {
	ds := volume.Ball().Scale(spec.scale)
	g, err := ds.Grid(grid.Dims{X: spec.block, Y: spec.block, Z: spec.block})
	if err != nil {
		return nil, err
	}
	fx := &fixture{
		spec:  spec,
		g:     g,
		file:  filepath.Join(dir, spec.name+".bvol"),
		theta: vec.Radians(viewAngleDeg),
	}
	if err := store.Write(fx.file, ds, g, 0); err != nil {
		return nil, fmt.Errorf("fixture %s: %w", spec.name, err)
	}
	if fx.truth, err = store.Open(fx.file); err != nil {
		return nil, fmt.Errorf("fixture %s: %w", spec.name, err)
	}
	fx.imp = entropy.Build(ds, g, entropy.Options{})
	fx.sigma = fx.imp.ThresholdForQuantile(sigmaQuantile)
	fx.vis, err = visibility.NewTable(g, visibility.Options{
		NAzimuth: 32, NElevation: 16, NDistance: 3,
		RMin: 2.5, RMax: 3.5,
		ViewAngle: fx.theta,
		Radius:    radius.Fixed(0.3),
	})
	if err != nil {
		fx.truth.Close()
		return nil, fmt.Errorf("fixture %s: %w", spec.name, err)
	}
	return fx, nil
}

func (fx *fixture) close() error { return fx.truth.Close() }

// volumeBytes is the payload size of the whole volume.
func (fx *fixture) volumeBytes() int64 {
	return int64(fx.g.NumBlocks()) * fx.truth.BlockBytes(0)
}

// flythroughShape seeds the one random walk every fly-through is a copy of.
const flythroughShape = 1

// pathSteps generates a camera path by name. The orbit is the paper's
// deterministic spherical path, the same for every seed. The fly-through is
// the paper's random path, camera.Random with 3–9° turns over r∈[0.88,1.12]·radius:
// one walk, carried by one of the cube's 48 symmetries, which the seed picks.
// Every seed sends the camera to other places and other block ids, but the
// block grid maps onto itself, so how many blocks each view point sees and how
// often the walk doubles back on itself are the same. (When the walk itself
// varied with the seed, miss rate and bytes allocated per frame spread by a
// fifth from seed to seed; under an arbitrary rotation of one walk, which cuts
// the grid differently each time, still by 3–9%.) What still differs is what
// is not symmetric: T_visible's keys are on a latitude–longitude lattice, so
// prefetch predicts from other keys, and ids sort otherwise into file runs.
func pathSteps(kind string, radius float64, n int, seed uint64) ([]vec.V3, error) {
	switch kind {
	case "orbit":
		return camera.Spherical(radius, 5, n).Steps, nil
	case "flythrough":
		steps := camera.Random(0.88*radius, 1.12*radius, 3, 9, n, flythroughShape).Steps
		for i, p := range steps {
			steps[i] = cubeSymmetry(seed, p)
		}
		return steps, nil
	}
	return nil, fmt.Errorf("unknown path %q", kind)
}

// cubeSymmetry applies to p the k-th (mod 48) of the maps that carry a cube
// centred on the origin onto itself: one of the six orders of the axes with
// one of the eight choices of their signs.
func cubeSymmetry(k uint64, p vec.V3) vec.V3 {
	c := [3]float64{p.X, p.Y, p.Z}
	order := [6][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}[k%6]
	signs := k / 6 % 8
	var q [3]float64
	for i, axis := range order {
		q[i] = c[axis]
		if signs>>i&1 == 1 {
			q[i] = -q[i]
		}
	}
	return vec.New(q[0], q[1], q[2])
}
