// Package vizcache is an application-aware data replacement and prefetching
// library for interactive large-scale scientific visualization, reproducing
// Yu, Yu, Jiang & Wang, "An Application-Aware Data Replacement Policy for
// Interactive Large-Scale Scientific Visualization" (IPPS 2017).
//
// The library partitions volumetric datasets into blocks, predicts the
// blocks a camera will need from a visibility table (T_visible, §IV-B, each
// key's set computed when asked for), ranks block importance by Shannon
// entropy (T_important, §IV-C), and drives a multi-level memory hierarchy
// with Algorithm 1: demand fetching with LRU-among-stale replacement plus
// entropy-filtered prefetching overlapped with rendering.
//
// Quick start:
//
//	ds := vizcache.Ball().Scale(0.125)
//	v, err := vizcache.NewViewer(ds, vizcache.ViewerOptions{Blocks: 1024})
//	if err != nil { ... }
//	for _, pos := range vizcache.SphericalPath(3, 5, 100).Steps {
//	    stats := v.Goto(pos)
//	    fmt.Println(stats.IOTime, stats.VisibleBlocks)
//	}
//	fmt.Println(v.Metrics().MissRate)
//
// The packages under internal/ hold the implementation: one package per
// subsystem (see DESIGN.md for the full inventory). This package is the
// stable public surface.
package vizcache

import (
	"repro/internal/analytics"
	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/grid"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vec"
	"repro/internal/visibility"
	"repro/internal/volume"
)

// V3 is a 3-component vector: camera positions and world coordinates.
type V3 = vec.V3

// Vec constructs a V3.
func Vec(x, y, z float64) V3 { return vec.New(x, y, z) }

// Dataset describes a volumetric dataset (resolution, variables, field).
type Dataset = volume.Dataset

// Grid is a uniform block partition of a dataset.
type Grid = grid.Grid

// BlockID identifies one block of a Grid.
type BlockID = grid.BlockID

// Dims is a voxel extent.
type Dims = grid.Dims

// Path is a camera trajectory.
type Path = camera.Path

// Camera is a view point looking at the volume center.
type Camera = camera.Camera

// Metrics summarizes a simulation run.
type Metrics = sim.Metrics

// SimConfig describes a simulation run (dataset, grid, path, cache ratio).
type SimConfig = sim.Config

// AppAwareConfig carries the app-aware policy's inputs for RunAppAware.
type AppAwareConfig = sim.AppAwareConfig

// Policy is a replacement policy over blocks.
type Policy = cache.Policy

// TransferFunc maps normalized values to RGBA for rendering.
type TransferFunc = render.TransferFunc

// Table I datasets (synthetic stand-ins at the paper's resolutions; see
// DESIGN.md §2 for the substitution rationale).
var (
	// Ball returns the synthetic 3d_ball dataset (1024³).
	Ball = volume.Ball
	// LiftedRR returns the combustion reaction-rate dataset.
	LiftedRR = volume.LiftedRR
	// Climate returns the 244-variable climate dataset.
	Climate = volume.Climate
)

// Replacement-policy constructors for baselines and ablations.
var (
	// NewFIFO returns a first-in-first-out policy.
	NewFIFO = cache.NewFIFO
	// NewLRU returns a least-recently-used policy.
	NewLRU = cache.NewLRU
	// NewARC returns an adaptive replacement cache (Megiddo & Modha), sized
	// by the level it is installed in.
	NewARC = cache.NewARC
	// NewBelady returns the offline-optimal policy for a known trace.
	NewBelady = cache.NewBelady
)

// Camera-path generators (§V-A's two path families plus extras).
var (
	// SphericalPath orbits with a fixed per-step degree interval.
	SphericalPath = camera.Spherical
	// RandomPath wanders with bounded random per-step direction changes.
	RandomPath = camera.Random
	// ZoomPath flies from far to near along a direction.
	ZoomPath = camera.Zoom
)

// Simulation entry points.
var (
	// RunBaseline simulates a path under a conventional policy.
	RunBaseline = sim.RunBaseline
	// RunAppAware simulates a path under the paper's Algorithm 1.
	RunAppAware = sim.RunAppAware
)

// VisibleBlocks returns the exact set of blocks visible from a camera.
func VisibleBlocks(g *Grid, cam Camera) []BlockID {
	return visibility.VisibleSet(g, cam)
}

// Trace is a recorded block-request stream (one group per view point).
type Trace = trace.Trace

// ReplayTrace runs a recorded trace against a policy with the given block
// capacity — the harness for comparing online policies with Belady's
// offline optimum on identical request streams.
var ReplayTrace = trace.Replay

// Data-dependent analysis operations (the paper's Fig. 3 histograms and
// correlation matrices over the regions seen from a view).
var (
	// RegionHistogram builds a histogram of one variable over blocks.
	RegionHistogram = analytics.RegionHistogram
	// CorrelationMatrix computes pairwise Pearson correlations of
	// variables over blocks.
	CorrelationMatrix = analytics.CorrelationMatrix
	// RegionStats summarizes one variable over blocks.
	RegionStats = analytics.RegionStats
)

// Transfer functions for the renderer.
var (
	// Grayscale maps value to brightness.
	Grayscale = render.Grayscale
	// Hot is a black-red-yellow-white combustion map.
	Hot = render.Hot
	// CoolWarm is a diverging blue-white-red map.
	CoolWarm = render.CoolWarm
	// Isosurface highlights a value band (iso, width) over a base map.
	Isosurface = render.Isosurface
)
