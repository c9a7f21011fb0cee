package main

import (
	"testing"

	"repro/internal/camera"
	"repro/internal/faultio"
	"repro/internal/vec"
	"repro/internal/volume"
)

// TestRealIORaceFree runs the -realio path the way the binary does — four
// prefetch workers admitting into the cache while the frame loop reads the
// slices it was handed — on a cache small enough that nearly every
// admission evicts, so evicted buffers are recycled at every Frame. Under
// -race (make race) it guards the buffer-recycling race: a prefetch read
// decoding into a slice the render loop is still touching. The voxel-exact
// check of the same contract is ooc's TestFrameSlicesIntactUntilNextFrame.
func TestRealIORaceFree(t *testing.T) {
	ds := volume.Ball().Scale(0.125)
	g, err := ds.GridWithBlockCount(512)
	if err != nil {
		t.Fatal(err)
	}
	err = runRealIO(ds, g, camera.Orbit(3, 40), vec.Radians(10),
		"", "", "", 0, 0.05, faultio.InjectorConfig{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
}
