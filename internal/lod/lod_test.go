package lod

import (
	"testing"

	"repro/internal/camera"
	"repro/internal/grid"
	"repro/internal/vec"
	"repro/internal/volume"
)

func testPyramid(t *testing.T) *Pyramid {
	t.Helper()
	ds := volume.Ball().Scale(0.125) // 128³
	p, err := NewPyramid(ds, grid.Dims{X: 16, Y: 16, Z: 16}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPyramidValidation(t *testing.T) {
	ds := volume.Ball().Scale(0.125)
	if _, err := NewPyramid(nil, grid.Dims{X: 8, Y: 8, Z: 8}, 3); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := NewPyramid(ds, grid.Dims{X: 8, Y: 8, Z: 8}, 0); err == nil {
		t.Error("zero levels accepted")
	}
	if _, err := NewPyramid(ds, grid.Dims{X: 256, Y: 256, Z: 256}, 3); err == nil {
		t.Error("oversized block accepted")
	}
}

func TestPyramidLevels(t *testing.T) {
	p := testPyramid(t)
	if len(p.levels) != 4 {
		t.Fatalf("levels = %d, want 4", len(p.levels))
	}
	// Resolutions halve: 128, 64, 32, 16.
	want := []int{128, 64, 32, 16}
	for l, w := range want {
		if got := p.levels[l].Res.X; got != w {
			t.Errorf("level %d res = %d, want %d", l, got, w)
		}
	}
	// Block counts shrink by 8× per level: 512, 64, 8, 1.
	wantBlocks := []int{512, 64, 8, 1}
	for l, w := range wantBlocks {
		if got := p.Grid(l).NumBlocks(); got != w {
			t.Errorf("level %d blocks = %d, want %d", l, got, w)
		}
	}
	// Bytes shrink by 8× per level.
	for l := 1; l < len(p.levels); l++ {
		if got, prev := p.levels[l].TotalBytes(), p.levels[l-1].TotalBytes(); got*8 != prev {
			t.Errorf("level %d bytes %d not 1/8 of %d", l, got, prev)
		}
	}
}

func TestPyramidStopsEarly(t *testing.T) {
	ds := volume.Ball().Scale(1.0 / 32) // 32³
	p, err := NewPyramid(ds, grid.Dims{X: 16, Y: 16, Z: 16}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 32 → 16 supports the block; 8 would not. So exactly 2 levels.
	if len(p.levels) != 2 {
		t.Errorf("levels = %d, want 2", len(p.levels))
	}
}

func TestGlobalIDsDense(t *testing.T) {
	p := testPyramid(t)
	seen := map[grid.BlockID]bool{}
	for l := 0; l < len(p.levels); l++ {
		for _, b := range p.Grid(l).All() {
			id := p.globalID(Ref{Level: l, Block: b})
			if seen[id] {
				t.Fatalf("duplicate global id %d", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != p.numGlobalBlocks() {
		t.Errorf("global ids = %d, want %d", len(seen), p.numGlobalBlocks())
	}
	// IDs are dense in [0, numGlobalBlocks).
	for i := 0; i < p.numGlobalBlocks(); i++ {
		if !seen[grid.BlockID(i)] {
			t.Fatalf("global id %d missing", i)
		}
	}
}

func TestLevelForDistance(t *testing.T) {
	p := testPyramid(t)
	cases := []struct {
		d, ref float64
		want   int
	}{
		{1.0, 2.0, 0}, // closer than reference: full resolution
		{2.0, 2.0, 0}, // at reference
		{4.1, 2.0, 1}, // one doubling
		{8.5, 2.0, 2}, // two doublings
		{100, 2.0, 3}, // clamped to coarsest
		{5, 0, 0},     // degenerate reference
	}
	for _, c := range cases {
		if got := p.LevelForDistance(c.d, c.ref); got != c.want {
			t.Errorf("LevelForDistance(%g, %g) = %d, want %d", c.d, c.ref, got, c.want)
		}
	}
}

func TestSelectLoadsFewerBytesWhenFar(t *testing.T) {
	p := testPyramid(t)
	theta := 0.35
	near := p.Select(camera.Camera{Pos: vec.New(0, 0, 2.5), ViewAngle: theta}, 2.5)
	far := p.Select(camera.Camera{Pos: vec.New(0, 0, 11), ViewAngle: theta}, 2.5)
	if len(near) == 0 || len(far) == 0 {
		t.Fatal("empty selections")
	}
	if near[0].Level != 0 {
		t.Errorf("near selection at level %d, want 0", near[0].Level)
	}
	if far[0].Level == 0 {
		t.Error("far selection still at level 0")
	}
	nb := p.SelectionBytes(near)
	fb := p.SelectionBytes(far)
	if fb >= nb {
		t.Errorf("far selection %d bytes >= near %d; LOD saves nothing", fb, nb)
	}
}

func TestDownsampleErrorGrowsWithLevel(t *testing.T) {
	p := testPyramid(t)
	if got := p.DownsampleError(0, 0, 8); got != 0 {
		t.Errorf("level 0 error = %g, want 0", got)
	}
	prev := 0.0
	for l := 1; l < len(p.levels); l++ {
		e := p.DownsampleError(l, 0, 8)
		if e <= 0 {
			t.Errorf("level %d error = %g, want > 0", l, e)
		}
		if e < prev {
			t.Errorf("error not non-decreasing at level %d: %g < %g", l, e, prev)
		}
		prev = e
	}
}
