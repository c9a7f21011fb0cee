package render

import (
	"bytes"
	"image/png"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/vec"
	"repro/internal/volume"
)

func TestCostModel(t *testing.T) {
	m := CostModel{Base: 10 * time.Millisecond, PerBlock: time.Millisecond}
	if got := m.FrameTime(5); got != 15*time.Millisecond {
		t.Errorf("FrameTime(5) = %v", got)
	}
	if got := m.FrameTime(0); got != 10*time.Millisecond {
		t.Errorf("FrameTime(0) = %v", got)
	}
	if got := m.FrameTime(-3); got != 10*time.Millisecond {
		t.Errorf("FrameTime(-3) = %v", got)
	}
	d := DefaultCostModel()
	if d.Base <= 0 || d.PerBlock <= 0 {
		t.Error("default cost model has zero terms")
	}
}

func TestTransferFuncRanges(t *testing.T) {
	tfs := map[string]TransferFunc{
		"grayscale": Grayscale,
		"hot":       Hot,
		"coolwarm":  CoolWarm,
		"iso":       Isosurface(0.5, 0.1, Grayscale),
	}
	for name, tf := range tfs {
		for _, v := range []float64{-1, 0, 0.25, 0.5, 0.75, 1, 2} {
			r, g, b, a := tf(v)
			for i, c := range []float64{r, g, b, a} {
				if c < 0 || c > 1 {
					t.Errorf("%s(%g)[%d] = %g out of [0,1]", name, v, i, c)
				}
			}
		}
	}
}

func TestHotRamp(t *testing.T) {
	// Low values are dark red-ish, high values white.
	r0, g0, b0, _ := Hot(0.2)
	if !(r0 > g0 && g0 >= b0) {
		t.Errorf("Hot(0.2) = %g,%g,%g not red-dominant", r0, g0, b0)
	}
	r1, g1, b1, _ := Hot(1.0)
	if r1 != 1 || g1 != 1 || b1 != 1 {
		t.Errorf("Hot(1) = %g,%g,%g, want white", r1, g1, b1)
	}
}

func TestAutoTransferEqualizesOpacity(t *testing.T) {
	// Bin 0 dominates (ambient), bin 3 is rare (feature): the derived
	// transfer function must give the rare value higher opacity than the
	// common one, relative to the base.
	counts := []int64{1000, 100, 10, 1}
	tf := autoTransfer(counts, Grayscale)
	_, _, _, aCommon := tf(0.05) // bin 0
	_, _, _, aRare := tf(0.9)    // bin 3
	_, _, _, baseCommon := Grayscale(0.05)
	_, _, _, baseRare := Grayscale(0.9)
	if aRare/baseRare <= aCommon/baseCommon {
		t.Errorf("rare weight %.3f not above common %.3f", aRare/baseRare, aCommon/baseCommon)
	}
	// Empty-bin values are fully transparent.
	tf2 := autoTransfer([]int64{5, 0}, Grayscale)
	if _, _, _, a := tf2(0.9); a != 0 {
		t.Errorf("empty-bin opacity = %g", a)
	}
	// Degenerate histograms fall back to the base function.
	if got := autoTransfer(nil, Grayscale); got == nil {
		t.Error("nil counts returned nil")
	}
	_, _, _, aZero := autoTransfer([]int64{0, 0}, Grayscale)(0.5)
	_, _, _, aBase := Grayscale(0.5)
	if aZero != aBase {
		t.Errorf("all-zero histogram altered base: %g vs %g", aZero, aBase)
	}
}

func TestIsosurfaceBand(t *testing.T) {
	tf := Isosurface(0.5, 0.1, Grayscale)
	_, _, _, aIn := tf(0.5)
	_, _, _, aEdge := tf(0.58)
	_, _, _, aOut := tf(0.7)
	if aIn <= aEdge || aEdge <= aOut {
		t.Errorf("iso opacities not peaked: %g, %g, %g", aIn, aEdge, aOut)
	}
	if aOut != 0 {
		t.Errorf("outside-band opacity = %g, want 0", aOut)
	}
}

func ballRenderer(t *testing.T) *Renderer {
	t.Helper()
	ds := volume.Ball().Scale(1.0 / 32) // 32³
	g, err := ds.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	return &Renderer{DS: ds, G: g, TF: Grayscale, Steps: 64}
}

func TestRenderBallVisible(t *testing.T) {
	rd := ballRenderer(t)
	f := rd.Render(vec.New(0, 0, 3), vec.Radians(30), 64, 64)
	if f.luminance() < 1 {
		t.Errorf("ball frame nearly black: luminance %g", f.luminance())
	}
	// The center pixel looks through the ball's core and must be brighter
	// than a far corner pixel.
	c := f.Img.RGBAAt(32, 32)
	e := f.Img.RGBAAt(1, 1)
	if c.R <= e.R {
		t.Errorf("center %d not brighter than edge %d", c.R, e.R)
	}
}

func TestRenderTouchesCentralBlocks(t *testing.T) {
	rd := ballRenderer(t)
	f := rd.Render(vec.New(0, 0, 3), vec.Radians(20), 32, 32)
	if len(f.SampledBlocks) == 0 {
		t.Fatal("no blocks sampled")
	}
	// The on-axis central block must be among the sampled ones.
	per := rd.G.BlocksPerAxis()
	center := rd.G.ID(per.X/2, per.Y/2, per.Z/2)
	if _, ok := f.SampledBlocks[center]; !ok {
		t.Error("central block never sampled by rays")
	}
	// A narrow frustum touches fewer blocks than the whole grid.
	if len(f.SampledBlocks) >= rd.G.NumBlocks() {
		t.Errorf("narrow frustum touched all %d blocks", rd.G.NumBlocks())
	}
}

func TestRenderDeterministic(t *testing.T) {
	rd := ballRenderer(t)
	a := rd.Render(vec.New(1, 1, 2.5), vec.Radians(25), 48, 32)
	b := rd.Render(vec.New(1, 1, 2.5), vec.Radians(25), 48, 32)
	if !bytes.Equal(a.Img.Pix, b.Img.Pix) {
		t.Error("parallel render nondeterministic")
	}
}

func TestRenderPanicsOnBadSize(t *testing.T) {
	rd := ballRenderer(t)
	defer func() {
		if recover() == nil {
			t.Error("bad size did not panic")
		}
	}()
	rd.Render(vec.New(0, 0, 3), vec.Radians(30), 0, 10)
}

func TestWritePNG(t *testing.T) {
	rd := ballRenderer(t)
	f := rd.Render(vec.New(0, 0, 3), vec.Radians(30), 16, 16)
	var buf bytes.Buffer
	if err := f.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 16 || img.Bounds().Dy() != 16 {
		t.Errorf("decoded bounds = %v", img.Bounds())
	}
}

func TestRenderOffAxisStillSeesData(t *testing.T) {
	rd := ballRenderer(t)
	f := rd.Render(vec.New(2, 1.5, -1), vec.Radians(30), 32, 32)
	if f.luminance() < 0.5 {
		t.Errorf("off-axis frame too dark: %g", f.luminance())
	}
}

func TestShadedRenderDiffersFromUnshaded(t *testing.T) {
	rd := ballRenderer(t)
	flat := rd.Render(vec.New(0, 0, 3), vec.Radians(25), 32, 32)
	rd.Shaded = true
	lit := rd.Render(vec.New(0, 0, 3), vec.Radians(25), 32, 32)
	if bytes.Equal(flat.Img.Pix, lit.Img.Pix) {
		t.Error("shading had no effect")
	}
	// Shading only darkens (factor ≤ 1): mean luminance must not rise.
	if lit.luminance() > flat.luminance()+1e-9 {
		t.Errorf("shaded luminance %g above unshaded %g", lit.luminance(), flat.luminance())
	}
	// Still renders actual content.
	if lit.luminance() < 1 {
		t.Errorf("shaded frame nearly black: %g", lit.luminance())
	}
}

func TestShadedCustomLightDeterministic(t *testing.T) {
	rd := ballRenderer(t)
	rd.Shaded = true
	rd.LightDir = vec.New(1, 1, 0)
	a := rd.Render(vec.New(0, 0, 3), vec.Radians(25), 16, 16)
	b := rd.Render(vec.New(0, 0, 3), vec.Radians(25), 16, 16)
	if !bytes.Equal(a.Img.Pix, b.Img.Pix) {
		t.Error("shaded render nondeterministic")
	}
}

func TestNarrowViewBrighterThanWide(t *testing.T) {
	// The camera always looks at the ball's core, so a narrow frustum fills
	// the image with the dense center while a wide frustum mixes in ambient
	// darkness around the ball.
	rd := ballRenderer(t)
	narrow := rd.Render(vec.New(0, 0, 3), vec.Radians(5), 16, 16)
	wide := rd.Render(vec.New(0, 0, 3), vec.Radians(60), 16, 16)
	if narrow.luminance() <= wide.luminance() {
		t.Errorf("narrow view %g not brighter than wide view %g",
			narrow.luminance(), wide.luminance())
	}
}
