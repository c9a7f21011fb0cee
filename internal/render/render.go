// Package render provides the visualization substrate: a software
// ray-casting volume renderer with transfer functions (used by the examples
// to produce actual images) and a calibrated render-cost model (used by the
// simulator as the time budget that prefetching overlaps, §IV-D).
//
// The paper's renderer is GPU-accelerated; the substitution (DESIGN.md §2)
// preserves what the policy needs: images for inspection and a per-frame
// rendering duration comparable to block-transfer costs.
package render

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/vec"
	"repro/internal/volume"
)

// CostModel estimates per-frame rendering time for the simulator: a fixed
// per-frame setup cost plus a per-visible-block ray-marching cost.
type CostModel struct {
	Base     time.Duration // per-frame overhead
	PerBlock time.Duration // ray-marching cost per visible block
}

// DefaultCostModel mirrors an interactive GPU renderer working through an
// out-of-core block set: ~10 ms frame setup plus ~0.4 ms per visible block
// (≈90 ms for a 200-block frame).
func DefaultCostModel() CostModel {
	return CostModel{Base: 10 * time.Millisecond, PerBlock: 400 * time.Microsecond}
}

// FrameTime returns the modeled rendering time for a frame with the given
// visible-block count.
func (m CostModel) FrameTime(visibleBlocks int) time.Duration {
	if visibleBlocks < 0 {
		visibleBlocks = 0
	}
	return m.Base + time.Duration(visibleBlocks)*m.PerBlock
}

// TransferFunc maps a normalized scalar value (clamped to [0, 1]) to
// premultiplied-alpha-free RGBA components in [0, 1]. It is the paper's
// data-dependent "transfer function" control.
type TransferFunc func(v float64) (r, g, b, a float64)

// Grayscale maps value to brightness with linear opacity.
func Grayscale(v float64) (r, g, b, a float64) {
	v = clamp01(v)
	return v, v, v, 0.4 * v
}

// Hot is a combustion-style map: black→red→yellow→white with opacity
// emphasizing high values (flame sheets).
func Hot(v float64) (r, g, b, a float64) {
	v = clamp01(v)
	r = clamp01(3 * v)
	g = clamp01(3*v - 1)
	b = clamp01(3*v - 2)
	return r, g, b, 0.6 * v * v
}

// CoolWarm is a diverging blue→white→red map with opacity peaking at the
// extremes, highlighting deviations from the midpoint.
func CoolWarm(v float64) (r, g, b, a float64) {
	v = clamp01(v)
	t := 2*v - 1 // [-1, 1]
	switch {
	case t < 0:
		r, g, b = 1+t, 1+t, 1
	default:
		r, g, b = 1, 1-t, 1-t
	}
	return r, g, b, 0.5 * t * t
}

// autoTransfer derives an opacity-equalized transfer function from a value
// histogram: opacity is weighted by inverse bin frequency, so rare values
// (thin features like flame sheets, fronts, iso-bands) stay visible against
// dominant ambient values. Colors come from base; counts index the
// normalized value range [0, 1].
func autoTransfer(counts []int64, base TransferFunc) TransferFunc {
	n := len(counts)
	if n == 0 {
		return base
	}
	var total, max int64
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 || max == 0 {
		return base
	}
	weights := make([]float64, n)
	for i, c := range counts {
		if c == 0 {
			weights[i] = 0 // value never occurs: render nothing there
			continue
		}
		// Rarity weight in (0, 1]: the rarest occurring bin gets 1.
		weights[i] = 1 - float64(c-1)/float64(max)
		if weights[i] < 0.05 {
			weights[i] = 0.05 // dominant values stay faintly visible
		}
	}
	return func(v float64) (r, g, b, a float64) {
		r, g, b, a = base(v)
		i := int(clamp01(v) * float64(n))
		if i >= n {
			i = n - 1
		}
		return r, g, b, a * weights[i]
	}
}

// Isosurface highlights a narrow band around the iso value with the given
// width: the query-style rendering of the paper's Fig. 1(d)/(e).
func Isosurface(iso, width float64, base TransferFunc) TransferFunc {
	return func(v float64) (r, g, b, a float64) {
		r, g, b, _ = base(v)
		d := math.Abs(v-iso) / width
		if d >= 1 {
			return r, g, b, 0
		}
		return r, g, b, 0.9 * (1 - d)
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Renderer ray-casts one variable of a dataset through its block grid.
type Renderer struct {
	DS       *volume.Dataset
	G        *grid.Grid
	Variable int
	TF       TransferFunc
	// Steps is the number of samples along each ray (default 128).
	Steps int
	// VMin, VMax normalize raw field values before the transfer function;
	// VMax <= VMin activates the default [0, 1] range.
	VMin, VMax float64
	// Shaded enables Lambertian shading from central-difference gradients
	// — the surface cue that makes iso-surfaces readable (Levoy [8]).
	Shaded bool
	// LightDir is the shading light direction (default: from the camera).
	LightDir vec.V3
}

// Frame is a rendered image plus the statistics the simulator needs.
type Frame struct {
	Img *image.RGBA
	// SampledBlocks is the set of blocks actually touched by ray marching —
	// an independent cross-check of the visibility predicate.
	SampledBlocks map[grid.BlockID]struct{}
}

// Render casts the camera's view frustum through the volume and composites
// front-to-back. Rays outside the data composite to black. width and height
// are in pixels; the camera always looks at the volume center with the full
// view angle spanning the image diagonal.
func (rd *Renderer) Render(pos vec.V3, viewAngle float64, width, height int) *Frame {
	if width < 1 || height < 1 {
		panic(fmt.Sprintf("render: bad image size %dx%d", width, height))
	}
	steps := rd.Steps
	if steps <= 0 {
		steps = 128
	}
	img := image.NewRGBA(image.Rect(0, 0, width, height))
	frame := &Frame{Img: img, SampledBlocks: make(map[grid.BlockID]struct{})}

	forward := pos.Neg().Unit()
	right, up := vec.Orthonormal(forward)
	// Half extents of the image plane at unit distance.
	diag := math.Tan(viewAngle / 2)
	aspect := float64(width) / float64(height)
	halfH := diag / math.Sqrt(1+aspect*aspect)
	halfW := halfH * aspect

	// March from just outside the volume to its far side.
	rad := rd.G.EnclosingRadius()
	tNear := pos.Norm() - rad
	if tNear < 0 {
		tNear = 0
	}
	tFar := pos.Norm() + rad
	dt := (tFar - tNear) / float64(steps)

	var mu sync.Mutex
	var wg sync.WaitGroup
	rows := make(chan int)
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make(map[grid.BlockID]struct{})
			for y := range rows {
				for x := 0; x < width; x++ {
					px := (2*(float64(x)+0.5)/float64(width) - 1) * halfW
					py := (1 - 2*(float64(y)+0.5)/float64(height)) * halfH
					dir := forward.Add(right.Scale(px)).Add(up.Scale(py)).Unit()
					img.SetRGBA(x, y, rd.castRay(pos, dir, tNear, dt, steps, local))
				}
			}
			mu.Lock()
			for id := range local {
				frame.SampledBlocks[id] = struct{}{}
			}
			mu.Unlock()
		}()
	}
	for y := 0; y < height; y++ {
		rows <- y
	}
	close(rows)
	wg.Wait()
	return frame
}

// castRay composites one ray front-to-back.
func (rd *Renderer) castRay(pos, dir vec.V3, tNear, dt float64, steps int, touched map[grid.BlockID]struct{}) color.RGBA {
	var cr, cg, cb, ca float64
	vmin, vmax := rd.VMin, rd.VMax
	if vmax <= vmin {
		vmin, vmax = 0, 1
	}
	h := rd.G.HalfExtent()
	for s := 0; s < steps && ca < 0.99; s++ {
		t := tNear + (float64(s)+0.5)*dt
		p := pos.Add(dir.Scale(t))
		if p.X < -h.X || p.X > h.X || p.Y < -h.Y || p.Y > h.Y || p.Z < -h.Z || p.Z > h.Z {
			continue
		}
		rd.recordBlock(p, touched)
		raw := rd.DS.SampleWorld(rd.G, rd.Variable, p)
		v := (raw - vmin) / (vmax - vmin)
		r, g, b, a := rd.TF(v)
		if rd.Shaded && a > 0 {
			shade := rd.lambert(p, dir)
			r *= shade
			g *= shade
			b *= shade
		}
		a *= dt * 8 // opacity scales with step length (normalized edge 2)
		if a > 1 {
			a = 1
		}
		w := a * (1 - ca)
		cr += r * w
		cg += g * w
		cb += b * w
		ca += w
	}
	return color.RGBA{
		R: uint8(clamp01(cr) * 255),
		G: uint8(clamp01(cg) * 255),
		B: uint8(clamp01(cb) * 255),
		A: 255,
	}
}

// lambert returns the diffuse shading factor at p: ambient 0.35 plus 0.65
// times the cosine between the value gradient (central differences over
// half a voxel) and the light direction. Zero-gradient regions shade fully
// lit so homogeneous media are not darkened.
func (rd *Renderer) lambert(p, viewDir vec.V3) float64 {
	h := 1.0 / float64(rd.G.Res().X) // ~half a voxel in world units
	sample := func(q vec.V3) float64 { return rd.DS.SampleWorld(rd.G, rd.Variable, q) }
	grad := vec.New(
		sample(p.Add(vec.New(h, 0, 0)))-sample(p.Sub(vec.New(h, 0, 0))),
		sample(p.Add(vec.New(0, h, 0)))-sample(p.Sub(vec.New(0, h, 0))),
		sample(p.Add(vec.New(0, 0, h)))-sample(p.Sub(vec.New(0, 0, h))),
	)
	if grad == (vec.V3{}) {
		return 1
	}
	light := rd.LightDir
	if light == (vec.V3{}) {
		light = viewDir.Neg() // headlight
	}
	cos := grad.Unit().Dot(light.Unit())
	if cos < 0 {
		cos = -cos // two-sided: iso-surfaces have no preferred orientation
	}
	return 0.35 + 0.65*cos
}

func (rd *Renderer) recordBlock(p vec.V3, touched map[grid.BlockID]struct{}) {
	x, y, z := rd.G.WorldToVoxel(p)
	res := rd.G.Res()
	if x < 0 || y < 0 || z < 0 || x >= float64(res.X) || y >= float64(res.Y) || z >= float64(res.Z) {
		return
	}
	bs := rd.G.BlockSize()
	bx := int(x) / bs.X
	by := int(y) / bs.Y
	bz := int(z) / bs.Z
	touched[rd.G.ID(bx, by, bz)] = struct{}{}
}

// WritePNG encodes the frame's image as PNG.
func (f *Frame) WritePNG(w io.Writer) error { return png.Encode(w, f.Img) }

// luminance returns the mean luminance of the frame in [0, 255]; tests use
// it to check that a view of the data is not blank.
func (f *Frame) luminance() float64 {
	b := f.Img.Bounds()
	var sum float64
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			c := f.Img.RGBAAt(x, y)
			sum += 0.299*float64(c.R) + 0.587*float64(c.G) + 0.114*float64(c.B)
		}
	}
	n := float64(b.Dx() * b.Dy())
	if n == 0 {
		return 0
	}
	return sum / n
}
