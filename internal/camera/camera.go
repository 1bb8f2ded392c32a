// Package camera simulates the RGB-D surveillance camera of the paper's
// testbed (a wall-mounted Stereolabs ZED at 30 fps): a pinhole depth
// renderer over the room geometry (walls, static furniture boxes, one
// cylinder per mobile occupant), the Fig. 7 preprocessing pipeline (downsample by
// 10, crop to 50×90) and the LED-blink frame↔packet synchronization.
package camera

import (
	"fmt"
	"math"

	"vvd/internal/room"
)

// Native render resolution: the paper's 720×1080 frames are downsampled by
// 10 to 72×108 before cropping; rendering directly at the downsampled
// resolution is equivalent for a synthetic scene.
const (
	NativeRows = 72
	NativeCols = 108
	// Crop window (Fig. 7): keep the region where mobility can appear.
	CropRows = 50
	CropCols = 90
	CropTop  = 12 // rows removed from the top (ceiling area)
	CropLeft = 9  // columns removed from each side

	// FrameRate of the camera in frames per second.
	FrameRate = 30.0
	// FrameInterval between consecutive frames in seconds (≈33.3 ms).
	FrameInterval = 1.0 / FrameRate
)

// Depth is a single-channel depth image in metres.
type Depth struct {
	Rows, Cols int
	Pix        []float32 // row-major, Rows*Cols entries
}

// NewDepth allocates a zero depth image.
func NewDepth(rows, cols int) *Depth {
	return &Depth{Rows: rows, Cols: cols, Pix: make([]float32, rows*cols)}
}

// At returns the depth at (r, c).
func (d *Depth) At(r, c int) float32 { return d.Pix[r*d.Cols+c] }

// Set writes the depth at (r, c).
func (d *Depth) Set(r, c int, v float32) { d.Pix[r*d.Cols+c] = v }

// Crop returns the sub-image with the given top-left corner and size.
func (d *Depth) Crop(top, left, rows, cols int) (*Depth, error) {
	if top < 0 || left < 0 || top+rows > d.Rows || left+cols > d.Cols {
		return nil, fmt.Errorf("camera: crop %dx%d@(%d,%d) outside %dx%d image",
			rows, cols, top, left, d.Rows, d.Cols)
	}
	out := NewDepth(rows, cols)
	for r := 0; r < rows; r++ {
		copy(out.Pix[r*cols:(r+1)*cols], d.Pix[(top+r)*d.Cols+left:(top+r)*d.Cols+left+cols])
	}
	return out, nil
}

// NormalizedF32 returns the pixels scaled to [0, 1] by maxRange (values
// beyond clamp to 1) as the float32 network input the dataset stores.
func (d *Depth) NormalizedF32(maxRange float64) []float32 {
	out := make([]float32, len(d.Pix))
	for i, p := range d.Pix {
		v := float64(p) / maxRange
		if v > 1 {
			v = 1
		}
		if v < 0 {
			v = 0
		}
		out[i] = float32(v)
	}
	return out
}

// Box is an axis-aligned static obstacle (desk, PC tower, robot chassis).
type Box struct {
	Min, Max room.Vec3
}

// DefaultFurniture places boxes roughly matching the scatterer objects.
func DefaultFurniture(r *room.Room) []Box {
	return []Box{
		{Min: room.Vec3{X: 0.2, Y: 0.6, Z: 0}, Max: room.Vec3{X: 0.9, Y: 1.4, Z: 0.9}},
		{Min: room.Vec3{X: 0.2, Y: 4.6, Z: 0}, Max: room.Vec3{X: 0.9, Y: 5.4, Z: 0.9}},
		{Min: room.Vec3{X: 7.1, Y: 0.6, Z: 0}, Max: room.Vec3{X: 7.8, Y: 1.4, Z: 0.9}},
		{Min: room.Vec3{X: 3.6, Y: 5.3, Z: 0}, Max: room.Vec3{X: 4.4, Y: 5.9, Z: 0.6}},
	}
}

// Camera is a pinhole depth camera.
type Camera struct {
	Pos      room.Vec3
	forward  room.Vec3
	right    room.Vec3
	up       room.Vec3
	hfovDeg  float64
	tanHalfH float64
	tanHalfV float64

	Room *room.Room
	// Furniture and MaxRange are consumed by New when it precomputes the
	// static background depth below; mutating them after construction has
	// no effect on rendering.
	Furniture []Box
	// MaxRange saturates the depth sensor (ZED: ~20 m; the room is smaller).
	MaxRange float64

	// dirs holds the per-pixel ray directions and bg the static background
	// depth (room walls + furniture) along each of them, both precomputed
	// in New: only the human moves between frames, so a render is a copy
	// of the background plus one cylinder intersection per pixel.
	dirs []room.Vec3
	bg   []float64
}

// New creates a camera from the room's mounting pose with the given
// horizontal field of view in degrees.
func New(r *room.Room, hfovDeg float64) *Camera {
	fwd := r.CameraLook.Normalize()
	worldUp := room.Vec3{Z: 1}
	right := fwd.Cross(worldUp).Normalize()
	if right.Norm() == 0 {
		right = room.Vec3{X: 1}
	}
	up := right.Cross(fwd).Normalize()
	tanH := math.Tan(hfovDeg * math.Pi / 360)
	aspect := float64(NativeRows) / float64(NativeCols)
	c := &Camera{
		Pos:       r.Camera,
		forward:   fwd,
		right:     right,
		up:        up,
		hfovDeg:   hfovDeg,
		tanHalfH:  tanH,
		tanHalfV:  tanH * aspect,
		Room:      r,
		Furniture: DefaultFurniture(r),
		MaxRange:  12,
	}
	c.dirs = make([]room.Vec3, NativeRows*NativeCols)
	c.bg = make([]float64, NativeRows*NativeCols)
	for row := 0; row < NativeRows; row++ {
		// NDC y: +1 at top row.
		ny := 1 - 2*(float64(row)+0.5)/float64(NativeRows)
		for col := 0; col < NativeCols; col++ {
			nx := 2*(float64(col)+0.5)/float64(NativeCols) - 1
			dir := c.forward.
				Add(c.right.Scale(nx * c.tanHalfH)).
				Add(c.up.Scale(ny * c.tanHalfV)).
				Normalize()
			i := row*NativeCols + col
			c.dirs[i] = dir
			c.bg[i] = c.staticDepth(dir)
		}
	}
	return c
}

// Render produces the native-resolution depth image of the room with the
// human at the given position. The static scene depth is precomputed, so
// each render costs one cylinder intersection per pixel.
func (c *Camera) Render(h room.Human) *Depth {
	return c.RenderMulti([]room.Human{h})
}

// RenderMulti renders the room with any number of occupants: every body's
// cylinder competes for the nearest hit along each ray, so occupants
// occlude each other (and the furniture) correctly. One occupant is
// pixel-identical to Render; none renders the static background.
func (c *Camera) RenderMulti(hs []room.Human) *Depth {
	img := NewDepth(NativeRows, NativeCols)
	for i, dir := range c.dirs {
		best := c.bg[i]
		for _, h := range hs {
			if t, ok := rayCylinder(c.Pos, dir, h); ok && t < best {
				best = t
			}
		}
		img.Pix[i] = float32(best)
	}
	return img
}

// RenderPreprocessed renders with the Fig. 7 crop applied, casting only
// the rays inside the crop window (pixel-identical to Render followed by
// Crop, without the native-resolution intermediate).
func (c *Camera) RenderPreprocessed(h room.Human) *Depth {
	return c.RenderPreprocessedMulti([]room.Human{h})
}

// RenderPreprocessedMulti is RenderMulti with the Fig. 7 crop applied
// (pixel-identical to RenderMulti followed by Crop).
func (c *Camera) RenderPreprocessedMulti(hs []room.Human) *Depth {
	out := NewDepth(CropRows, CropCols)
	for r := 0; r < CropRows; r++ {
		src := (CropTop+r)*NativeCols + CropLeft
		dst := out.Pix[r*CropCols : (r+1)*CropCols]
		for col := range dst {
			i := src + col
			best := c.bg[i]
			for _, h := range hs {
				if t, ok := rayCylinder(c.Pos, c.dirs[i], h); ok && t < best {
					best = t
				}
			}
			dst[col] = float32(best)
		}
	}
	return out
}

// staticDepth intersects dir with the human-independent scene: the room
// interior and the furniture boxes, clamped to MaxRange.
func (c *Camera) staticDepth(dir room.Vec3) float64 {
	best := c.MaxRange
	if t, ok := rayBoxExit(c.Pos, dir, room.Vec3{}, room.Vec3{X: c.Room.Width, Y: c.Room.Depth, Z: c.Room.Height}); ok && t < best {
		best = t
	}
	for _, b := range c.Furniture {
		if t, ok := rayBoxEnter(c.Pos, dir, b.Min, b.Max); ok && t < best {
			best = t
		}
	}
	return best
}

// rayBoxExit intersects a ray starting inside an AABB with its interior
// surface (the room walls) and returns the exit distance.
func rayBoxExit(o, d, min, max room.Vec3) (float64, bool) {
	tExit := math.Inf(1)
	axes := [3][3]float64{
		{o.X, d.X, 0}, {o.Y, d.Y, 1}, {o.Z, d.Z, 2},
	}
	mins := [3]float64{min.X, min.Y, min.Z}
	maxs := [3]float64{max.X, max.Y, max.Z}
	for i, a := range axes {
		oi, di := a[0], a[1]
		if math.Abs(di) < 1e-12 {
			continue
		}
		for _, plane := range [2]float64{mins[i], maxs[i]} {
			t := (plane - oi) / di
			if t > 1e-9 && t < tExit {
				tExit = t
			}
		}
	}
	if math.IsInf(tExit, 1) {
		return 0, false
	}
	return tExit, true
}

// rayBoxEnter intersects a ray starting outside an AABB (slab method) and
// returns the entry distance.
func rayBoxEnter(o, d, min, max room.Vec3) (float64, bool) {
	tmin, tmax := 0.0, math.Inf(1)
	oc := [3]float64{o.X, o.Y, o.Z}
	dc := [3]float64{d.X, d.Y, d.Z}
	lo := [3]float64{min.X, min.Y, min.Z}
	hi := [3]float64{max.X, max.Y, max.Z}
	for i := 0; i < 3; i++ {
		if math.Abs(dc[i]) < 1e-12 {
			if oc[i] < lo[i] || oc[i] > hi[i] {
				return 0, false
			}
			continue
		}
		t1 := (lo[i] - oc[i]) / dc[i]
		t2 := (hi[i] - oc[i]) / dc[i]
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		if t1 > tmin {
			tmin = t1
		}
		if t2 < tmax {
			tmax = t2
		}
		if tmin > tmax {
			return 0, false
		}
	}
	if tmin <= 1e-9 {
		return 0, false
	}
	return tmin, true
}

// rayCylinder intersects the ray with the human's finite vertical cylinder
// (side surface and top cap).
func rayCylinder(o, d room.Vec3, h room.Human) (float64, bool) {
	cx, cy := h.Pos.X, h.Pos.Y
	z0, z1 := h.Pos.Z, h.Pos.Z+h.Height
	r := h.Radius
	best := math.Inf(1)

	// Side surface: solve |(o+t·d − c)_xy|² = r².
	ox, oy := o.X-cx, o.Y-cy
	a := d.X*d.X + d.Y*d.Y
	if a > 1e-12 {
		b := 2 * (ox*d.X + oy*d.Y)
		cc := ox*ox + oy*oy - r*r
		disc := b*b - 4*a*cc
		if disc >= 0 {
			sq := math.Sqrt(disc)
			for _, t := range [2]float64{(-b - sq) / (2 * a), (-b + sq) / (2 * a)} {
				if t <= 1e-9 {
					continue
				}
				z := o.Z + t*d.Z
				if z >= z0 && z <= z1 && t < best {
					best = t
				}
			}
		}
	}
	// Top cap (the camera is mounted high, so the cap is visible).
	if math.Abs(d.Z) > 1e-12 {
		t := (z1 - o.Z) / d.Z
		if t > 1e-9 && t < best {
			x := o.X + t*d.X - cx
			y := o.Y + t*d.Y - cy
			if x*x+y*y <= r*r {
				best = t
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}
