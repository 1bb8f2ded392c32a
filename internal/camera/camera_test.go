package camera

import (
	"math"
	"testing"

	"vvd/internal/room"
)

func testCam() *Camera { return New(room.DefaultLab(), 90) }

func centerHuman() room.Human {
	return room.DefaultHuman(room.Vec3{X: 4, Y: 3})
}

func TestRenderDimensions(t *testing.T) {
	img := testCam().Render(centerHuman())
	if img.Rows != NativeRows || img.Cols != NativeCols {
		t.Fatalf("render %dx%d", img.Rows, img.Cols)
	}
}

func TestRenderDepthsWithinRange(t *testing.T) {
	cam := testCam()
	img := cam.Render(centerHuman())
	for i, p := range img.Pix {
		if p <= 0 || float64(p) > cam.MaxRange+1e-6 {
			t.Fatalf("pixel %d depth %v outside (0, %v]", i, p, cam.MaxRange)
		}
	}
}

func TestHumanVisibleInDepthImage(t *testing.T) {
	cam := testCam()
	with := cam.Render(centerHuman())
	without := cam.Render(room.DefaultHuman(room.Vec3{X: 4, Y: 3, Z: -100})) // far below floor: invisible
	changed := 0
	for i := range with.Pix {
		if math.Abs(float64(with.Pix[i]-without.Pix[i])) > 1e-6 {
			changed++
		}
	}
	if changed < 10 {
		t.Fatalf("human changed only %d pixels", changed)
	}
	// The human must appear closer than the background it occludes.
	for i := range with.Pix {
		if with.Pix[i] > without.Pix[i]+1e-4 {
			t.Fatalf("pixel %d deeper with human present", i)
		}
	}
}

func TestHumanPositionMovesSilhouette(t *testing.T) {
	cam := testCam()
	a := cam.Render(room.DefaultHuman(room.Vec3{X: 2.5, Y: 3}))
	b := cam.Render(room.DefaultHuman(room.Vec3{X: 5.5, Y: 3}))
	diff := 0
	for i := range a.Pix {
		if math.Abs(float64(a.Pix[i]-b.Pix[i])) > 1e-6 {
			diff++
		}
	}
	if diff < 20 {
		t.Fatalf("moving the human only changed %d pixels", diff)
	}
}

func TestCloserHumanLooksLarger(t *testing.T) {
	cam := testCam()
	bg := cam.Render(room.DefaultHuman(room.Vec3{X: 4, Y: 3, Z: -100}))
	count := func(h room.Human) int {
		img := cam.Render(h)
		n := 0
		for i := range img.Pix {
			if math.Abs(float64(img.Pix[i]-bg.Pix[i])) > 1e-6 {
				n++
			}
		}
		return n
	}
	near := count(room.DefaultHuman(room.Vec3{X: 4, Y: 1.5}))
	far := count(room.DefaultHuman(room.Vec3{X: 4, Y: 4.5}))
	if near <= far {
		t.Fatalf("near human %d px should exceed far human %d px", near, far)
	}
}

func TestRenderDeterministic(t *testing.T) {
	cam := testCam()
	a := cam.Render(centerHuman())
	b := cam.Render(centerHuman())
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] { //vvdlint:bitexact -- render parity is bitwise by contract
			t.Fatal("render not deterministic")
		}
	}
}

func TestRenderPreprocessedShape(t *testing.T) {
	img := testCam().RenderPreprocessed(centerHuman())
	if img.Rows != CropRows || img.Cols != CropCols {
		t.Fatalf("preprocessed %dx%d want %dx%d", img.Rows, img.Cols, CropRows, CropCols)
	}
}

func TestCropMatchesNativeRegion(t *testing.T) {
	cam := testCam()
	native := cam.Render(centerHuman())
	crop, err := native.Crop(CropTop, CropLeft, CropRows, CropCols)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < CropRows; r++ {
		for c := 0; c < CropCols; c++ {
			if crop.At(r, c) != native.At(r+CropTop, c+CropLeft) { //vvdlint:bitexact -- render parity is bitwise by contract
				t.Fatalf("crop (%d,%d) mismatch", r, c)
			}
		}
	}
}

func TestCropOutOfBounds(t *testing.T) {
	img := NewDepth(10, 10)
	if _, err := img.Crop(5, 5, 10, 10); err == nil {
		t.Fatal("out-of-bounds crop accepted")
	}
	if _, err := img.Crop(-1, 0, 5, 5); err == nil {
		t.Fatal("negative crop accepted")
	}
}

func TestNormalizedRange(t *testing.T) {
	img := NewDepth(1, 5)
	img.Pix = []float32{0, 6, 12, 24, -3}
	n := img.NormalizedF32(12)
	want := []float32{0, 0.5, 1, 1, 0}
	for i := range want {
		if math.Abs(float64(n[i]-want[i])) > 1e-9 {
			t.Fatalf("n[%d] = %v want %v", i, n[i], want[i])
		}
	}
}

func TestDepthAtSet(t *testing.T) {
	img := NewDepth(3, 4)
	img.Set(2, 3, 7.5)
	if img.At(2, 3) != 7.5 {
		t.Fatal("At/Set round trip failed")
	}
}

func TestHumanDepthApproximatesDistance(t *testing.T) {
	// The nearest human pixel should be ≈ camera-to-cylinder distance.
	cam := testCam()
	h := centerHuman()
	bg := cam.Render(room.DefaultHuman(room.Vec3{X: 4, Y: 3, Z: -100}))
	img := cam.Render(h)
	nearest := math.Inf(1)
	for i := range img.Pix {
		if math.Abs(float64(img.Pix[i]-bg.Pix[i])) > 1e-6 {
			if d := float64(img.Pix[i]); d < nearest {
				nearest = d
			}
		}
	}
	axisDist := math.Hypot(h.Pos.X-cam.Pos.X, h.Pos.Y-cam.Pos.Y)
	if nearest > axisDist || nearest < axisDist-h.Radius-2 {
		t.Fatalf("nearest human depth %v vs axis distance %v", nearest, axisDist)
	}
}

func TestRayBoxEnterMisses(t *testing.T) {
	// Ray pointing away from the box.
	if _, ok := rayBoxEnter(room.Vec3{X: -1}, room.Vec3{X: -1}, room.Vec3{}, room.Vec3{X: 1, Y: 1, Z: 1}); ok {
		t.Fatal("ray away from box reported hit")
	}
}

func TestRayBoxEnterHits(t *testing.T) {
	tHit, ok := rayBoxEnter(room.Vec3{X: -2, Y: 0.5, Z: 0.5}, room.Vec3{X: 1}, room.Vec3{}, room.Vec3{X: 1, Y: 1, Z: 1})
	if !ok || math.Abs(tHit-2) > 1e-9 {
		t.Fatalf("hit = %v,%v want 2,true", tHit, ok)
	}
}

func TestRayCylinderSideAndCap(t *testing.T) {
	h := room.Human{Pos: room.Vec3{X: 0, Y: 0}, Radius: 0.5, Height: 2}
	// Horizontal ray at mid height hits the side at x = −0.5.
	tHit, ok := rayCylinder(room.Vec3{X: -3, Y: 0, Z: 1}, room.Vec3{X: 1}, h)
	if !ok || math.Abs(tHit-2.5) > 1e-9 {
		t.Fatalf("side hit = %v,%v want 2.5,true", tHit, ok)
	}
	// Downward ray above the cap hits at z = 2.
	tHit, ok = rayCylinder(room.Vec3{X: 0, Y: 0, Z: 5}, room.Vec3{Z: -1}, h)
	if !ok || math.Abs(tHit-3) > 1e-9 {
		t.Fatalf("cap hit = %v,%v want 3,true", tHit, ok)
	}
	// Ray passing beside the cylinder misses.
	if _, ok := rayCylinder(room.Vec3{X: -3, Y: 2, Z: 1}, room.Vec3{X: 1}, h); ok {
		t.Fatal("miss reported as hit")
	}
}

func TestSynchronizerFrameIndex(t *testing.T) {
	s := NewSynchronizer()
	if s.FrameIndex(0) != 0 {
		t.Fatal("t=0 must map to frame 0")
	}
	// 100 ms packets: packet k at t = 0.1k → frame 3k.
	if got := s.FrameIndex(0.1); got != 3 {
		t.Fatalf("frame(0.1) = %d want 3", got)
	}
	if got := s.FrameIndex(0.5); got != 15 {
		t.Fatalf("frame(0.5) = %d want 15", got)
	}
	if s.FrameIndex(-1) != 0 {
		t.Fatal("negative time must clamp to 0")
	}
}

func TestSynchronizerRoundTrip(t *testing.T) {
	s := NewSynchronizer()
	for i := 0; i < 100; i++ {
		tm := float64(i)/s.FrameRate + 0.001
		if got := s.FrameIndex(tm); got != i {
			t.Fatalf("round trip frame %d → %d", i, got)
		}
	}
}
