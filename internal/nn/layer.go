// Package nn is a small, dependency-free neural network library sufficient
// to reproduce the paper's CNN (Fig. 8): 2D convolutions, ReLU, average and
// max pooling, dense layers, mean-squared-error loss and the Nadam
// optimizer with per-epoch learning-rate decay. Training supports
// data-parallel workers, and models serialize to a compact binary format.
//
// Tensors are flat []float64 in row-major [H][W][C] layout; layers carry
// their own forward caches, so one network instance must not be used from
// multiple goroutines concurrently (the trainer clones per worker).
//
// Parameters carry no optimizer state: a built, loaded or cloned network
// holds its weights only. Gradient buffers appear on the first Backward,
// the Nadam moments live in the optimizer, and Fit hands the network back
// weights-only.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// Shape is a [height, width, channels] tensor shape.
type Shape struct{ H, W, C int }

// Size returns the element count.
func (s Shape) Size() int { return s.H * s.W * s.C }

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.H, s.W, s.C) }

// Param is a learnable parameter tensor and, while it trains, its
// gradient. Workers share W but keep private G. G is nil until the first
// Backward through the parameter; the optimizer keeps its moments itself.
type Param struct {
	W []float64 // values (shared across clones)
	G []float64 // gradient accumulator (per clone; nil until trained)
}

func newParam(n int) *Param { return &Param{W: make([]float64, n)} }

// grad returns the gradient accumulator, allocating it on first use.
func (p *Param) grad() []float64 {
	if p.G == nil {
		p.G = make([]float64, len(p.W))
	}
	return p.G
}

// Layer is one differentiable stage of the network.
type Layer interface {
	// OutShape reports the output shape for a given input shape.
	OutShape(in Shape) (Shape, error)
	// Forward computes the layer output, caching whatever Backward needs.
	Forward(in []float64) []float64
	// Backward consumes ∂L/∂out and returns ∂L/∂in, accumulating parameter
	// gradients into Params() (allocating them on first use).
	Backward(gradOut []float64) []float64
	// Params returns learnable parameters (empty for stateless layers).
	Params() []*Param
	// clone returns a copy sharing parameter values (W slices) but with
	// private caches and gradients.
	clone() Layer
	// name identifies the layer type for serialization.
	name() string
}

// ---------- Conv2D ----------

// Conv2D is a valid-padding, stride-1 2D convolution with bias.
type Conv2D struct {
	KH, KW  int
	Filters int

	in      Shape
	out     Shape
	w       *Param // [KH][KW][Cin][Filters]
	b       *Param // [Filters]
	inCache []float64
}

// NewConv2D creates a convolution layer; weights are initialized when the
// network is built (shape depends on the input).
func NewConv2D(kh, kw, filters int) *Conv2D {
	if kh <= 0 || kw <= 0 || filters <= 0 {
		panic("nn: Conv2D needs positive kernel and filter counts")
	}
	return &Conv2D{KH: kh, KW: kw, Filters: filters}
}

// OutShape implements Layer; it also materializes the weights on first use.
func (c *Conv2D) OutShape(in Shape) (Shape, error) {
	if in.H < c.KH || in.W < c.KW {
		return Shape{}, fmt.Errorf("nn: conv kernel %dx%d larger than input %s", c.KH, c.KW, in)
	}
	c.in = in
	c.out = Shape{H: in.H - c.KH + 1, W: in.W - c.KW + 1, C: c.Filters}
	if c.w == nil {
		c.w = newParam(c.KH * c.KW * in.C * c.Filters)
		c.b = newParam(c.Filters)
	}
	return c.out, nil
}

func (c *Conv2D) initWeights(rng *rand.Rand) {
	// He initialization for ReLU networks.
	fanIn := float64(c.KH * c.KW * c.in.C)
	std := math.Sqrt(2 / fanIn)
	for i := range c.w.W {
		c.w.W[i] = rng.NormFloat64() * std
	}
}

func (c *Conv2D) Forward(in []float64) []float64 {
	c.inCache = in
	oh, ow, oc := c.out.H, c.out.W, c.out.C
	ic := c.in.C
	iw := c.in.W
	out := make([]float64, oh*ow*oc)
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			base := (y*ow + x) * oc
			for f := 0; f < oc; f++ {
				out[base+f] = c.b.W[f]
			}
			for ky := 0; ky < c.KH; ky++ {
				for kx := 0; kx < c.KW; kx++ {
					inBase := ((y+ky)*iw + x + kx) * ic
					wBase := (ky*c.KW + kx) * ic * oc
					for ci := 0; ci < ic; ci++ {
						iv := in[inBase+ci]
						if iv == 0 {
							continue
						}
						wRow := c.w.W[wBase+ci*oc : wBase+(ci+1)*oc]
						oRow := out[base : base+oc]
						for f, wv := range wRow {
							oRow[f] += iv * wv
						}
					}
				}
			}
		}
	}
	return out
}

func (c *Conv2D) Backward(gradOut []float64) []float64 {
	oh, ow, oc := c.out.H, c.out.W, c.out.C
	ic := c.in.C
	iw := c.in.W
	gradIn := make([]float64, c.in.Size())
	in := c.inCache
	wG, bG := c.w.grad(), c.b.grad()
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			base := (y*ow + x) * oc
			gRow := gradOut[base : base+oc]
			for f, gv := range gRow {
				bG[f] += gv
			}
			for ky := 0; ky < c.KH; ky++ {
				for kx := 0; kx < c.KW; kx++ {
					inBase := ((y+ky)*iw + x + kx) * ic
					wBase := (ky*c.KW + kx) * ic * oc
					for ci := 0; ci < ic; ci++ {
						iv := in[inBase+ci]
						wRow := c.w.W[wBase+ci*oc : wBase+(ci+1)*oc]
						gwRow := wG[wBase+ci*oc : wBase+(ci+1)*oc]
						var acc float64
						for f, gv := range gRow {
							gwRow[f] += iv * gv
							acc += wRow[f] * gv
						}
						gradIn[inBase+ci] += acc
					}
				}
			}
		}
	}
	return gradIn
}

func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

func (c *Conv2D) clone() Layer {
	cp := *c
	cp.inCache = nil
	// Shadow params share W; each clone grows its own G when it trains.
	cp.w = &Param{W: c.w.W}
	cp.b = &Param{W: c.b.W}
	return &cp
}

func (c *Conv2D) name() string { return "conv2d" }

// ---------- ReLU ----------

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

func (r *ReLU) OutShape(in Shape) (Shape, error) { return in, nil }

func (r *ReLU) Forward(in []float64) []float64 {
	out := make([]float64, len(in))
	if cap(r.mask) < len(in) {
		r.mask = make([]bool, len(in))
	}
	r.mask = r.mask[:len(in)]
	for i, v := range in {
		if v > 0 {
			out[i] = v
			r.mask[i] = true
		} else {
			r.mask[i] = false
		}
	}
	return out
}

func (r *ReLU) Backward(gradOut []float64) []float64 {
	gradIn := make([]float64, len(gradOut))
	for i, g := range gradOut {
		if r.mask[i] {
			gradIn[i] = g
		}
	}
	return gradIn
}

func (r *ReLU) Params() []*Param { return nil }
func (r *ReLU) clone() Layer     { return &ReLU{} }
func (r *ReLU) name() string     { return "relu" }

// ---------- Pooling ----------

// PoolKind selects average or max pooling.
type PoolKind int

// Pooling kinds.
const (
	AvgPool PoolKind = iota
	MaxPool
)

// Pool2D is a 2×2, stride-2 pooling layer (the paper uses 2×2 everywhere;
// average pooling performed slightly better than max in their ablation).
//
// Odd input dimensions are defined, not an error: the output is
// ⌊H/2⌋×⌊W/2⌋ and a trailing odd row or column contributes to no pooling
// window (valid-style truncation, matching Keras/TensorFlow defaults).
// The paper's architecture depends on this — its conv stack produces
// 11×21 and 9×19 planes on the 50×90 input.
type Pool2D struct {
	Kind PoolKind

	in, out Shape
	argmax  []int // for max pooling backward
}

// NewPool2D returns a 2×2/stride-2 pooling layer of the given kind.
func NewPool2D(kind PoolKind) *Pool2D { return &Pool2D{Kind: kind} }

func (p *Pool2D) OutShape(in Shape) (Shape, error) {
	if in.H < 2 || in.W < 2 {
		return Shape{}, fmt.Errorf("nn: pool input %s too small", in)
	}
	p.in = in
	p.out = Shape{H: in.H / 2, W: in.W / 2, C: in.C}
	return p.out, nil
}

func (p *Pool2D) Forward(in []float64) []float64 {
	oh, ow, c := p.out.H, p.out.W, p.out.C
	iw := p.in.W
	out := make([]float64, oh*ow*c)
	if p.Kind == MaxPool {
		if cap(p.argmax) < len(out) {
			p.argmax = make([]int, len(out))
		}
		p.argmax = p.argmax[:len(out)]
	}
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			for ch := 0; ch < c; ch++ {
				i00 := ((2*y)*iw + 2*x) * c
				i01 := i00 + c
				i10 := ((2*y+1)*iw + 2*x) * c
				i11 := i10 + c
				o := (y*ow+x)*c + ch
				v00, v01 := in[i00+ch], in[i01+ch]
				v10, v11 := in[i10+ch], in[i11+ch]
				if p.Kind == AvgPool {
					out[o] = (v00 + v01 + v10 + v11) / 4
					continue
				}
				best, idx := v00, i00+ch
				if v01 > best {
					best, idx = v01, i01+ch
				}
				if v10 > best {
					best, idx = v10, i10+ch
				}
				if v11 > best {
					best, idx = v11, i11+ch
				}
				out[o] = best
				p.argmax[o] = idx
			}
		}
	}
	return out
}

func (p *Pool2D) Backward(gradOut []float64) []float64 {
	gradIn := make([]float64, p.in.Size())
	oh, ow, c := p.out.H, p.out.W, p.out.C
	iw := p.in.W
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			for ch := 0; ch < c; ch++ {
				o := (y*ow+x)*c + ch
				g := gradOut[o]
				if p.Kind == MaxPool {
					gradIn[p.argmax[o]] += g
					continue
				}
				q := g / 4
				i00 := ((2*y)*iw + 2*x) * c
				i10 := ((2*y+1)*iw + 2*x) * c
				gradIn[i00+ch] += q
				gradIn[i00+c+ch] += q
				gradIn[i10+ch] += q
				gradIn[i10+c+ch] += q
			}
		}
	}
	return gradIn
}

func (p *Pool2D) Params() []*Param { return nil }
func (p *Pool2D) clone() Layer     { return &Pool2D{Kind: p.Kind} }
func (p *Pool2D) name() string {
	if p.Kind == MaxPool {
		return "maxpool"
	}
	return "avgpool"
}

// ---------- Flatten ----------

// Flatten reshapes [H,W,C] to [1,1,H·W·C]. Data layout is already flat, so
// it is an identity on values.
type Flatten struct{}

// NewFlatten returns a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

func (f *Flatten) OutShape(in Shape) (Shape, error) {
	return Shape{H: 1, W: 1, C: in.Size()}, nil
}
func (f *Flatten) Forward(in []float64) []float64       { return in }
func (f *Flatten) Backward(gradOut []float64) []float64 { return gradOut }
func (f *Flatten) Params() []*Param                     { return nil }
func (f *Flatten) clone() Layer                         { return &Flatten{} }
func (f *Flatten) name() string                         { return "flatten" }

// ---------- Dense ----------

// Dense is a fully-connected layer.
type Dense struct {
	Units int

	in      Shape
	w       *Param // [in][Units]
	b       *Param // [Units]
	inCache []float64
}

// NewDense returns a fully-connected layer with the given output width.
func NewDense(units int) *Dense {
	if units <= 0 {
		panic("nn: Dense needs positive units")
	}
	return &Dense{Units: units}
}

func (d *Dense) OutShape(in Shape) (Shape, error) {
	if in.H != 1 || in.W != 1 {
		return Shape{}, errors.New("nn: Dense requires flattened input (use Flatten)")
	}
	d.in = in
	if d.w == nil {
		d.w = newParam(in.C * d.Units)
		d.b = newParam(d.Units)
	}
	return Shape{H: 1, W: 1, C: d.Units}, nil
}

func (d *Dense) initWeights(rng *rand.Rand) {
	std := math.Sqrt(2 / float64(d.in.C))
	for i := range d.w.W {
		d.w.W[i] = rng.NormFloat64() * std
	}
}

func (d *Dense) Forward(in []float64) []float64 {
	d.inCache = in
	out := make([]float64, d.Units)
	copy(out, d.b.W)
	for i, iv := range in {
		if iv == 0 {
			continue
		}
		row := d.w.W[i*d.Units : (i+1)*d.Units]
		for j, wv := range row {
			out[j] += iv * wv
		}
	}
	return out
}

func (d *Dense) Backward(gradOut []float64) []float64 {
	gradIn := make([]float64, len(d.inCache))
	wG, bG := d.w.grad(), d.b.grad()
	for j, g := range gradOut {
		bG[j] += g
	}
	for i, iv := range d.inCache {
		row := d.w.W[i*d.Units : (i+1)*d.Units]
		gRow := wG[i*d.Units : (i+1)*d.Units]
		var acc float64
		for j, g := range gradOut {
			gRow[j] += iv * g
			acc += row[j] * g
		}
		gradIn[i] = acc
	}
	return gradIn
}

func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

func (d *Dense) clone() Layer {
	cp := *d
	cp.inCache = nil
	cp.w = &Param{W: d.w.W}
	cp.b = &Param{W: d.b.W}
	return &cp
}

func (d *Dense) name() string { return "dense" }
