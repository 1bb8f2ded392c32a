package nn

import (
	"errors"
	"fmt"
	"sync"

	"vvd/internal/mathx/gemm"
)

// InferenceEngine is the compiled, inference-only form of a trained
// Network: float32 weights packed for the GEMM micro-kernels, convolution
// run as an implicit GEMM whose kernel reads each patch straight from the
// activation plane through offset tables built here (no im2col copy), and
// every per-call buffer drawn from a scratch pool, so steady-state
// forwards allocate only their result slices (or nothing at all via
// ForwardBatchF32Into).
//
// The engine never touches the Network's training caches: one engine is
// safe for any number of concurrent ForwardBatchF32/ForwardBatchF32Into
// calls, and the Network it was compiled from can keep training
// independently (recompile to pick up new weights).
//
// There is one compute path: implicit-GEMM convolution, packed-GEMM
// dense layers and fused ReLU+pooling, all in float32.
type InferenceEngine struct {
	in, out Shape
	ops     []inferOp

	maxAct int // largest activation plane per sample (floats)

	arenas sync.Pool
}

type opKind uint8

const (
	opConv opKind = iota
	opReLU
	opPool
	opDense
)

type inferOp struct {
	kind     opKind
	in, out  Shape
	kh, kw   int
	poolKind PoolKind
	preReLU  bool // pool only: clamp loads at zero (fused preceding ReLU)
	k        int  // GEMM depth: patch length (conv) or input width (dense)
	n        int  // GEMM width: filters (conv) or units (dense)
	pb       *gemm.PackedB
	bias     []float32
	// Conv only: the implicit-GEMM offset tables. Patch element p =
	// (ky·kw+kx)·ic+c of output position pos = y·ow+x sits at
	// rowOff[pos]+kOff[p] in the sample's activation plane.
	kOff   []int // (ky·iw+kx)·ic + c
	rowOff []int // (y·iw+x)·ic
}

type inferArena struct {
	actA, actB []float32
}

// NewInferenceEngine compiles a network for inference. Weights are
// converted to float32 and packed once; the network itself is unchanged.
func NewInferenceEngine(n *Network) (*InferenceEngine, error) {
	if n == nil || len(n.Layers) == 0 {
		return nil, errors.New("nn: cannot compile an empty network")
	}
	e := &InferenceEngine{in: n.In, out: n.Out}
	shape := n.In
	e.maxAct = shape.Size()
	for i, l := range n.Layers {
		out, err := l.OutShape(shape)
		if err != nil {
			return nil, fmt.Errorf("nn: compiling layer %d (%s): %w", i, l.name(), err)
		}
		switch t := l.(type) {
		case *Conv2D:
			k := t.KH * t.KW * shape.C
			op := inferOp{
				kind: opConv, in: shape, out: out, kh: t.KH, kw: t.KW,
				k: k, n: t.Filters,
				pb:   gemm.PackB(k, t.Filters, f32s(t.w.W)),
				bias: f32s(t.b.W),
			}
			if err := op.buildConvTables(); err != nil {
				return nil, fmt.Errorf("nn: compiling layer %d (%s): %w", i, l.name(), err)
			}
			e.ops = append(e.ops, op)
		case *Dense:
			e.ops = append(e.ops, inferOp{
				kind: opDense, in: shape, out: out,
				k: shape.C, n: t.Units,
				pb:   gemm.PackB(shape.C, t.Units, f32s(t.w.W)),
				bias: f32s(t.b.W),
			})
		case *ReLU:
			e.ops = append(e.ops, inferOp{kind: opReLU, in: shape, out: out})
		case *Pool2D:
			op := inferOp{kind: opPool, in: shape, out: out, poolKind: t.Kind}
			// ReLU immediately before a pool fuses into the pool's loads:
			// max(relu(v)) == relu(max(v)) and averaging clamped values is
			// exactly pooling the ReLU output — one pass instead of two.
			if last := len(e.ops) - 1; last >= 0 && e.ops[last].kind == opReLU {
				e.ops = e.ops[:last]
				op.preReLU = true
			}
			e.ops = append(e.ops, op)
		case *Flatten:
			// identity on the flat layout — dropped from the op stream
		default:
			return nil, fmt.Errorf("nn: layer %d (%s) has no inference kernel", i, l.name())
		}
		shape = out
		e.maxAct = max(e.maxAct, shape.Size())
	}
	e.arenas.New = func() any { return new(inferArena) }
	return e, nil
}

// buildConvTables fills kOff and rowOff and checks that every patch lies
// inside the input plane — the condition gemm.SgemmGather's unchecked
// SIMD loads rely on.
func (op *inferOp) buildConvTables() error {
	iw, ic := op.in.W, op.in.C
	op.kOff = make([]int, 0, op.k)
	for ky := 0; ky < op.kh; ky++ {
		for kx := 0; kx < op.kw; kx++ {
			for c := 0; c < ic; c++ {
				op.kOff = append(op.kOff, (ky*iw+kx)*ic+c)
			}
		}
	}
	op.rowOff = make([]int, 0, op.out.H*op.out.W)
	for y := 0; y < op.out.H; y++ {
		for x := 0; x < op.out.W; x++ {
			op.rowOff = append(op.rowOff, (y*iw+x)*ic)
		}
	}
	if len(op.kOff) == 0 || len(op.rowOff) == 0 {
		return errors.New("empty convolution")
	}
	// Both tables ascend, so their last entries are their maxima.
	if last := op.rowOff[len(op.rowOff)-1] + op.kOff[len(op.kOff)-1]; last >= op.in.Size() {
		return fmt.Errorf("patches reach offset %d of a %d-element input plane", last, op.in.Size())
	}
	return nil
}

func f32s(w []float64) []float32 {
	out := make([]float32, len(w))
	for i, v := range w {
		out[i] = float32(v)
	}
	return out
}

// OutShape returns the produced output shape.
func (e *InferenceEngine) OutShape() Shape { return e.out }

// ---------- forward entry points ----------

// ForwardBatchF32Into runs batched inference, writing sample s's output
// into outs[s] (each must have OutShape().Size() elements). Steady-state
// calls allocate nothing.
func (e *InferenceEngine) ForwardBatchF32Into(ins [][]float32, outs [][]float32) error {
	if len(ins) != len(outs) {
		return fmt.Errorf("nn: %d inputs for %d outputs", len(ins), len(outs))
	}
	if len(ins) == 0 {
		return nil
	}
	inSize, outSize := e.in.Size(), e.out.Size()
	for s, in := range ins {
		if len(in) != inSize {
			return fmt.Errorf("nn: batch input %d size %d, want %d", s, len(in), inSize)
		}
		if len(outs[s]) != outSize {
			return fmt.Errorf("nn: batch output %d size %d, want %d", s, len(outs[s]), outSize)
		}
	}
	a := e.arenas.Get().(*inferArena)
	for s0 := 0; s0 < len(ins); s0 += inferChunk {
		s1 := min(s0+inferChunk, len(ins))
		e.run(a, ins[s0:s1], outs[s0:s1])
	}
	e.arenas.Put(a)
	return nil
}

// inferChunk bounds how many samples one run processes: per-chunk
// activations and packed panels stay cache-resident, so large batches run
// at the per-chunk rate instead of thrashing.
const inferChunk = 8

// ForwardBatchF32 runs batched inference and returns one freshly
// allocated output per input.
func (e *InferenceEngine) ForwardBatchF32(ins [][]float32) ([][]float32, error) {
	outs := make([][]float32, len(ins))
	flat := make([]float32, len(ins)*e.out.Size())
	for s := range outs {
		outs[s] = flat[s*e.out.Size() : (s+1)*e.out.Size()]
	}
	if err := e.ForwardBatchF32Into(ins, outs); err != nil {
		return nil, err
	}
	return outs, nil
}

// ---------- execution ----------

func growF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// run pushes the batch through the op stream.
func (e *InferenceEngine) run(a *inferArena, ins [][]float32, outs [][]float32) {
	s := len(ins)
	a.actA = growF32(a.actA, s*e.maxAct)
	a.actB = growF32(a.actB, s*e.maxAct)

	// Load the batch into the first activation buffer.
	inSize := e.in.Size()
	cur, nxt := a.actA, a.actB
	for i, in := range ins {
		copy(cur[i*inSize:(i+1)*inSize], in)
	}

	for i := range e.ops {
		op := &e.ops[i]
		switch op.kind {
		case opReLU:
			n := s * op.in.Size()
			buf := cur[:n]
			for j, v := range buf {
				if v < 0 {
					buf[j] = 0
				}
			}
			continue // in place
		case opPool:
			e.pool(op, s, cur, nxt)
		case opConv:
			e.convF32(op, s, cur, nxt)
		case opDense:
			e.denseF32(op, s, cur, nxt)
		}
		cur, nxt = nxt, cur
	}
	outSize := e.out.Size()
	for i := range outs {
		copy(outs[i], cur[i*outSize:(i+1)*outSize])
	}
}

// fillBias initializes m rows of dst (width n) with the bias vector —
// the GEMM then accumulates on top. The filled prefix doubles as the
// copy source, so the work is O(log m) memmoves instead of m small ones.
func fillBias(dst []float32, bias []float32, m, n int) {
	if m == 0 {
		return
	}
	copy(dst[:n], bias)
	total := m * n
	for filled := n; filled < total; filled *= 2 {
		copy(dst[filled:total], dst[:filled])
	}
}

func (e *InferenceEngine) convF32(op *inferOp, s int, cur, nxt []float32) {
	m := s * len(op.rowOff)
	fillBias(nxt, op.bias, m, op.n)
	gemm.SgemmGather(m, cur, op.in.Size(), op.rowOff, op.kOff, op.pb, nxt, op.n)
}

func (e *InferenceEngine) denseF32(op *inferOp, s int, cur, nxt []float32) {
	fillBias(nxt, op.bias, s, op.n)
	gemm.SgemmPacked(s, cur, op.k, op.pb, nxt, op.n)
}

// pool applies 2×2/stride-2 pooling per sample (trailing odd row/column
// ignored, matching Pool2D). preReLU pools the clamped values via the
// fused row kernels — exact for avg, and for max because
// max(relu(·)) == relu(max(·)).
func (e *InferenceEngine) pool(op *inferOp, s int, cur, nxt []float32) {
	inSize, outSize := op.in.Size(), op.out.Size()
	oh, ow, c := op.out.H, op.out.W, op.out.C
	iw := op.in.W
	rowIn := iw * c
	for i := 0; i < s; i++ {
		in := cur[i*inSize : (i+1)*inSize]
		out := nxt[i*outSize : (i+1)*outSize]
		if op.preReLU {
			for y := 0; y < oh; y++ {
				dst := out[y*ow*c : (y+1)*ow*c]
				r0 := in[2*y*rowIn:]
				r1 := in[(2*y+1)*rowIn:]
				if op.poolKind == AvgPool {
					gemm.Pool2x2AvgReLU(dst, r0, r1, c)
				} else {
					gemm.Pool2x2MaxReLU(dst, r0, r1, c)
				}
			}
			continue
		}
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				i00 := ((2 * y * iw) + 2*x) * c
				i10 := (((2*y + 1) * iw) + 2*x) * c
				o := (y*ow + x) * c
				if op.poolKind == AvgPool {
					for ch := 0; ch < c; ch++ {
						out[o+ch] = (in[i00+ch] + in[i00+c+ch] + in[i10+ch] + in[i10+c+ch]) * 0.25
					}
					continue
				}
				for ch := 0; ch < c; ch++ {
					best := in[i00+ch]
					if v := in[i00+c+ch]; v > best {
						best = v
					}
					if v := in[i10+ch]; v > best {
						best = v
					}
					if v := in[i10+c+ch]; v > best {
						best = v
					}
					out[o+ch] = best
				}
			}
		}
	}
}
