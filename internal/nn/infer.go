package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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
// An optional symmetric int8 quantized mode (Calibrate + EnableInt8)
// trades a bounded accuracy loss for integer kernels that move a quarter
// of the bytes: weights are quantized per tensor to signed 7-bit
// [-127,127], activations per tensor to unsigned 7-bit [0,127] using the
// calibrated input range (exact for this package's ReLU topologies, whose
// layer inputs are non-negative; negative activations clamp to zero).
type InferenceEngine struct {
	in, out Shape
	ops     []inferOp

	maxAct  int // largest activation plane per sample (floats)
	maxGemm int // largest conv/dense output per sample (floats)

	arenas sync.Pool

	// quant, when non-nil, holds one entry per op and switches conv/dense
	// ops to the int8 kernels. Swapped in atomically by EnableInt8 so
	// in-flight forwards see either all-float32 or all-int8.
	quant atomic.Pointer[[]quantTable]

	mu         sync.Mutex // calibration state
	calibMax   []float32  // per-op running max of input activations
	calibSeen  int        // calibration frames observed
	quantReady bool
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
	w64      []float64 // original weights, kept for quantization
	// Conv only: the implicit-GEMM offset tables. Patch element p =
	// (ky·kw+kx)·ic+c of output position pos = y·ow+x sits at
	// rowOff[pos]+kOff[p] in the sample's activation plane.
	kOff   []int // (ky·iw+kx)·ic + c
	rowOff []int // (y·iw+x)·ic
}

type quantTable struct {
	pb8    *gemm.PackedBInt8
	deq    float32 // wScale·aScale: int32 accumulator → float32
	invA   float32 // 127/aMax: float32 activation → u8 code
	bias32 []int32 // bias pre-scaled to accumulator units (round(b/deq))
}

type inferArena struct {
	actA, actB []float32
	act8       []uint8 // dense int8 activation codes
	apack8     []uint8 // conv int8 A panels (quad-interleaved)
	rowq       []uint8 // one quantized im2col row (int8 pack staging)
	acc32      []int32
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
				bias: f32s(t.b.W), w64: t.w.W,
			}
			if err := op.buildConvTables(); err != nil {
				return nil, fmt.Errorf("nn: compiling layer %d (%s): %w", i, l.name(), err)
			}
			e.ops = append(e.ops, op)
			e.maxGemm = max(e.maxGemm, out.Size())
		case *Dense:
			op := inferOp{
				kind: opDense, in: shape, out: out,
				k: shape.C, n: t.Units,
				pb:   gemm.PackB(shape.C, t.Units, f32s(t.w.W)),
				bias: f32s(t.b.W), w64: t.w.W,
			}
			e.ops = append(e.ops, op)
			e.maxGemm = max(e.maxGemm, out.Size())
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
	e.calibMax = make([]float32, len(e.ops))
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

// InShape returns the expected input shape.
func (e *InferenceEngine) InShape() Shape { return e.in }

// OutShape returns the produced output shape.
func (e *InferenceEngine) OutShape() Shape { return e.out }

// Mode reports the active kernel set: "float32" or "int8".
func (e *InferenceEngine) Mode() string {
	if e.quant.Load() != nil {
		return "int8"
	}
	return "float32"
}

// Quantized reports whether the int8 kernels are active.
func (e *InferenceEngine) Quantized() bool { return e.quant.Load() != nil }

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
	e.runChunked(a, ins, outs, nil)
	e.arenas.Put(a)
	return nil
}

// inferChunk bounds how many samples one run processes: per-chunk
// activations and packed panels stay cache-resident, so large batches run
// at the per-chunk rate instead of thrashing.
const inferChunk = 8

func (e *InferenceEngine) runChunked(a *inferArena, ins, outs [][]float32, calib []float32) {
	for s0 := 0; s0 < len(ins); s0 += inferChunk {
		s1 := min(s0+inferChunk, len(ins))
		e.run(a, ins[s0:s1], outs[s0:s1], calib)
	}
}

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

// ---------- quantization ----------

// Calibrate runs a float32 forward over a representative batch while
// recording per-layer activation ranges, and returns the batch outputs —
// so a serving path can calibrate on live traffic at full accuracy.
// Call it (cumulatively, any number of times) before EnableInt8.
func (e *InferenceEngine) Calibrate(ins [][]float32) ([][]float32, error) {
	if len(ins) == 0 {
		return nil, nil
	}
	inSize := e.in.Size()
	for s, in := range ins {
		if len(in) != inSize {
			return nil, fmt.Errorf("nn: calibration input %d size %d, want %d", s, len(in), inSize)
		}
	}
	ranges := make([]float32, len(e.ops))
	a := e.arenas.Get().(*inferArena)
	outSize := e.out.Size()
	outs := make([][]float32, len(ins))
	flat := make([]float32, len(ins)*outSize)
	for s := range outs {
		outs[s] = flat[s*outSize : (s+1)*outSize]
	}
	e.runChunked(a, ins, outs, ranges)
	e.arenas.Put(a)
	e.mu.Lock()
	for i, r := range ranges {
		if r > e.calibMax[i] {
			e.calibMax[i] = r
		}
	}
	e.calibSeen += len(ins)
	e.mu.Unlock()
	return outs, nil
}

// CalibrationFrames returns how many frames Calibrate has observed.
func (e *InferenceEngine) CalibrationFrames() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.calibSeen
}

// EnableInt8 quantizes the weighted layers and switches the engine to the
// int8 kernels. Requires at least one Calibrate call; in-flight forwards
// finish on whichever kernel set they started with.
func (e *InferenceEngine) EnableInt8() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.quantReady {
		return nil
	}
	if e.calibSeen == 0 {
		return errors.New("nn: EnableInt8 before any Calibrate batch")
	}
	tables := make([]quantTable, len(e.ops))
	for i := range e.ops {
		op := &e.ops[i]
		if op.kind != opConv && op.kind != opDense {
			continue
		}
		aMax := e.calibMax[i]
		if aMax <= 0 {
			return fmt.Errorf("nn: layer %d saw no positive activations during calibration", i)
		}
		var wMax float64
		for _, v := range op.w64 {
			wMax = math.Max(wMax, math.Abs(v))
		}
		if wMax == 0 {
			wMax = 1
		}
		wScale := wMax / 127
		q := make([]int8, len(op.w64))
		for j, v := range op.w64 {
			r := math.RoundToEven(v / wScale)
			q[j] = int8(math.Max(-127, math.Min(127, r)))
		}
		deq := float32(wScale) * aMax / 127
		// Bias joins the int32 accumulator (error ≤ deq/2, below one
		// quantization step), so dequantization is a pure scale.
		bias32 := make([]int32, len(op.bias))
		for j, b := range op.bias {
			bias32[j] = int32(math.RoundToEven(float64(b) / float64(deq)))
		}
		tables[i] = quantTable{
			pb8:    gemm.PackBInt8(op.k, op.n, q),
			deq:    deq,
			invA:   127 / aMax,
			bias32: bias32,
		}
	}
	e.quant.Store(&tables)
	e.quantReady = true
	return nil
}

// ---------- execution ----------

func growF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

func growU8(buf []uint8, n int) []uint8 {
	if cap(buf) < n {
		return make([]uint8, n)
	}
	return buf[:n]
}

func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// run pushes the batch through the op stream. calib, when non-nil,
// receives per-op maxima of input activations (forcing float32 kernels).
func (e *InferenceEngine) run(a *inferArena, ins [][]float32, outs [][]float32, calib []float32) {
	s := len(ins)
	var quant []quantTable
	if calib == nil {
		if q := e.quant.Load(); q != nil {
			quant = *q
		}
	}
	a.actA = growF32(a.actA, s*e.maxAct)
	a.actB = growF32(a.actB, s*e.maxAct)
	if quant != nil {
		a.act8 = growU8(a.act8, s*e.maxAct)
		a.acc32 = growI32(a.acc32, s*e.maxGemm)
	}

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
			// Before a quantized op the ReLU is free: encoding to unsigned
			// codes already clamps negatives to zero.
			if quant != nil && i+1 < len(e.ops) {
				if nk := e.ops[i+1].kind; (nk == opConv || nk == opDense) && quant[i+1].pb8 != nil {
					continue
				}
			}
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
			if calib != nil {
				calib[i] = max(calib[i], maxOf(cur[:s*op.in.Size()]))
			}
			if quant != nil && quant[i].pb8 != nil {
				e.convInt8(op, &quant[i], s, cur, nxt, a)
			} else {
				e.convF32(op, s, cur, nxt)
			}
		case opDense:
			if calib != nil {
				calib[i] = max(calib[i], maxOf(cur[:s*op.in.Size()]))
			}
			if quant != nil && quant[i].pb8 != nil {
				e.denseInt8(op, &quant[i], s, cur, nxt, a)
			} else {
				e.denseF32(op, s, cur, nxt)
			}
		}
		cur, nxt = nxt, cur
	}
	outSize := e.out.Size()
	for i := range outs {
		copy(outs[i], cur[i*outSize:(i+1)*outSize])
	}
}

func maxOf(xs []float32) float32 {
	var m float32
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
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

// packConvAInt8 gathers the already-quantized activation plane act8 into
// the quad-interleaved panel layout of gemm.QgemmPrepacked: per patch row
// the KH byte segments are staged contiguously in rowq (which must hold
// gemm.KP(op.k) bytes), then word-copied into the panel. Quantizing the
// plane once up front keeps each activation encoded exactly once, not
// once per overlapping patch.
func packConvAInt8(dst, rowq, act8 []uint8, op *inferOp, s int) {
	iw, ic := op.in.W, op.in.C
	oh, ow := op.out.H, op.out.W
	seg := op.kw * ic
	kp := gemm.KP(op.k)
	inSize := op.in.Size()
	// Single-channel layers with panel-aligned output rows build each
	// 32-byte quad block straight from four 8-byte input windows (lane r
	// is output position x0+r, so with ic==1 the windows are contiguous)
	// — a SIMD 4×8 transpose per quad instead of per-row staging.
	if ic == 1 && ow&7 == 0 {
		k := op.k
		pi := 0
		for i := 0; i < s; i++ {
			base := i * inSize
			for y := 0; y < oh; y++ {
				rowBase := base + y*iw
				for x0 := 0; x0 < ow; x0 += 8 {
					panel := dst[pi*kp*8 : (pi+1)*kp*8]
					pi++
					w := rowBase + x0
					for qq := 0; qq < kp; qq += 4 {
						w0, w1, w2, w3 := zeroWin[:], zeroWin[:], zeroWin[:], zeroWin[:]
						if qq < k {
							w0 = act8[w+op.kOff[qq]:]
						}
						if qq+1 < k {
							w1 = act8[w+op.kOff[qq+1]:]
						}
						if qq+2 < k {
							w2 = act8[w+op.kOff[qq+2]:]
						}
						if qq+3 < k {
							w3 = act8[w+op.kOff[qq+3]:]
						}
						gemm.PackQuad8(panel[qq*8:], w0, w1, w2, w3)
					}
				}
			}
		}
		return // m is a multiple of 8: no tail lanes to zero
	}
	for i := op.k; i < kp; i++ {
		rowq[i] = 0
	}
	g := 0
	for i := 0; i < s; i++ {
		base := i * inSize
		for y := 0; y < oh; y++ {
			rowBase := base + y*iw*ic
			for x := 0; x < ow; x++ {
				src := act8[rowBase+x*ic:]
				for ky := 0; ky < op.kh; ky++ {
					d := rowq[ky*seg : (ky+1)*seg]
					sr := src[ky*iw*ic : ky*iw*ic+seg]
					if seg < 16 {
						// too small for copy's memmove call to pay off
						for j, b := range sr {
							d[j] = b
						}
					} else {
						copy(d, sr)
					}
				}
				panel := dst[(g>>3)*kp*8 : (g>>3)*kp*8+kp*8]
				r := g & 7
				for qq := 0; qq < kp; qq += 4 {
					binary.LittleEndian.PutUint32(panel[qq*8+r*4:], binary.LittleEndian.Uint32(rowq[qq:]))
				}
				g++
			}
		}
	}
	for ; g&7 != 0; g++ {
		panel := dst[(g>>3)*kp*8 : (g>>3)*kp*8+kp*8]
		r := g & 7
		for qq := 0; qq < kp; qq += 4 {
			binary.LittleEndian.PutUint32(panel[qq*8+r*4:], 0)
		}
	}
}

// zeroWin pads the int8 quad packer where k is not a multiple of 4.
var zeroWin [8]uint8

// fillBias32 is fillBias for the int32 accumulator (bias in accumulator
// units — the quantized GEMM then adds on top).
func fillBias32(dst []int32, bias []int32, m, n int) {
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

func (e *InferenceEngine) convInt8(op *inferOp, qt *quantTable, s int, cur, nxt []float32, a *inferArena) {
	m := s * op.out.H * op.out.W
	inSize := op.in.Size()
	a.apack8 = growU8(a.apack8, gemm.PackedAInt8Len(m, op.k))
	a.rowq = growU8(a.rowq, gemm.KP(op.k))
	gemm.QuantizeU8(a.act8[:s*inSize], cur[:s*inSize], qt.invA)
	packConvAInt8(a.apack8, a.rowq, a.act8, op, s)
	acc := a.acc32[:m*op.n]
	fillBias32(acc, qt.bias32, m, op.n)
	gemm.QgemmPrepacked(m, a.apack8, qt.pb8, acc, op.n)
	gemm.DequantScale(nxt[:m*op.n], acc, qt.deq)
}

func (e *InferenceEngine) denseF32(op *inferOp, s int, cur, nxt []float32) {
	fillBias(nxt, op.bias, s, op.n)
	gemm.SgemmPacked(s, cur, op.k, op.pb, nxt, op.n)
}

func (e *InferenceEngine) denseInt8(op *inferOp, qt *quantTable, s int, cur, nxt []float32, a *inferArena) {
	gemm.QuantizeU8(a.act8[:s*op.k], cur[:s*op.k], qt.invA)
	acc := a.acc32[:s*op.n]
	fillBias32(acc, qt.bias32, s, op.n)
	gemm.QgemmPacked(s, a.act8, op.k, qt.pb8, acc, op.n)
	gemm.DequantScale(nxt[:s*op.n], acc, qt.deq)
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
