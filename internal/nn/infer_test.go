package nn

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"vvd/internal/mathx/gemm"
)

// inferArches is the shape zoo for engine parity: the paper's Fig. 8
// stack (odd pooling inputs included), the scaled variant, and small
// awkward stacks exercising every layer kind and ragged GEMM edge.
func inferArches() map[string]func() (Shape, []Layer) {
	return map[string]func() (Shape, []Layer){
		"paper-like": func() (Shape, []Layer) {
			return Shape{H: 50, W: 90, C: 1}, []Layer{
				NewConv2D(6, 6, 4), NewReLU(), NewPool2D(AvgPool),
				NewConv2D(3, 3, 4), NewReLU(), NewPool2D(AvgPool), // 22x42 -> conv 20x40 -> pool 10x20
				NewConv2D(3, 3, 8), NewReLU(), NewPool2D(AvgPool), // 8x18 -> 4x9: odd width pooled
				NewFlatten(), NewDense(22),
			}
		},
		"odd-pools": func() (Shape, []Layer) {
			return Shape{H: 13, W: 23, C: 1}, []Layer{
				NewConv2D(3, 3, 8), NewReLU(), NewPool2D(AvgPool), // 11x21 -> 5x10
				NewConv2D(2, 2, 16), NewReLU(), NewPool2D(MaxPool), // 4x9 -> 2x4
				NewFlatten(), NewDense(33), NewReLU(), NewDense(7),
			}
		},
		"dense-only": func() (Shape, []Layer) {
			return Shape{H: 1, W: 1, C: 129}, []Layer{
				NewDense(65), NewReLU(), NewDense(9),
			}
		},
		"single-conv": func() (Shape, []Layer) {
			return Shape{H: 9, W: 9, C: 3}, []Layer{
				NewConv2D(4, 4, 5), NewFlatten(), NewDense(3),
			}
		},
	}
}

func randomNet(t *testing.T, build func() (Shape, []Layer), seed uint64) *Network {
	t.Helper()
	in, layers := build()
	net, err := NewNetwork(in, rand.New(rand.NewPCG(seed, 99)), layers...)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func toF32(x []float64) []float32 {
	out := make([]float32, len(x))
	for i, v := range x {
		out[i] = float32(v)
	}
	return out
}

func randomInput(rng *rand.Rand, n int, nonneg bool) []float64 {
	x := make([]float64, n)
	for i := range x {
		if nonneg {
			x[i] = rng.Float64() * 4 // depth-image-like
		} else {
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

// TestInferenceEngineMatchesForward pins the compiled float32 engine, fed
// float32-cast inputs, against the float64 training Forward on random
// weights and inputs: |Δ| ≤ 1e-4 + 1e-4·|reference| element-wise.
func TestInferenceEngineMatchesForward(t *testing.T) {
	const tolAbs, tolRel = 1e-4, 1e-4
	for name, build := range inferArches() {
		t.Run(name, func(t *testing.T) {
			net := randomNet(t, build, 17)
			eng, err := NewInferenceEngine(net)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(23, 5))
			for trial := 0; trial < 8; trial++ {
				in := randomInput(rng, net.In.Size(), trial%2 == 0)
				want, err := net.Forward(in)
				if err != nil {
					t.Fatal(err)
				}
				outs, err := eng.ForwardBatchF32([][]float32{toF32(in)})
				if err != nil {
					t.Fatal(err)
				}
				got := outs[0]
				if len(got) != len(want) {
					t.Fatalf("output size %d, want %d", len(got), len(want))
				}
				for i := range got {
					if diff := math.Abs(float64(got[i]) - want[i]); diff > tolAbs+tolRel*math.Abs(want[i]) {
						t.Fatalf("trial %d out[%d]=%g, reference %g (|Δ|=%g)", trial, i, got[i], want[i], diff)
					}
				}
			}
		})
	}
}

// TestInferenceEngineBatchBitwise: a batched engine forward must equal
// the per-sample engine forward bit for bit — row results are
// independent of the batch they ride in (GEMM tiling is row-disjoint).
func TestInferenceEngineBatchBitwise(t *testing.T) {
	for name, build := range inferArches() {
		t.Run(name, func(t *testing.T) {
			net := randomNet(t, build, 31)
			eng, err := NewInferenceEngine(net)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(7, 11))
			ins := make([][]float32, 13)
			for s := range ins {
				ins[s] = make([]float32, net.In.Size())
				for i := range ins[s] {
					ins[s][i] = float32(rng.NormFloat64())
				}
			}
			batch, err := eng.ForwardBatchF32(ins)
			if err != nil {
				t.Fatal(err)
			}
			for s := range ins {
				single, err := eng.ForwardBatchF32(ins[s : s+1])
				if err != nil {
					t.Fatal(err)
				}
				for i := range single[0] {
					if batch[s][i] != single[0][i] { //vvdlint:bitexact -- batch and engine parity vs Forward is bitwise by contract
						t.Fatalf("sample %d out[%d]: batch %g != single %g", s, i, batch[s][i], single[0][i])
					}
				}
			}
		})
	}
}

// TestForwardBatchPooledBuffers pins the engine's recycled buffers: one
// set of output slices, poisoned with NaN, is reused across shrinking and
// growing batches (so pooled arenas and outputs both carry stale data), and
// every sample must still equal a fresh single-sample forward bit for bit.
func TestForwardBatchPooledBuffers(t *testing.T) {
	net := randomNet(t, inferArches()["odd-pools"], 3)
	eng, err := NewInferenceEngine(net)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 4))
	outs := make([][]float32, 17)
	for s := range outs {
		outs[s] = make([]float32, net.Out.Size())
	}
	for _, batch := range []int{5, 2, 17, 9} { // shrinking + growing reuses pooled arenas
		ins := make([][]float32, batch)
		for s := range ins {
			ins[s] = toF32(randomInput(rng, net.In.Size(), false))
		}
		for _, o := range outs[:batch] {
			for i := range o {
				o[i] = float32(math.NaN())
			}
		}
		if err := eng.ForwardBatchF32Into(ins, outs[:batch]); err != nil {
			t.Fatal(err)
		}
		for s := range ins {
			want, err := eng.ForwardBatchF32(ins[s : s+1])
			if err != nil {
				t.Fatal(err)
			}
			for i := range want[0] {
				if outs[s][i] != want[0][i] { //vvdlint:bitexact -- batch and engine parity vs Forward is bitwise by contract
					t.Fatalf("batch %d sample %d out[%d]: %g != single %g", batch, s, i, outs[s][i], want[0][i])
				}
			}
		}
	}
}

func TestForwardBatchEmptyAndErrors(t *testing.T) {
	net := randomNet(t, inferArches()["odd-pools"], 5)
	eng, err := NewInferenceEngine(net)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := eng.ForwardBatchF32(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: got %v, %v", out, err)
	}
	if err := eng.ForwardBatchF32Into(nil, nil); err != nil {
		t.Fatalf("empty Into batch: %v", err)
	}
	if _, err := eng.ForwardBatchF32([][]float32{make([]float32, net.In.Size()+1)}); err == nil {
		t.Fatal("expected size-mismatch error")
	}
	if _, err := eng.ForwardBatchF32([][]float32{make([]float32, net.In.Size()), nil}); err == nil {
		t.Fatal("expected size-mismatch error for nil sample")
	}
}

// TestInferenceEngineConcurrent pins the engine's concurrent-use contract:
// goroutines sharing one InferenceEngine each get outputs bit-identical to
// a serial call (run under -race in CI).
func TestInferenceEngineConcurrent(t *testing.T) {
	net := randomNet(t, inferArches()["odd-pools"], 12)
	rng := rand.New(rand.NewPCG(3, 5))
	ins := make([][]float32, 11) // one full chunk plus a ragged one
	for s := range ins {
		ins[s] = toF32(randomInput(rng, net.In.Size(), true))
	}
	t.Run("float32", func(t *testing.T) {
		eng, err := NewInferenceEngine(net)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.ForwardBatchF32(ins)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 4; rep++ {
					got, err := eng.ForwardBatchF32(ins)
					if err != nil {
						t.Error(err)
						return
					}
					for s := range want {
						for i := range want[s] {
							if got[s][i] != want[s][i] { //vvdlint:bitexact -- batch and engine parity vs Forward is bitwise by contract
								t.Errorf("goroutine %d diverged at sample %d output %d", g, s, i)
								return
							}
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}

// packConvA is the naive im2col reference for the engine's implicit-GEMM
// convolution: it writes the batch's patch matrix row-major into dst
// (row g = sample-major, then output position; column p = (ky·kw+kx)·ic+c).
func packConvA(dst, cur []float32, op *inferOp, s int) {
	iw, ic := op.in.W, op.in.C
	inSize := op.in.Size()
	g := 0
	for i := 0; i < s; i++ {
		for y := 0; y < op.out.H; y++ {
			for x := 0; x < op.out.W; x++ {
				row := dst[g*op.k : (g+1)*op.k]
				p := 0
				for ky := 0; ky < op.kh; ky++ {
					for kx := 0; kx < op.kw; kx++ {
						for c := 0; c < ic; c++ {
							row[p] = cur[i*inSize+((y+ky)*iw+x+kx)*ic+c]
							p++
						}
					}
				}
				g++
			}
		}
	}
}

// TestConvGatherParity pins the engine's implicit-GEMM convolution bit
// for bit against explicit im2col (packConvA) + gemm.SgemmPacked, across
// channel counts, output widths that leave ragged row tiles, and batch
// sizes whose 8-sample chunks end mid-panel. Every K stays ≤ 1024, where
// SgemmPacked does not split K and so sums in the same order.
func TestConvGatherParity(t *testing.T) {
	for _, ic := range []int{1, 3, 8, 16, 32} {
		for _, geo := range []struct{ h, w, kh, kw, filters int }{
			{9, 13, 3, 3, 8},  // ow=11
			{7, 16, 2, 3, 5},  // ow=14, ragged N
			{12, 10, 5, 5, 4}, // ow=6; K=800 at ic=32 stays within SgemmPacked's unchunked K
		} {
			in := Shape{H: geo.h, W: geo.w, C: ic}
			net, err := NewNetwork(in, rand.New(rand.NewPCG(uint64(ic), 5)), NewConv2D(geo.kh, geo.kw, geo.filters))
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewInferenceEngine(net)
			if err != nil {
				t.Fatal(err)
			}
			op := &eng.ops[0]
			rng := rand.New(rand.NewPCG(uint64(geo.w), uint64(ic)))
			for _, batch := range []int{1, 3, 8, 13} {
				ins := make([][]float32, batch)
				flat := make([]float32, 0, batch*in.Size())
				for s := range ins {
					ins[s] = toF32(randomInput(rng, in.Size(), false))
					flat = append(flat, ins[s]...)
				}
				got, err := eng.ForwardBatchF32(ins)
				if err != nil {
					t.Fatal(err)
				}
				m := batch * op.out.H * op.out.W
				a := make([]float32, m*op.k)
				packConvA(a, flat, op, batch)
				want := make([]float32, m*op.n)
				fillBias(want, op.bias, m, op.n)
				gemm.SgemmPacked(m, a, op.k, op.pb, want, op.n)
				for s := range got {
					for i, v := range got[s] {
						if w := want[s*op.out.Size()+i]; v != w { //vvdlint:bitexact -- implicit GEMM reproduces the im2col accumulation order exactly
							t.Fatalf("ic=%d %+v batch %d sample %d out[%d]: engine %g, im2col %g", ic, geo, batch, s, i, v, w)
						}
					}
				}
			}
		}
	}
}

// TestForwardBatchIntoZeroAllocs pins the allocation contract of the
// pooled arenas: a steady-state single-frame ForwardBatchF32Into allocates
// nothing.
func TestForwardBatchIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	net := randomNet(t, inferArches()["paper-like"], 19)
	rng := rand.New(rand.NewPCG(4, 8))
	ins := [][]float32{toF32(randomInput(rng, net.In.Size(), true))}
	outs := [][]float32{make([]float32, net.Out.Size())}
	eng, err := NewInferenceEngine(net)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := eng.ForwardBatchF32Into(ins, outs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ForwardBatchF32Into allocates %.1f times per frame, want 0", allocs)
	}
}

// TestPool2DOddInput pins the defined odd-dimension semantics: output is
// ⌊H/2⌋×⌊W/2⌋ and the trailing row/column influence nothing.
func TestPool2DOddInput(t *testing.T) {
	p := NewPool2D(AvgPool)
	out, err := p.OutShape(Shape{H: 3, W: 5, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out != (Shape{H: 1, W: 2, C: 1}) {
		t.Fatalf("odd pool out shape %v", out)
	}
	in := []float64{
		1, 2, 3, 4, 100,
		5, 6, 7, 8, 100,
		100, 100, 100, 100, 100, // trailing row: must be ignored
	}
	got := p.Forward(in)
	want := []float64{(1 + 2 + 5 + 6) / 4.0, (3 + 4 + 7 + 8) / 4.0}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] { //vvdlint:bitexact -- batch and engine parity vs Forward is bitwise by contract
		t.Fatalf("odd pool forward %v, want %v", got, want)
	}
}

// TestInferenceEngineForwardBatchInto pins the zero-copy entry point's
// validation and output placement.
func TestInferenceEngineForwardBatchInto(t *testing.T) {
	net := randomNet(t, inferArches()["single-conv"], 8)
	eng, err := NewInferenceEngine(net)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 1))
	ins := [][]float32{make([]float32, net.In.Size())}
	for i := range ins[0] {
		ins[0][i] = float32(rng.NormFloat64())
	}
	if err := eng.ForwardBatchF32Into(ins, make([][]float32, 2)); err == nil {
		t.Fatal("mismatched batch sizes must error")
	}
	if err := eng.ForwardBatchF32Into(ins, [][]float32{make([]float32, 1)}); err == nil {
		t.Fatal("undersized output must error")
	}
	out := make([]float32, net.Out.Size())
	if err := eng.ForwardBatchF32Into(ins, [][]float32{out}); err != nil {
		t.Fatal(err)
	}
	ref, err := eng.ForwardBatchF32(ins)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != ref[0][i] { //vvdlint:bitexact -- batch and engine parity vs Forward is bitwise by contract
			t.Fatalf("Into out[%d]=%g != %g", i, out[i], ref[0][i])
		}
	}
}

// BenchmarkInferenceEngineSteadyState pins the zero-allocation claim of
// the pooled arenas: ForwardBatchF32Into must not allocate per call.
func BenchmarkInferenceEngineSteadyState(b *testing.B) {
	in, layers := inferArches()["paper-like"]()
	net, err := NewNetwork(in, rand.New(rand.NewPCG(1, 2)), layers...)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewInferenceEngine(net)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for _, batch := range []int{1, 8} {
		ins := make([][]float32, batch)
		outs := make([][]float32, batch)
		for s := range ins {
			ins[s] = make([]float32, in.Size())
			for i := range ins[s] {
				ins[s][i] = float32(rng.Float64())
			}
			outs[s] = make([]float32, net.Out.Size())
		}
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := eng.ForwardBatchF32Into(ins, outs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
