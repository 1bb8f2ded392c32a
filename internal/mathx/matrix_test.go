package mathx

import (
	"math/cmplx"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func cEq(t *testing.T, got, want complex128, msg string) {
	t.Helper()
	if cmplx.Abs(got-want) > tol {
		t.Fatalf("%s: got %v want %v", msg, got, want)
	}
}

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d", m.Rows, m.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) not zero", i, j)
			}
		}
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0x0 matrix")
		}
	}()
	NewMatrix(0, 0)
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 3+4i)
	cEq(t, m.At(1, 2), 3+4i, "At after Set")
	if m.At(0, 0) != 0 {
		t.Fatal("unrelated element modified")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			cEq(t, id.At(i, j), want, "identity element")
		}
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]complex128{{1, 2}, {3i, 4i}})
	cEq(t, m.At(0, 1), 2, "(0,1)")
	cEq(t, m.At(1, 0), 3i, "(1,0)")
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]complex128{{1, 2}, {3}})
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]complex128{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	cEq(t, m.At(0, 0), 1, "original unchanged after clone mutation")
}

func TestHermitian(t *testing.T) {
	m := FromRows([][]complex128{{1 + 1i, 2}, {3, 4 - 2i}, {5i, 6}})
	h := m.Hermitian()
	if h.Rows != 2 || h.Cols != 3 {
		t.Fatalf("hermitian shape %dx%d", h.Rows, h.Cols)
	}
	cEq(t, h.At(0, 0), 1-1i, "conjugated (0,0)")
	cEq(t, h.At(1, 1), 4+2i, "conjugated (1,1)")
	cEq(t, h.At(0, 2), -5i, "conjugated (0,2)")
}

func TestHermitianInvolution(t *testing.T) {
	m := randomMatrix(4, 3, 1)
	hh := m.Hermitian().Hermitian()
	for i := range m.Data {
		cEq(t, hh.Data[i], m.Data[i], "(Aᴴ)ᴴ = A")
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	cEq(t, c.At(0, 0), 19, "(0,0)")
	cEq(t, c.At(0, 1), 22, "(0,1)")
	cEq(t, c.At(1, 0), 43, "(1,0)")
	cEq(t, c.At(1, 1), 50, "(1,1)")
}

func TestMulShapeError(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]complex128{{1, 1i}, {2, 0}})
	v, err := a.MulVec([]complex128{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	cEq(t, v[0], 1+1i, "v[0]")
	cEq(t, v[1], 2, "v[1]")
}

func TestMulVecShapeError(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := a.MulVec([]complex128{1, 2}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{4, 3}, {2, 1}})
	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	cEq(t, sum.At(0, 0), 5, "add")
	diff, err := a.Sub(b)
	if err != nil {
		t.Fatal(err)
	}
	cEq(t, diff.At(1, 1), 3, "sub")
	sc := a.Scale(2i)
	cEq(t, sc.At(0, 1), 4i, "scale")
}

func TestAddShapeError(t *testing.T) {
	a, b := NewMatrix(2, 2), NewMatrix(3, 3)
	if _, err := a.Add(b); err == nil {
		t.Fatal("expected shape error for Add")
	}
	if _, err := a.Sub(b); err == nil {
		t.Fatal("expected shape error for Sub")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := FromRows([][]complex128{
		{2, 1},
		{1, 3},
	})
	x, err := Solve(a, []complex128{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	cEq(t, x[0], 1, "x[0]")
	cEq(t, x[1], 3, "x[1]")
}

func TestSolveComplexSystem(t *testing.T) {
	a := FromRows([][]complex128{
		{1 + 1i, 2},
		{3, 4 - 1i},
	})
	want := []complex128{2 - 1i, 1 + 2i}
	b, err := a.MulVec(want)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		cEq(t, x[i], want[i], "solution element")
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Zero on the initial pivot position: only solvable with row exchange.
	a := FromRows([][]complex128{
		{0, 1},
		{1, 0},
	})
	x, err := Solve(a, []complex128{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cEq(t, x[0], 3, "x[0]")
	cEq(t, x[1], 2, "x[1]")
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]complex128{
		{1, 2},
		{2, 4},
	})
	if _, err := Solve(a, []complex128{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSolveNonSquare(t *testing.T) {
	a := NewMatrix(3, 2)
	if _, err := Solve(a, []complex128{1, 2, 3}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	a := FromRows([][]complex128{{2, 1}, {1, 3}})
	b := []complex128{5, 10}
	orig := a.Clone()
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		cEq(t, a.Data[i], orig.Data[i], "matrix unchanged")
	}
	cEq(t, b[0], 5, "rhs unchanged")
}

func TestInverse(t *testing.T) {
	a := FromRows([][]complex128{
		{4, 7},
		{2, 6},
	})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := a.Mul(inv)
	if err != nil {
		t.Fatal(err)
	}
	id := Identity(2)
	for i := range id.Data {
		cEq(t, prod.Data[i], id.Data[i], "A·A⁻¹ = I")
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent system recovers the generator exactly.
	a := randomMatrix(8, 3, 7)
	want := []complex128{1 + 2i, -0.5, 0.25i}
	b, err := a.MulVec(want)
	if err != nil {
		t.Fatal(err)
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if cmplx.Abs(x[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v want %v", i, x[i], want[i])
		}
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The LS residual must be orthogonal to the column space of A.
	a := randomMatrix(10, 3, 3)
	b := make([]complex128, 10)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax, err := a.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]complex128, len(b))
	for i := range b {
		res[i] = b[i] - ax[i]
	}
	col := make([]complex128, a.Rows)
	for j := 0; j < a.Cols; j++ {
		for i := range col {
			col[i] = a.At(i, j)
		}
		if d := cmplx.Abs(Dot(col, res)); d > 1e-6 {
			t.Fatalf("residual not orthogonal to column %d: |dot| = %g", j, d)
		}
	}
}

func TestLeastSquaresShapeError(t *testing.T) {
	a := NewMatrix(4, 2)
	if _, err := LeastSquares(a, []complex128{1}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestConvolutionMatrixShape(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	m := ConvolutionMatrix(x, 3)
	if m.Rows != 6 || m.Cols != 3 {
		t.Fatalf("shape %dx%d, want 6x3", m.Rows, m.Cols)
	}
}

func TestConvolutionMatrixMatchesEq5(t *testing.T) {
	// Eq. 5 layout: column j is x shifted down by j.
	x := []complex128{10, 20, 30}
	m := ConvolutionMatrix(x, 2)
	want := [][]complex128{
		{10, 0},
		{20, 10},
		{30, 20},
		{0, 30},
	}
	for i, row := range want {
		for j, v := range row {
			cEq(t, m.At(i, j), v, "conv matrix element")
		}
	}
}

func TestConvolutionMatrixTimesTapsIsConvolution(t *testing.T) {
	x := []complex128{1, 2 + 1i, 3}
	h := []complex128{0.5, -0.25i}
	m := ConvolutionMatrix(x, len(h))
	got, err := m.MulVec(h)
	if err != nil {
		t.Fatal(err)
	}
	// Direct full convolution.
	want := make([]complex128, len(x)+len(h)-1)
	for i, xv := range x {
		for j, hv := range h {
			want[i+j] += xv * hv
		}
	}
	for i := range want {
		cEq(t, got[i], want[i], "convolution output")
	}
}

func TestConvolutionMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero taps")
		}
	}()
	ConvolutionMatrix([]complex128{1}, 0)
}

func TestMaxAbs(t *testing.T) {
	if got := MaxAbs([]complex128{1, -2, 3i, 0}); got != 3 {
		t.Fatalf("MaxAbs = %v want 3", got)
	}
	if got := MaxAbs(nil); got != 0 {
		t.Fatalf("MaxAbs(nil) = %v want 0", got)
	}
}

func TestDot(t *testing.T) {
	// Dot conjugates the second argument.
	got := Dot([]complex128{1i}, []complex128{1i})
	cEq(t, got, 1, "⟨i, i⟩ = 1")
}

func TestDotShorterSecondArg(t *testing.T) {
	got := Dot([]complex128{1, 2, 3}, []complex128{1})
	cEq(t, got, 1, "dot truncates to shorter length")
}

// Property: Solve(A, A·x) == x for random well-conditioned systems.
func TestSolvePropertyRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		n := 2 + int(seed%5)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		// Diagonal dominance guarantees conditioning.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+complex(float64(n)*3, 0))
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		b, err := a.MulVec(x)
		if err != nil {
			return false
		}
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(got[i]-x[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᴴ = Bᴴ·Aᴴ.
func TestHermitianProductProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a := randomMatrix(3, 4, seed)
		b := randomMatrix(4, 2, seed+1)
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		lhs := ab.Hermitian()
		rhs, err := b.Hermitian().Mul(a.Hermitian())
		if err != nil {
			return false
		}
		for i := range lhs.Data {
			if cmplx.Abs(lhs.Data[i]-rhs.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func randomMatrix(rows, cols int, seed uint64) *Matrix {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}
