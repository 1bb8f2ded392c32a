// Package mathx provides the complex-valued linear algebra needed by the
// channel estimation stack: dense complex matrices, Hermitian products,
// least-squares solves via the normal equations, convolution (Toeplitz)
// matrix construction, autocorrelation and Yule-Walker AR fitting.
//
// Everything operates on complex128. Sizes in this problem domain are tiny
// (tens of rows/columns), so the implementations favour clarity and numeric
// robustness (partial pivoting) over asymptotic tricks.
package mathx

import (
	"errors"
	"fmt"
	"math/cmplx"
)

// ErrSingular is returned when a linear solve encounters a (numerically)
// singular system.
var ErrSingular = errors.New("mathx: singular matrix")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mathx: incompatible shapes")

// Matrix is a dense, row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mathx: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from row slices. All rows must share a length.
func FromRows(rows [][]complex128) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mathx: FromRows needs at least one non-empty row")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("mathx: FromRows ragged input")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Hermitian returns the conjugate transpose mᴴ.
func (m *Matrix) Hermitian() *Matrix {
	h := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			h.Set(j, i, cmplx.Conj(m.At(i, j)))
		}
	}
	return h
}

// Mul returns m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("%w: (%dx%d)·(%dx%d)", ErrShape, m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*b.Cols : (i+1)*b.Cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
	return out, nil
}

// MulVec returns m·v for a column vector v.
func (m *Matrix) MulVec(v []complex128) ([]complex128, error) {
	if m.Cols != len(v) {
		return nil, fmt.Errorf("%w: (%dx%d)·vec(%d)", ErrShape, m.Rows, m.Cols, len(v))
	}
	out := make([]complex128, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s complex128
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) (*Matrix, error) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return nil, ErrShape
	}
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] += b.Data[i]
	}
	return out, nil
}

// Sub returns m - b.
func (m *Matrix) Sub(b *Matrix) (*Matrix, error) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return nil, ErrShape
	}
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] -= b.Data[i]
	}
	return out, nil
}

// Scale returns s·m.
func (m *Matrix) Scale(s complex128) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// Solve solves the square system a·x = b for x using Gaussian elimination
// with partial pivoting. a and b are not modified.
func Solve(a *Matrix, b []complex128) ([]complex128, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: Solve needs square matrix, got %dx%d", ErrShape, a.Rows, a.Cols)
	}
	if a.Rows != len(b) {
		return nil, fmt.Errorf("%w: matrix %dx%d vs rhs %d", ErrShape, a.Rows, a.Cols, len(b))
	}
	n := a.Rows
	// Augmented working copies.
	w := a.Clone()
	x := make([]complex128, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot: pick the row with the largest magnitude in this column.
		pivot := col
		best := cmplx.Abs(w.At(col, col))
		for r := col + 1; r < n; r++ {
			if mag := cmplx.Abs(w.At(r, col)); mag > best {
				best, pivot = mag, r
			}
		}
		if best < 1e-300 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				w.Data[col*n+j], w.Data[pivot*n+j] = w.Data[pivot*n+j], w.Data[col*n+j]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / w.At(col, col)
		for r := col + 1; r < n; r++ {
			f := w.At(r, col) * inv
			if f == 0 {
				continue
			}
			w.Set(r, col, 0)
			for j := col + 1; j < n; j++ {
				w.Set(r, j, w.At(r, j)-f*w.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= w.At(i, j) * x[j]
		}
		x[i] = s / w.At(i, i)
	}
	return x, nil
}

// LU is a reusable partial-pivoting factorization for solving the same
// square system against many right-hand sides: Factor once, Solve per
// vector. The elimination follows Solve step for step (same pivot
// choices, same multiplier products), so LU.Solve(b) returns the same
// floats as Solve(a, b).
type LU struct {
	n   int
	w   *Matrix // upper triangle = U, strict lower = elimination factors
	piv []int   // row swapped with column i at step i
}

// Factor computes the PLU factorization of a square matrix. a is not
// modified.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: Factor needs square matrix, got %dx%d", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	w := a.Clone()
	piv := make([]int, n)
	for col := 0; col < n; col++ {
		pivot := col
		best := cmplx.Abs(w.At(col, col))
		for r := col + 1; r < n; r++ {
			if mag := cmplx.Abs(w.At(r, col)); mag > best {
				best, pivot = mag, r
			}
		}
		if best < 1e-300 {
			return nil, ErrSingular
		}
		piv[col] = pivot
		if pivot != col {
			for j := 0; j < n; j++ {
				w.Data[col*n+j], w.Data[pivot*n+j] = w.Data[pivot*n+j], w.Data[col*n+j]
			}
		}
		inv := 1 / w.At(col, col)
		for r := col + 1; r < n; r++ {
			f := w.At(r, col) * inv
			w.Set(r, col, f) // store the multiplier in the eliminated slot
			if f == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				w.Set(r, j, w.At(r, j)-f*w.At(col, j))
			}
		}
	}
	return &LU{n: n, w: w, piv: piv}, nil
}

// Solve solves the factored system for one right-hand side. b is not
// modified. Safe for concurrent use.
func (lu *LU) Solve(b []complex128) ([]complex128, error) {
	n := lu.n
	if len(b) != n {
		return nil, fmt.Errorf("%w: LU %dx%d vs rhs %d", ErrShape, n, n, len(b))
	}
	x := make([]complex128, n)
	copy(x, b)
	w := lu.w
	// Apply every row interchange first: the stored multipliers were
	// row-swapped by later pivots during factorization, so the forward
	// substitution must run against the fully permuted right-hand side.
	for col := 0; col < n; col++ {
		if p := lu.piv[col]; p != col {
			x[col], x[p] = x[p], x[col]
		}
	}
	for col := 0; col < n; col++ {
		for r := col + 1; r < n; r++ {
			if f := w.At(r, col); f != 0 {
				x[r] -= f * x[col]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= w.At(i, j) * x[j]
		}
		x[i] = s / w.At(i, i)
	}
	return x, nil
}

// Inverse returns a⁻¹ for a square matrix via column-wise solves.
func Inverse(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	n := a.Rows
	inv := NewMatrix(n, n)
	e := make([]complex128, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := Solve(a, e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// LeastSquares solves min ‖a·x − b‖₂ via the normal equations
// (aᴴa)x = aᴴb, the formulation used throughout the paper (Eq. 4, Eq. 7).
// A tiny diagonal loading term keeps near-rank-deficient systems solvable.
func LeastSquares(a *Matrix, b []complex128) ([]complex128, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("%w: matrix %dx%d vs rhs %d", ErrShape, a.Rows, a.Cols, len(b))
	}
	ah := a.Hermitian()
	aha, err := ah.Mul(a)
	if err != nil {
		return nil, err
	}
	// Diagonal loading proportional to the matrix scale for robustness.
	var trace float64
	for i := 0; i < aha.Rows; i++ {
		trace += real(aha.At(i, i))
	}
	eps := complex(1e-12*trace/float64(aha.Rows), 0)
	for i := 0; i < aha.Rows; i++ {
		aha.Set(i, i, aha.At(i, i)+eps)
	}
	ahb, err := ah.MulVec(b)
	if err != nil {
		return nil, err
	}
	return Solve(aha, ahb)
}

// ConvolutionMatrix builds the (len(x)+taps−1)×taps convolution matrix Xᵏ of
// Eq. 5: column j holds x delayed by j rows. Multiplying by an FIR tap vector
// h performs full linear convolution x*h.
func ConvolutionMatrix(x []complex128, taps int) *Matrix {
	if taps <= 0 {
		panic("mathx: ConvolutionMatrix needs taps > 0")
	}
	if len(x) == 0 {
		panic("mathx: ConvolutionMatrix needs non-empty input")
	}
	m := NewMatrix(len(x)+taps-1, taps)
	for j := 0; j < taps; j++ {
		for i, v := range x {
			m.Set(i+j, j, v)
		}
	}
	return m
}

// MaxAbs returns the largest element magnitude in v.
func MaxAbs(v []complex128) float64 {
	var max float64
	for _, c := range v {
		if a := cmplx.Abs(c); a > max {
			max = a
		}
	}
	return max
}

// Dot returns the inner product Σ a[i]·conj(b[i]) (a correlates with b).
func Dot(a, b []complex128) complex128 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s complex128
	for i := 0; i < n; i++ {
		s += a[i] * cmplx.Conj(b[i])
	}
	return s
}
