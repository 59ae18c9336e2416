// Package linalg provides the small dense linear-algebra substrate used
// by the exact Markov-chain analysis (internal/markov): dense matrices,
// LU-style Gaussian elimination with partial pivoting for linear
// systems, and vector-matrix products. Go's standard library has no
// numerical linear algebra; the solvers here are written for the sizes
// the analysis needs (hundreds of states), favoring clarity and
// numerical robustness over asymptotics.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

var (
	// ErrShape reports dimension mismatches.
	ErrShape = errors.New("linalg: shape mismatch")
	// ErrSingular reports an (effectively) singular system.
	ErrSingular = errors.New("linalg: singular matrix")
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix allocates a zero rows×cols matrix.
func NewMatrix(rows, cols int) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrShape, rows, cols)
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add adds v to element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	cp := &Matrix{rows: m.rows, cols: m.cols, data: make([]float64, len(m.data))}
	copy(cp.data, m.data)
	return cp
}

// VecMul returns xᵀ·m (left multiplication), used for distribution
// evolution xᵀP of a Markov chain.
func (m *Matrix) VecMul(x []float64) ([]float64, error) {
	if len(x) != m.rows {
		return nil, fmt.Errorf("%w: vector of %d times %dx%d", ErrShape, len(x), m.rows, m.cols)
	}
	out := make([]float64, m.cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out, nil
}

// Solve solves m·x = b by Gaussian elimination with partial pivoting.
// m must be square; m and b are not modified.
func Solve(m *Matrix, b []float64) ([]float64, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("%w: solve on %dx%d", ErrShape, m.rows, m.cols)
	}
	if len(b) != m.rows {
		return nil, fmt.Errorf("%w: rhs length %d for n=%d", ErrShape, len(b), m.rows)
	}
	n := m.rows
	a := m.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				pivot, best = r, v
			}
		}
		if best < 1e-14 {
			return nil, fmt.Errorf("%w: pivot %e at column %d", ErrSingular, best, col)
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				vp, vc := a.At(pivot, j), a.At(col, j)
				a.Set(pivot, j, vc)
				a.Set(col, j, vp)
			}
			x[pivot], x[col] = x[col], x[pivot]
		}
		// Eliminate below.
		inv := 1 / a.At(col, col)
		for r := col + 1; r < n; r++ {
			factor := a.At(r, col) * inv
			if factor == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a.Add(r, j, -factor*a.At(col, j))
			}
			x[r] -= factor * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		for j := i + 1; j < n; j++ {
			sum -= a.At(i, j) * x[j]
		}
		x[i] = sum / a.At(i, i)
	}
	return x, nil
}
