package linalg

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewMatrixValidation(t *testing.T) {
	t.Parallel()

	if _, err := NewMatrix(0, 3); !errors.Is(err, ErrShape) {
		t.Error("0 rows accepted")
	}
	if _, err := NewMatrix(3, -1); !errors.Is(err, ErrShape) {
		t.Error("negative cols accepted")
	}
}

func TestSetAtAdd(t *testing.T) {
	t.Parallel()

	m, err := NewMatrix(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.Set(1, 2, 5)
	m.Add(1, 2, 2)
	if got := m.At(1, 2); got != 7 {
		t.Errorf("At(1,2) = %v, want 7", got)
	}
	if m.rows != 2 || m.cols != 3 {
		t.Error("dimensions wrong")
	}
}

func TestCloneIndependent(t *testing.T) {
	t.Parallel()

	m, err := NewMatrix(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Set(0, 0, 1)
	cp := m.Clone()
	cp.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("clone shares storage")
	}
}

func TestMulVec(t *testing.T) {
	t.Parallel()

	m, err := NewMatrix(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// [1 2 3; 4 5 6] * [1 1 1] = [6 15]
	vals := [][]float64{{1, 2, 3}, {4, 5, 6}}
	for i, row := range vals {
		for j, v := range row {
			m.Set(i, j, v)
		}
	}
	out, err := m.MulVec([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 6 || out[1] != 15 {
		t.Errorf("MulVec = %v", out)
	}
	if _, err := m.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Error("short vector accepted")
	}
}

func TestVecMul(t *testing.T) {
	t.Parallel()

	m, err := NewMatrix(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// P = [0.9 0.1; 0.2 0.8]; [1 0] P = first row.
	m.Set(0, 0, 0.9)
	m.Set(0, 1, 0.1)
	m.Set(1, 0, 0.2)
	m.Set(1, 1, 0.8)
	out, err := m.VecMul([]float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0.9 || out[1] != 0.1 {
		t.Errorf("VecMul = %v", out)
	}
	if _, err := m.VecMul([]float64{1, 0, 0}); !errors.Is(err, ErrShape) {
		t.Error("long vector accepted")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	t.Parallel()

	m, err := NewMatrix(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// x + 2y + z = 8; 3y + z = 10; 2x + z = 3  ->  x=1, y=3, z=1.
	rows := [][]float64{{1, 2, 1}, {0, 3, 1}, {2, 0, 1}}
	for i, row := range rows {
		for j, v := range row {
			m.Set(i, j, v)
		}
	}
	x, err := Solve(m, []float64{8, 10, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	t.Parallel()

	m, err := NewMatrix(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Zero on the leading diagonal forces a row swap.
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	x, err := Solve(m, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	t.Parallel()

	m, err := NewMatrix(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, err := Solve(m, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Error("singular system solved")
	}
}

func TestSolveShapeErrors(t *testing.T) {
	t.Parallel()

	m, err := NewMatrix(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(m, []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Error("non-square accepted")
	}
	sq, err := NewMatrix(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(sq, []float64{1}); !errors.Is(err, ErrShape) {
		t.Error("short rhs accepted")
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	t.Parallel()

	m, err := NewMatrix(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Set(0, 0, 2)
	m.Set(1, 1, 2)
	b := []float64{4, 6}
	if _, err := Solve(m, b); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 2 || m.At(1, 1) != 2 || b[0] != 4 || b[1] != 6 {
		t.Error("Solve mutated its inputs")
	}
}

// TestQuickSolveResidual: Solve on random diagonally dominant systems
// produces tiny residuals.
func TestQuickSolveResidual(t *testing.T) {
	t.Parallel()

	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		r := rng.New(seed)
		m, err := NewMatrix(n, n)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				v := 2*r.Float64() - 1
				m.Set(i, j, v)
				rowSum += math.Abs(v)
			}
			m.Set(i, i, rowSum+1+r.Float64()) // diagonally dominant => nonsingular
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = 10 * (2*r.Float64() - 1)
		}
		x, err := Solve(m, b)
		if err != nil {
			return false
		}
		res, err := MaxAbsResidual(m, x, b)
		return err == nil && res < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolve100(b *testing.B) {
	const n = 100
	r := rng.New(1)
	m, err := NewMatrix(n, n)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, r.Float64())
		}
		m.Add(i, i, float64(n))
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(m, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// MulVec and MaxAbsResidual are test oracles: they check Solve's
// answers against the systems they solve.

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, fmt.Errorf("%w: %dx%d times vector of %d", ErrShape, m.rows, m.cols, len(x))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		sum := 0.0
		for j, v := range row {
			sum += v * x[j]
		}
		out[i] = sum
	}
	return out, nil
}

// MaxAbsResidual returns max_i |(m·x − b)_i|, for verifying solutions.
func MaxAbsResidual(m *Matrix, x, b []float64) (float64, error) {
	mx, err := m.MulVec(x)
	if err != nil {
		return 0, err
	}
	if len(b) != len(mx) {
		return 0, fmt.Errorf("%w: rhs length %d", ErrShape, len(b))
	}
	worst := 0.0
	for i := range mx {
		if d := math.Abs(mx[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst, nil
}
