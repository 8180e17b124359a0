// Package linalg provides the small dense linear-algebra routines the
// reproduction needs: Gaussian elimination with partial pivoting,
// linear least squares via normal equations, polynomial fitting, and
// the power-law fits used by the performance models of section 5.
//
// Everything here is for small systems (a handful of unknowns): the SEM
// itself never solves a linear system because the spectral-element mass
// matrix is diagonal by construction.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a system has no unique solution.
var ErrSingular = errors.New("linalg: matrix is singular or ill-conditioned")

// Solve solves the dense n-by-n system A x = b by Gaussian elimination
// with partial pivoting. A and b are not modified.
func Solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("linalg: bad dimensions %dx? vs %d", n, len(b))
	}
	// Work on copies.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("linalg: row %d has %d columns, want %d", i, len(a[i]), n)
		}
		m[i] = append([]float64(nil), a[i]...)
		m[i] = append(m[i], b[i])
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-300 {
			return nil, ErrSingular
		}
		m[col], m[piv] = m[piv], m[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for c := i + 1; c < n; c++ {
			s -= m[i][c] * x[c]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}

// LeastSquares solves min ||A x - b||_2 for a tall matrix A (rows >=
// cols) via the normal equations A^T A x = A^T b. Adequate for the small,
// well-conditioned fits used here.
func LeastSquares(a [][]float64, b []float64) ([]float64, error) {
	rows := len(a)
	if rows == 0 || len(b) != rows {
		return nil, fmt.Errorf("linalg: bad dimensions")
	}
	cols := len(a[0])
	ata := make([][]float64, cols)
	atb := make([]float64, cols)
	for i := range ata {
		ata[i] = make([]float64, cols)
	}
	for r := 0; r < rows; r++ {
		if len(a[r]) != cols {
			return nil, fmt.Errorf("linalg: ragged matrix at row %d", r)
		}
		for i := 0; i < cols; i++ {
			atb[i] += a[r][i] * b[r]
			for j := 0; j < cols; j++ {
				ata[i][j] += a[r][i] * a[r][j]
			}
		}
	}
	return Solve(ata, atb)
}

// PowerLaw is the model y = A * x^B, the form used to extrapolate disk
// usage and runtime versus resolution in the paper's figures 5 and 7.
type PowerLaw struct {
	A, B float64
}

// FitPowerLaw fits y = A x^B in log space by linear least squares. All
// samples must be strictly positive.
func FitPowerLaw(x, y []float64) (PowerLaw, error) {
	if len(x) != len(y) || len(x) < 2 {
		return PowerLaw{}, fmt.Errorf("linalg: need >= 2 samples, got %d", len(x))
	}
	a := make([][]float64, len(x))
	b := make([]float64, len(x))
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			return PowerLaw{}, fmt.Errorf("linalg: power-law fit needs positive samples, got (%g, %g)", x[i], y[i])
		}
		a[i] = []float64{1, math.Log(x[i])}
		b[i] = math.Log(y[i])
	}
	c, err := LeastSquares(a, b)
	if err != nil {
		return PowerLaw{}, err
	}
	return PowerLaw{A: math.Exp(c[0]), B: c[1]}, nil
}

// Eval evaluates the power law at x.
func (p PowerLaw) Eval(x float64) float64 { return p.A * math.Pow(x, p.B) }

// RSquared returns the coefficient of determination of the power law on
// the given samples (computed in log space, where the fit was done).
func (p PowerLaw) RSquared(x, y []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	mean := 0.0
	for _, v := range y {
		mean += math.Log(v)
	}
	mean /= float64(len(y))
	ssRes, ssTot := 0.0, 0.0
	for i := range x {
		ly := math.Log(y[i])
		r := ly - math.Log(p.Eval(x[i]))
		ssRes += r * r
		d := ly - mean
		ssTot += d * d
	}
	if ssTot == 0 {
		return 1
	}
	return 1 - ssRes/ssTot
}
