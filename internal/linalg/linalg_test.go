package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnownSystem(t *testing.T) {
	a := [][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}}
	b := []float64{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v want %v", i, x[i], want[i])
		}
	}
}

func TestSolveDoesNotModifyInputs(t *testing.T) {
	a := [][]float64{{4, 1}, {1, 3}}
	b := []float64{1, 2}
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 4 || a[1][1] != 3 || b[0] != 1 || b[1] != 2 {
		t.Error("Solve modified its inputs")
	}
}

func TestSolveSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("expected ErrSingular, got %v", err)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	x, err := Solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 7 || x[1] != 3 {
		t.Errorf("got %v", x)
	}
}

func TestSolveBadDimensions(t *testing.T) {
	if _, err := Solve([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("expected dimension error for non-square system")
	}
	if _, err := Solve(nil, nil); err == nil {
		t.Error("expected error for empty system")
	}
}

// Property: Solve recovers a random solution of a random well-conditioned
// system (diagonally dominant by construction).
func TestSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := make([][]float64, n)
		xTrue := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			rowSum := 0.0
			for j := range a[i] {
				a[i][j] = rng.Float64()*2 - 1
				rowSum += math.Abs(a[i][j])
			}
			a[i][i] = rowSum + 1 // diagonally dominant
			xTrue[i] = rng.Float64()*10 - 5
		}
		b := make([]float64, n)
		for i := range b {
			for j := range xTrue {
				b[i] += a[i][j] * xTrue[j]
			}
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// Overdetermined but consistent: y = 2 + 3x.
	a := [][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	b := []float64{2, 5, 8, 11}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Errorf("got %v", x)
	}
}

func TestLeastSquaresMinimizesResidual(t *testing.T) {
	// Inconsistent system; optimum is the mean for a constant model.
	a := [][]float64{{1}, {1}, {1}, {1}}
	b := []float64{1, 2, 3, 6}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 {
		t.Errorf("constant fit %v want 3 (mean)", x[0])
	}
}

// An overdetermined Vandermonde system of exact cubic samples gives
// back the cubic's coefficients.
func TestLeastSquaresRecoversCubic(t *testing.T) {
	coef := []float64{1.5, -2, 0.5, 0.25}
	xs := []float64{-2, -1, -0.5, 0, 0.5, 1, 2, 3}
	a := make([][]float64, len(xs))
	ys := make([]float64, len(xs))
	for i, x := range xs {
		a[i] = []float64{1, x, x * x, x * x * x}
		ys[i] = coef[0] + x*(coef[1]+x*(coef[2]+x*coef[3]))
	}
	got, err := LeastSquares(a, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range coef {
		if math.Abs(got[i]-coef[i]) > 1e-9 {
			t.Errorf("coef[%d] = %v want %v", i, got[i], coef[i])
		}
	}
}

func TestFitPowerLawExact(t *testing.T) {
	// y = 2.5 * x^3.
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5 * math.Pow(x, 3)
	}
	p, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.A-2.5) > 1e-9 || math.Abs(p.B-3) > 1e-12 {
		t.Errorf("got A=%v B=%v", p.A, p.B)
	}
	if r2 := p.RSquared(xs, ys); math.Abs(r2-1) > 1e-12 {
		t.Errorf("R^2 = %v want 1", r2)
	}
}

func TestFitPowerLawRejectsNonPositive(t *testing.T) {
	if _, err := FitPowerLaw([]float64{1, -2}, []float64{1, 2}); err == nil {
		t.Error("expected error for negative x")
	}
	if _, err := FitPowerLaw([]float64{1}, []float64{1}); err == nil {
		t.Error("expected error for single sample")
	}
}

// Property: exact power laws are recovered for random positive A and
// exponents in a physical range.
func TestFitPowerLawProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		A := math.Exp(rng.Float64()*6 - 3)
		B := rng.Float64()*6 - 3
		xs := []float64{0.5, 1, 3, 10, 40, 100}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = A * math.Pow(x, B)
		}
		p, err := FitPowerLaw(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(p.A-A) < 1e-6*A && math.Abs(p.B-B) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolve8x8(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 8
	a := make([][]float64, n)
	rhs := make([]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = rng.Float64()
		}
		a[i][i] += float64(n)
		rhs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
