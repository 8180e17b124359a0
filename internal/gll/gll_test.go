package gll

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Known degree-4 GLL points: -1, -sqrt(3/7), 0, sqrt(3/7), 1.
func TestPointsDegree4Known(t *testing.T) {
	got := Points(4)
	want := []float64{-1, -math.Sqrt(3.0 / 7.0), 0, math.Sqrt(3.0 / 7.0), 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-14 {
			t.Errorf("point %d: got %.16f want %.16f", i, got[i], want[i])
		}
	}
}

// Known degree-4 GLL weights: 1/10, 49/90, 32/45, 49/90, 1/10.
func TestWeightsDegree4Known(t *testing.T) {
	p := Points(4)
	got := Weights(4, p)
	want := []float64{1.0 / 10, 49.0 / 90, 32.0 / 45, 49.0 / 90, 1.0 / 10}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-14 {
			t.Errorf("weight %d: got %.16f want %.16f", i, got[i], want[i])
		}
	}
}

func TestPointsIncludeEndpointsAndSorted(t *testing.T) {
	for n := 1; n <= 10; n++ {
		p := Points(n)
		if len(p) != n+1 {
			t.Fatalf("n=%d: got %d points", n, len(p))
		}
		if p[0] != -1 || p[n] != 1 {
			t.Errorf("n=%d: endpoints %v %v", n, p[0], p[n])
		}
		for i := 1; i <= n; i++ {
			if p[i] <= p[i-1] {
				t.Errorf("n=%d: points not strictly ascending at %d", n, i)
			}
		}
	}
}

func TestPointsSymmetric(t *testing.T) {
	for n := 2; n <= 10; n++ {
		p := Points(n)
		for i := 0; i <= n; i++ {
			if p[i] != -p[n-i] {
				t.Errorf("n=%d: asymmetry p[%d]=%v p[%d]=%v", n, i, p[i], n-i, p[n-i])
			}
		}
	}
}

func TestWeightsSumToTwo(t *testing.T) {
	for n := 1; n <= 12; n++ {
		w := Weights(n, Points(n))
		s := 0.0
		for _, wi := range w {
			s += wi
		}
		if math.Abs(s-2) > 1e-12 {
			t.Errorf("n=%d: weights sum %v != 2", n, s)
		}
	}
}

// GLL quadrature with n+1 points is exact for polynomials of degree <= 2n-1.
func TestQuadratureExactness(t *testing.T) {
	for n := 2; n <= 8; n++ {
		b := New(n)
		for deg := 0; deg <= 2*n-1; deg++ {
			got := b.Integrate1D(func(x float64) float64 { return math.Pow(x, float64(deg)) })
			want := 0.0
			if deg%2 == 0 {
				want = 2 / float64(deg+1)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("n=%d deg=%d: integral %v want %v", n, deg, got, want)
			}
		}
	}
}

// Property: GLL quadrature integrates random polynomials of degree 2n-1
// exactly (the defining property of the rule).
func TestQuadratureExactnessProperty(t *testing.T) {
	b := New(Degree)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		deg := 2*Degree - 1
		coef := make([]float64, deg+1)
		for i := range coef {
			coef[i] = rng.Float64()*2 - 1
		}
		eval := func(x float64) float64 {
			v := 0.0
			for i := deg; i >= 0; i-- {
				v = v*x + coef[i]
			}
			return v
		}
		got := b.Integrate1D(eval)
		want := 0.0
		for i := 0; i <= deg; i += 2 {
			want += 2 * coef[i] / float64(i+1)
		}
		return math.Abs(got-want) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Rows of the derivative matrix must sum to zero (derivative of the
// constant-1 interpolant is zero).
func TestDerivativeMatrixRowsSumZero(t *testing.T) {
	for n := 1; n <= 10; n++ {
		b := New(n)
		for i := 0; i <= n; i++ {
			s := 0.0
			for j := 0; j <= n; j++ {
				s += b.HPrime[i][j]
			}
			if math.Abs(s) > 1e-11 {
				t.Errorf("n=%d row %d sums to %v", n, i, s)
			}
		}
	}
}

// The derivative matrix must differentiate polynomials up to degree n
// exactly at the collocation points.
func TestDerivativeMatrixExactOnPolynomials(t *testing.T) {
	for n := 2; n <= 8; n++ {
		b := New(n)
		for deg := 0; deg <= n; deg++ {
			vals := make([]float64, n+1)
			for i, x := range b.Points {
				vals[i] = math.Pow(x, float64(deg))
			}
			for i, x := range b.Points {
				got := 0.0
				for j := 0; j <= n; j++ {
					got += b.HPrime[i][j] * vals[j]
				}
				want := 0.0
				if deg > 0 {
					want = float64(deg) * math.Pow(x, float64(deg-1))
				}
				if math.Abs(got-want) > 1e-10 {
					t.Errorf("n=%d deg=%d point %d: D*v=%v want %v", n, deg, i, got, want)
				}
			}
		}
	}
}

// Known corner values of the degree-N derivative matrix.
func TestDerivativeMatrixCorners(t *testing.T) {
	for n := 2; n <= 8; n++ {
		h := DerivativeMatrix(n, Points(n))
		want := float64(n*(n+1)) / 4
		if math.Abs(h[0][0]+want) > 1e-12 {
			t.Errorf("n=%d: h[0][0]=%v want %v", n, h[0][0], -want)
		}
		if math.Abs(h[n][n]-want) > 1e-12 {
			t.Errorf("n=%d: h[n][n]=%v want %v", n, h[n][n], want)
		}
	}
}

// Lagrange interpolants satisfy the cardinal property l_j(x_i) = delta_ij
// and form a partition of unity at any x.
func TestLagrangeCardinalAndPartitionOfUnity(t *testing.T) {
	p := Points(Degree)
	for i, xi := range p {
		l := Lagrange(p, xi)
		for j := range l {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(l[j]-want) > 1e-12 {
				t.Errorf("l_%d(x_%d) = %v want %v", j, i, l[j], want)
			}
		}
	}
	f := func(x float64) bool {
		x = math.Mod(x, 1) // confine to [-1,1]
		l := Lagrange(p, x)
		s := 0.0
		for _, v := range l {
			s += v
		}
		return math.Abs(s-1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// LagrangeDeriv at the collocation points must reproduce HPrime columns.
func TestLagrangeDerivMatchesMatrix(t *testing.T) {
	b := New(Degree)
	for i, xi := range b.Points {
		d := LagrangeDeriv(b.Points, xi)
		for j := range d {
			if math.Abs(d[j]-b.HPrime[i][j]) > 1e-10 {
				t.Errorf("deriv mismatch at (%d,%d): %v vs %v", i, j, d[j], b.HPrime[i][j])
			}
		}
	}
}

// Interpolation with the Lagrange weights must reproduce polynomials of
// degree <= n exactly anywhere.
func TestInterpolateExactness(t *testing.T) {
	b := New(Degree)
	poly := func(x float64) float64 { return 3 - 2*x + 0.5*x*x - x*x*x + 0.25*x*x*x*x }
	for _, x := range []float64{-0.9, -0.33, 0.1, 0.5, 0.77} {
		got := 0.0
		for i, l := range Lagrange(b.Points, x) {
			got += l * poly(b.Points[i])
		}
		if math.Abs(got-poly(x)) > 1e-12 {
			t.Errorf("interpolate at %v: got %v want %v", x, got, poly(x))
		}
	}
}

func TestLegendreKnownValues(t *testing.T) {
	// P_2(x) = (3x^2-1)/2, P_3(x) = (5x^3-3x)/2 at x = 0.5.
	p2, dp2 := LegendreAndDerivative(2, 0.5)
	if math.Abs(p2-(-0.125)) > 1e-14 || math.Abs(dp2-1.5) > 1e-14 {
		t.Errorf("P2(0.5)=%v P2'(0.5)=%v", p2, dp2)
	}
	p3, dp3 := LegendreAndDerivative(3, 0.5)
	if math.Abs(p3-(-0.4375)) > 1e-14 || math.Abs(dp3-0.375) > 1e-13 {
		t.Errorf("P3(0.5)=%v P3'(0.5)=%v", p3, dp3)
	}
}

func TestNewPanicsOnBadDegree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func BenchmarkBasisConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = New(Degree)
	}
}

func BenchmarkLagrangeEval(b *testing.B) {
	p := Points(Degree)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Lagrange(p, 0.3)
	}
}
