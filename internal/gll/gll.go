// Package gll implements Gauss-Lobatto-Legendre (GLL) quadrature and the
// Lagrange interpolation machinery that underpins the spectral-element
// method: collocation points, integration weights, and the derivative
// matrix used by the solver's cutplane kernels.
//
// In a SEM for seismic wave propagation one typically uses polynomial
// degree N between 4 and 10 on each element (Komatitsch & Tromp 1999);
// SPECFEM3D_GLOBE and this reproduction use N = 4, i.e. 5 GLL points per
// element edge and (N+1)^3 = 125 points per hexahedral element — the
// 5x5x5 blocks the paper's section 4.3 vector kernels operate on.
package gll

import (
	"fmt"
	"math"
)

// Degree is the polynomial degree used throughout the solver, matching
// SPECFEM3D_GLOBE. NGLL = Degree+1 points per edge.
const (
	Degree = 4
	NGLL   = Degree + 1
)

// Basis holds the GLL collocation points, quadrature weights and Lagrange
// derivative matrix for a given polynomial degree on [-1, 1].
type Basis struct {
	N       int       // polynomial degree
	Points  []float64 // N+1 GLL points in ascending order, includes -1 and +1
	Weights []float64 // quadrature weights
	// HPrime[i][j] = l'_j(x_i): derivative of the j-th Lagrange
	// interpolant evaluated at the i-th GLL point. The solver applies
	// this matrix along i-, j- and k-cutplanes of each element.
	HPrime [][]float64
	// HPrimeWgll[i][j] = w_i * HPrime[i][j], the weighted transpose
	// factor that appears in the stiffness term of the weak form.
	HPrimeWgll [][]float64
}

// New computes the GLL basis of degree n. It panics for n < 1 because a
// spectral element needs at least two points per edge.
func New(n int) *Basis {
	if n < 1 {
		panic(fmt.Sprintf("gll: degree must be >= 1, got %d", n))
	}
	b := &Basis{N: n}
	b.Points = Points(n)
	b.Weights = Weights(n, b.Points)
	b.HPrime = DerivativeMatrix(n, b.Points)
	b.HPrimeWgll = make([][]float64, n+1)
	for i := 0; i <= n; i++ {
		b.HPrimeWgll[i] = make([]float64, n+1)
		for j := 0; j <= n; j++ {
			b.HPrimeWgll[i][j] = b.Weights[i] * b.HPrime[i][j]
		}
	}
	return b
}

// LegendreAndDerivative evaluates the Legendre polynomial P_n and its first
// derivative at x using the three-term recurrence.
func LegendreAndDerivative(n int, x float64) (p, dp float64) {
	if n == 0 {
		return 1, 0
	}
	pm1, p := 1.0, x
	dpm1, dp := 0.0, 1.0
	for k := 2; k <= n; k++ {
		kf := float64(k)
		pk := ((2*kf-1)*x*p - (kf-1)*pm1) / kf
		dpk := dpm1 + (2*kf-1)*p
		pm1, p = p, pk
		dpm1, dp = dp, dpk
	}
	return p, dp
}

// Points returns the n+1 Gauss-Lobatto-Legendre points of degree n on
// [-1, 1] in ascending order. The interior points are the roots of P'_n,
// found by Newton iteration seeded with Chebyshev-Gauss-Lobatto points.
func Points(n int) []float64 {
	x := make([]float64, n+1)
	x[0], x[n] = -1, 1
	if n < 2 {
		return x
	}
	for i := 1; i < n; i++ {
		// Chebyshev-Gauss-Lobatto initial guess; ascending order.
		guess := -math.Cos(math.Pi * float64(i) / float64(n))
		xi := guess
		for iter := 0; iter < 100; iter++ {
			// Newton on q(x) = P'_n(x). q' from Legendre's ODE:
			// (1-x^2) P''_n = 2x P'_n - n(n+1) P_n.
			p, dp := LegendreAndDerivative(n, xi)
			d2p := (2*xi*dp - float64(n*(n+1))*p) / (1 - xi*xi)
			step := dp / d2p
			xi -= step
			if math.Abs(step) < 1e-15 {
				break
			}
		}
		x[i] = xi
	}
	// Enforce exact symmetry: x_i = -x_{n-i}.
	for i := 0; i <= n/2; i++ {
		s := 0.5 * (x[i] - x[n-i])
		x[i], x[n-i] = s, -s
	}
	if n%2 == 0 {
		x[n/2] = 0
	}
	return x
}

// Weights returns the GLL quadrature weights w_i = 2 / (n(n+1) P_n(x_i)^2)
// for the given points. The rule integrates polynomials of degree up to
// 2n-1 exactly.
func Weights(n int, points []float64) []float64 {
	w := make([]float64, n+1)
	for i, xi := range points {
		p, _ := LegendreAndDerivative(n, xi)
		w[i] = 2 / (float64(n*(n+1)) * p * p)
	}
	return w
}

// DerivativeMatrix returns H'[i][j] = l'_j(x_i) for the Lagrange
// interpolants through the GLL points. Closed form for GLL nodes:
//
//	l'_j(x_i) = P_n(x_i) / (P_n(x_j) (x_i - x_j))   for i != j
//	l'_0(x_0) = -n(n+1)/4,  l'_n(x_n) = n(n+1)/4,   0 otherwise on diagonal.
func DerivativeMatrix(n int, points []float64) [][]float64 {
	pn := make([]float64, n+1)
	for i, xi := range points {
		pn[i], _ = LegendreAndDerivative(n, xi)
	}
	h := make([][]float64, n+1)
	for i := range h {
		h[i] = make([]float64, n+1)
		for j := 0; j <= n; j++ {
			switch {
			case i == j && i == 0:
				h[i][j] = -float64(n*(n+1)) / 4
			case i == j && i == n:
				h[i][j] = float64(n*(n+1)) / 4
			case i == j:
				h[i][j] = 0
			default:
				h[i][j] = pn[i] / (pn[j] * (points[i] - points[j]))
			}
		}
	}
	return h
}

// Lagrange evaluates all n+1 Lagrange interpolants through the given
// points at position x (which need not be a collocation point). Used by
// source injection and interpolated seismogram recording.
func Lagrange(points []float64, x float64) []float64 {
	n := len(points)
	l := make([]float64, n)
	for j := 0; j < n; j++ {
		v := 1.0
		for m := 0; m < n; m++ {
			if m != j {
				v *= (x - points[m]) / (points[j] - points[m])
			}
		}
		l[j] = v
	}
	return l
}

// LagrangeDeriv evaluates the derivatives of all n+1 Lagrange interpolants
// at position x.
func LagrangeDeriv(points []float64, x float64) []float64 {
	n := len(points)
	d := make([]float64, n)
	for j := 0; j < n; j++ {
		sum := 0.0
		for k := 0; k < n; k++ {
			if k == j {
				continue
			}
			term := 1.0 / (points[j] - points[k])
			for m := 0; m < n; m++ {
				if m != j && m != k {
					term *= (x - points[m]) / (points[j] - points[m])
				}
			}
			sum += term
		}
		d[j] = sum
	}
	return d
}

// Integrate1D integrates f over [-1, 1] with the basis quadrature rule.
func (b *Basis) Integrate1D(f func(x float64) float64) float64 {
	s := 0.0
	for i, xi := range b.Points {
		s += b.Weights[i] * f(xi)
	}
	return s
}
