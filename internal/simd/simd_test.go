package simd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"specglobe/internal/gll"
)

func randBlock(rng *rand.Rand) []float32 {
	u := make([]float32, PadLen)
	for i := 0; i < BlockLen; i++ {
		u[i] = rng.Float32()*2 - 1
	}
	return u
}

func testMatrix() *Matrix {
	b := gll.New(gll.Degree)
	return MatrixFromF64(b.HPrime)
}

func maxDiff(a, b []float32) float64 {
	d := 0.0
	for i := 0; i < BlockLen; i++ {
		if v := math.Abs(float64(a[i] - b[i])); v > d {
			d = v
		}
	}
	return d
}

// Brute-force reference for each direction, written independently of the
// kernels under test.
func refD(dir int, m *Matrix, u []float32) []float32 {
	out := make([]float32, PadLen)
	for k := 0; k < NGLL; k++ {
		for j := 0; j < NGLL; j++ {
			for i := 0; i < NGLL; i++ {
				var s float32
				for l := 0; l < NGLL; l++ {
					switch dir {
					case 1:
						s += m[i][l] * u[idx(l, j, k)]
					case 2:
						s += m[j][l] * u[idx(i, l, k)]
					case 3:
						s += m[k][l] * u[idx(i, j, l)]
					}
				}
				out[idx(i, j, k)] = s
			}
		}
	}
	return out
}

func TestScalarKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := testMatrix()
	for trial := 0; trial < 20; trial++ {
		u := randBlock(rng)
		d1 := make([]float32, PadLen)
		d2 := make([]float32, PadLen)
		d3 := make([]float32, PadLen)
		GradScalar(m, u, d1, d2, d3)
		for dir, got := range map[int][]float32{1: d1, 2: d2, 3: d3} {
			if d := maxDiff(got, refD(dir, m, u)); d > 1e-5 {
				t.Fatalf("scalar dir %d: max diff %g", dir, d)
			}
		}
	}
}

func TestVec4KernelsMatchScalar(t *testing.T) {
	bothBodies(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		m := testMatrix()
		cols := Columns4(m)
		for trial := 0; trial < 50; trial++ {
			u := randBlock(rng)
			s1 := make([]float32, PadLen)
			s2 := make([]float32, PadLen)
			s3 := make([]float32, PadLen)
			v1 := make([]float32, PadLen)
			v2 := make([]float32, PadLen)
			v3 := make([]float32, PadLen)
			GradScalar(m, u, s1, s2, s3)
			GradVec4(m, &cols, u, v1, v2, v3)
			for dir, pair := range map[int][2][]float32{1: {s1, v1}, 2: {s2, v2}, 3: {s3, v3}} {
				if d := maxDiff(pair[0], pair[1]); d > 1e-6 {
					t.Fatalf("vec4 dir %d: max diff %g vs scalar", dir, d)
				}
			}
		}
	})
}

func TestBlasPathMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := testMatrix()
	u := randBlock(rng)
	s1 := make([]float32, PadLen)
	s2 := make([]float32, PadLen)
	s3 := make([]float32, PadLen)
	b1 := make([]float32, PadLen)
	b2 := make([]float32, PadLen)
	b3 := make([]float32, PadLen)
	si := make([]float32, PadLen)
	so := make([]float32, PadLen)
	GradScalar(m, u, s1, s2, s3)
	GradBlas(SgemmRef, m, u, b1, b2, b3, si, so)
	for dir, pair := range map[int][2][]float32{1: {s1, b1}, 2: {s2, b2}, 3: {s3, b3}} {
		if d := maxDiff(pair[0], pair[1]); d > 1e-6 {
			t.Fatalf("blas dir %d: max diff %g vs scalar", dir, d)
		}
	}
}

// Property: all kernel variants agree on random blocks and random
// matrices (not just the GLL derivative matrix).
func TestKernelAgreementProperty(t *testing.T) {
	bothBodies(t, func(t *testing.T) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			var m Matrix
			for i := range m {
				for j := range m[i] {
					m[i][j] = rng.Float32()*2 - 1
				}
			}
			cols := Columns4(&m)
			u := randBlock(rng)
			s1 := make([]float32, PadLen)
			s2 := make([]float32, PadLen)
			s3 := make([]float32, PadLen)
			v1 := make([]float32, PadLen)
			v2 := make([]float32, PadLen)
			v3 := make([]float32, PadLen)
			GradScalar(&m, u, s1, s2, s3)
			GradVec4(&m, &cols, u, v1, v2, v3)
			return maxDiff(s1, v1) < 1e-5 && maxDiff(s2, v2) < 1e-5 && maxDiff(s3, v3) < 1e-5
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Error(err)
		}
	})
}

// Derivative of a constant block must vanish in every direction with the
// GLL derivative matrix (rows sum to zero).
func TestConstantBlockHasZeroGradient(t *testing.T) {
	bothBodies(t, func(t *testing.T) {
		m := testMatrix()
		cols := Columns4(m)
		u := make([]float32, PadLen)
		for i := 0; i < BlockLen; i++ {
			u[i] = 7.5
		}
		d1 := make([]float32, PadLen)
		d2 := make([]float32, PadLen)
		d3 := make([]float32, PadLen)
		GradVec4(m, &cols, u, d1, d2, d3)
		for i := 0; i < BlockLen; i++ {
			if math.Abs(float64(d1[i])) > 1e-4 || math.Abs(float64(d2[i])) > 1e-4 || math.Abs(float64(d3[i])) > 1e-4 {
				t.Fatalf("gradient of constant not zero at %d: %g %g %g", i, d1[i], d2[i], d3[i])
			}
		}
	})
}

// The padding constants must match the paper's description: 125 floats
// padded to 128, a 2.4% waste.
func TestPaddingConstants(t *testing.T) {
	if BlockLen != 125 || PadLen != 128 {
		t.Fatalf("BlockLen=%d PadLen=%d", BlockLen, PadLen)
	}
	waste := float64(PadLen)/float64(BlockLen) - 1
	if math.Abs(waste-0.024) > 0.001 {
		t.Errorf("padding waste %.4f, paper says 2.4%%", waste)
	}
}

var sink float32

func benchGrad(b *testing.B, f func(u, d1, d2, d3 []float32)) {
	rng := rand.New(rand.NewSource(9))
	u := randBlock(rng)
	d1 := make([]float32, PadLen)
	d2 := make([]float32, PadLen)
	d3 := make([]float32, PadLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(u, d1, d2, d3)
	}
	sink += d1[0] + d2[63] + d3[124]
}

func BenchmarkGradScalar(b *testing.B) {
	m := testMatrix()
	benchGrad(b, func(u, d1, d2, d3 []float32) { GradScalar(m, u, d1, d2, d3) })
}

// BenchmarkGradVec4 prices one gradient (three contractions) of both
// bodies: what the production kernel pays on this host and what a host
// without AVX2 pays.
func BenchmarkGradVec4(b *testing.B) {
	m := testMatrix()
	cols := Columns4(m)
	grad := func(u, d1, d2, d3 []float32) { GradVec4(m, &cols, u, d1, d2, d3) }
	b.Run("avx2", func(b *testing.B) {
		if !Vector() {
			b.Skip("no AVX2 on this host")
		}
		benchGrad(b, grad)
	})
	b.Run("go", func(b *testing.B) {
		ForceGo(b)
		benchGrad(b, grad)
	})
}

func BenchmarkGradBlasWithCopies(b *testing.B) {
	m := testMatrix()
	si := make([]float32, PadLen)
	so := make([]float32, PadLen)
	benchGrad(b, func(u, d1, d2, d3 []float32) { GradBlas(SgemmRef, m, u, d1, d2, d3, si, so) })
}
