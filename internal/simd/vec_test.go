package simd

import (
	"math"
	"math/rand"
	"testing"
)

// bothBodies runs f once per body of the Vec4 kernels: the 8-lane
// assembly (skipped on hosts without it) and the Go fallback.
func bothBodies(t *testing.T, f func(t *testing.T)) {
	t.Run("avx2", func(t *testing.T) {
		if !Vector() {
			t.Skip("no AVX2 on this host")
		}
		f(t)
	})
	t.Run("go", func(t *testing.T) {
		ForceGo(t)
		f(t)
	})
}

var nan32 = float32(math.NaN())

// sameBits is bit equality, except that any NaN equals any NaN: which
// operand's payload and sign a NaN result inherits depends on the
// operand order of each instruction, which is the compiler's choice in
// the Go bodies and not part of the contract.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// special are the values the integrator can meet at the edges of its
// range: signed zeros, subnormals, normals below the 2^-80 flush
// threshold, infinities and NaN.
var special = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), -math.Float32frombits(0x007fffff), 1e-40,
	0x1p-90, -0x1p-100, 0x1p-126,
	float32(math.Inf(1)), float32(math.Inf(-1)), nan32,
	math.MaxFloat32, -math.MaxFloat32,
}

// testBlock is a PadLen block of random values whose three pad lanes
// hold NaN; with seeded set, about one value in four is a special one.
func testBlock(rng *rand.Rand, seeded bool) []float32 {
	u := make([]float32, PadLen)
	for i := 0; i < BlockLen; i++ {
		u[i] = rng.Float32()*2 - 1
		if seeded && rng.Intn(4) == 0 {
			u[i] = special[rng.Intn(len(special))]
		}
	}
	u[125], u[126], u[127] = nan32, nan32, nan32
	return u
}

// nanBlock is an output block pre-filled with NaN, so a lane the kernel
// fails to write shows up as well.
func nanBlock() []float32 {
	o := make([]float32, PadLen)
	for i := range o {
		o[i] = nan32
	}
	return o
}

func randMatrix(rng *rand.Rand) *Matrix {
	var m Matrix
	for i := range m {
		for j := range m[i] {
			m[i][j] = rng.Float32()*2 - 1
		}
	}
	return &m
}

// vecApply and goApply run direction dir of the two bodies.
func vecApply(dir int, m *Matrix, cols *[NGLL]Vec4, u, out []float32) {
	switch dir {
	case 1:
		applyD1AVX2(m, cols, (*[PadLen]float32)(u), (*[PadLen]float32)(out))
	case 2:
		applyD2AVX2(m, (*[PadLen]float32)(u), (*[PadLen]float32)(out))
	case 3:
		applyD3AVX2(m, (*[PadLen]float32)(u), (*[PadLen]float32)(out))
	}
}

func goApply(dir int, m *Matrix, cols *[NGLL]Vec4, u, out []float32) {
	switch dir {
	case 1:
		applyD1Vec4Go(m, cols, u, out)
	case 2:
		applyD2Vec4Go(m, u, out)
	case 3:
		applyD3Vec4Go(m, u, out)
	}
}

// Every assembly contraction against its Go twin, bit for bit in lanes
// 0..124: the GLL derivative matrix and random matrices, random blocks
// and blocks seeded with zeros, subnormals, sub-threshold normals,
// infinities and NaN. The input's pad lanes hold NaN throughout, so a
// pad lane feeding a live output lane breaks the comparison (the Go
// bodies never read the pad) — and on the all-finite blocks it is
// asserted directly.
func TestVectorContractionsMatchGo(t *testing.T) {
	if !Vector() {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		m := testMatrix()
		if trial%2 == 1 {
			m = randMatrix(rng)
		}
		cols := Columns4(m)
		seeded := trial%4 >= 2
		u := testBlock(rng, seeded)
		for dir := 1; dir <= 3; dir++ {
			want, got := nanBlock(), nanBlock()
			goApply(dir, m, &cols, u, want)
			vecApply(dir, m, &cols, u, got)
			for p := 0; p < BlockLen; p++ {
				if !sameBits(got[p], want[p]) {
					t.Fatalf("trial %d dir %d lane %d: assembly %g (%#08x), Go %g (%#08x)", trial, dir, p,
						got[p], math.Float32bits(got[p]), want[p], math.Float32bits(want[p]))
				}
				if !seeded && got[p] != got[p] {
					t.Fatalf("trial %d dir %d lane %d: NaN from the input's pad lanes reached a live lane", trial, dir, p)
				}
			}
		}
	}
}

// The exported entry points dispatch on the block lengths: anything but
// two PadLen blocks takes the Go body, which touches 125 values only.
func TestVec4DispatchNeedsPaddedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := testMatrix()
	cols := Columns4(m)
	u := testBlock(rng, false)
	for dir := 1; dir <= 3; dir++ {
		want := nanBlock()
		goApply(dir, m, &cols, u, want)
		for _, n := range []int{BlockLen, PadLen} {
			got := nanBlock()[:n]
			switch dir {
			case 1:
				ApplyD1Vec4(m, &cols, u[:n], got)
			case 2:
				ApplyD2Vec4(m, u[:n], got)
			case 3:
				ApplyD3Vec4(m, u[:n], got)
			}
			for p := 0; p < BlockLen; p++ {
				if !sameBits(got[p], want[p]) {
					t.Fatalf("dir %d len %d lane %d: %g, want %g", dir, n, p, got[p], want[p])
				}
			}
		}
	}
}

// The forced-Go switch holds for the test that asked and is undone when
// it finishes.
func TestForceGoRestores(t *testing.T) {
	was := Vector()
	t.Run("forced", func(t *testing.T) {
		ForceGo(t)
		if Vector() {
			t.Fatal("ForceGo left the vector bodies selected")
		}
	})
	if Vector() != was {
		t.Fatalf("Vector() = %v after the forced subtest, was %v", Vector(), was)
	}
}
