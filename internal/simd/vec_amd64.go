package simd

// The 8-lane bodies of the three Vec4 contractions (vec_amd64.s). Each
// issues the multiplies and adds of its Go twin in the same association
// — ((((m0*u0)+(m1*u1))+(m2*u2))+(m3*u3))+(m4*u4), separate VMULPS and
// VADDPS, never a fused multiply-add — so lanes 0..124 of out carry the
// bits the Go body produces. Both blocks must be PadLen long: lanes
// 125..127 of u may be read and lanes 125..127 of out are overwritten
// with values that mean nothing.

//go:noescape
func applyD1AVX2(m *Matrix, cols *[NGLL]Vec4, u, out *[PadLen]float32)

//go:noescape
func applyD2AVX2(m *Matrix, u, out *[PadLen]float32)

//go:noescape
func applyD3AVX2(m *Matrix, u, out *[PadLen]float32)
