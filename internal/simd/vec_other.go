//go:build !amd64

package simd

func detectAVX2() bool { return false }

// The vector bodies exist on amd64 only; useAVX2 is never set here.

func applyD1AVX2(m *Matrix, cols *[NGLL]Vec4, u, out *[PadLen]float32) { panic("simd: no vector body") }
func applyD2AVX2(m *Matrix, u, out *[PadLen]float32)                   { panic("simd: no vector body") }
func applyD3AVX2(m *Matrix, u, out *[PadLen]float32)                   { panic("simd: no vector body") }
