// Package simd provides the small-matrix kernels at the heart of the
// SPECFEM3D_GLOBE internal-force routines, in three variants that mirror
// the options discussed in the paper (section 4.3):
//
//   - naive scalar loops (the "regular Fortran loops" baseline),
//   - manually vectorized 4-wide float32 kernels (the SSE/Altivec port:
//     4 of each 5 values go through the vector unit, the 5th is scalar),
//   - a BLAS-style SGEMM path that first copies cutplanes into aligned
//     scratch, which the paper found to be slower than plain loops.
//
// Go exposes no stdlib intrinsics, so Vec4 is an explicit 4-lane value
// type and the Vec4 kernels are written in Go exactly like the paper's
// load / multiply-add / store sequences. On amd64 hosts with AVX2
// (detected once at start-up by CPUID/XGETBV, no flag or build tag) the
// three Vec4 contractions run hand-written 8-lane assembly bodies
// instead (vec_amd64.s); the Go bodies stay as the fallback for every
// other host and as the oracle the assembly is tested against bit for
// bit — same IEEE multiplies and adds in the same association, no fused
// multiply-add. Vector reports which body runs.
//
// All kernels operate on one spectral element: a (NGLL,NGLL,NGLL) block of
// float32 with i fastest (index i + NGLL*j + NGLL*NGLL*k). Blocks are
// padded from 125 to 128 floats ("we align our 3D blocks of 5x5x5 = 125
// floats on 128 in memory using padding with three dummy values", a
// 2.4% waste) so consecutive elements stay cache-line aligned — and so
// an 8-lane store of the last 5-value row has somewhere to spill. The
// three pad lanes are scratch: no kernel lets a pad lane of an input
// reach lanes 0..124 of an output, and any kernel may overwrite the pad
// lanes of its output with values that mean nothing (they are NOT kept
// at zero).
package simd

// useAVX2 selects the 8-lane assembly bodies of the Vec4 contractions
// (and, through Vector, of the solver's pointwise stages). Set once from
// the CPU at start-up; only tests change it afterwards (ForceGo).
var useAVX2 = detectAVX2()

// Vector reports whether the Vec4 kernels run their 8-lane AVX2 bodies
// on this host (amd64 with AVX2 and OS support for the YMM state) or
// the portable Go bodies.
func Vector() bool { return useAVX2 }

// ForceGo is a test helper: it switches the Vec4 kernels (and everything
// that follows Vector) to the Go bodies until the test and its subtests
// finish. It takes the test so that nothing but a test can call it; the
// tests that use it must not run in parallel with others.
func ForceGo(t interface{ Cleanup(func()) }) {
	was := useAVX2
	useAVX2 = false
	t.Cleanup(func() { useAVX2 = was })
}

// Element block geometry, matching gll.NGLL = 5.
const (
	NGLL     = 5
	BlockLen = NGLL * NGLL * NGLL // 125 useful values per element block
	PadLen   = 128                // padded allocation unit (125 + 3 dummies)
)

// Matrix is the 5x5 derivative (or weighted-transpose-derivative) matrix
// applied along element cutplanes.
type Matrix [NGLL][NGLL]float32

// Vec4 is a 4-lane single-precision vector, the register abstraction for
// the SSE/Altivec kernels.
type Vec4 [4]float32

// Columns4 precomputes, for each column l of m, the vector of its first
// four row entries: Columns4(m)[l] = {m[0][l], m[1][l], m[2][l], m[3][l]}.
// Used by the xi-direction kernel, which accumulates over matrix columns.
func Columns4(m *Matrix) [NGLL]Vec4 {
	var c [NGLL]Vec4
	for l := 0; l < NGLL; l++ {
		c[l] = Vec4{m[0][l], m[1][l], m[2][l], m[3][l]}
	}
	return c
}

// MatrixFromF64 converts a [][]float64 (as produced by package gll) into
// the solver's float32 Matrix.
func MatrixFromF64(h [][]float64) *Matrix {
	var m Matrix
	for i := 0; i < NGLL; i++ {
		for j := 0; j < NGLL; j++ {
			m[i][j] = float32(h[i][j])
		}
	}
	return &m
}

// idx converts (i,j,k) element-local coordinates to the block index.
func idx(i, j, k int) int { return i + NGLL*j + NGLL*NGLL*k }

// --- Scalar (baseline) kernels -----------------------------------------
//
// These are the "regular Fortran loops" of the stable 4.0 code: clean
// rank-ordered loops with an inner contraction over l, no manual
// unrolling or register blocking.

// ApplyD1Scalar computes out[i,j,k] = sum_l m[i][l] * u[l,j,k]: the
// derivative along the first (xi) cutplane direction, plain loops.
func ApplyD1Scalar(m *Matrix, u, out []float32) {
	for k := 0; k < NGLL; k++ {
		for j := 0; j < NGLL; j++ {
			base := NGLL*j + NGLL*NGLL*k
			for i := 0; i < NGLL; i++ {
				s := float32(0)
				for l := 0; l < NGLL; l++ {
					s += m[i][l] * u[base+l]
				}
				out[base+i] = s
			}
		}
	}
}

// ApplyD2Scalar computes out[i,j,k] = sum_l m[j][l] * u[i,l,k]: the
// derivative along the second (eta) cutplane direction.
func ApplyD2Scalar(m *Matrix, u, out []float32) {
	for k := 0; k < NGLL; k++ {
		slab := NGLL * NGLL * k
		for j := 0; j < NGLL; j++ {
			row := slab + NGLL*j
			for i := 0; i < NGLL; i++ {
				s := float32(0)
				for l := 0; l < NGLL; l++ {
					s += m[j][l] * u[slab+NGLL*l+i]
				}
				out[row+i] = s
			}
		}
	}
}

// ApplyD3Scalar computes out[i,j,k] = sum_l m[k][l] * u[i,j,l]: the
// derivative along the third (zeta) cutplane direction.
func ApplyD3Scalar(m *Matrix, u, out []float32) {
	for k := 0; k < NGLL; k++ {
		for j := 0; j < NGLL; j++ {
			row := NGLL*j + NGLL*NGLL*k
			for i := 0; i < NGLL; i++ {
				s := float32(0)
				for l := 0; l < NGLL; l++ {
					s += m[k][l] * u[NGLL*j+NGLL*NGLL*l+i]
				}
				out[row+i] = s
			}
		}
	}
}

// GradScalar computes all three cutplane derivatives of u with the scalar
// kernels. d1, d2, d3 must each have length >= BlockLen.
func GradScalar(m *Matrix, u, d1, d2, d3 []float32) {
	ApplyD1Scalar(m, u, d1)
	ApplyD2Scalar(m, u, d2)
	ApplyD3Scalar(m, u, d3)
}

// --- Vec4 (manual SSE-style) kernels ------------------------------------
//
// ApplyD1Vec4 / ApplyD2Vec4 / ApplyD3Vec4 run the 8-lane assembly body
// when the host has AVX2 and both blocks are exactly PadLen long (the
// vector bodies use the pad lanes as spill space), else the Go body.
// Both produce the same bits in lanes 0..124.

// ApplyD1Vec4 is the vectorized xi-direction kernel; cols must be
// Columns4(m).
func ApplyD1Vec4(m *Matrix, cols *[NGLL]Vec4, u, out []float32) {
	if useAVX2 && len(u) == PadLen && len(out) == PadLen {
		applyD1AVX2(m, cols, (*[PadLen]float32)(u), (*[PadLen]float32)(out))
		return
	}
	applyD1Vec4Go(m, cols, u, out)
}

// ApplyD2Vec4 is the vectorized eta-direction kernel.
func ApplyD2Vec4(m *Matrix, u, out []float32) {
	if useAVX2 && len(u) == PadLen && len(out) == PadLen {
		applyD2AVX2(m, (*[PadLen]float32)(u), (*[PadLen]float32)(out))
		return
	}
	applyD2Vec4Go(m, u, out)
}

// ApplyD3Vec4 is the vectorized zeta-direction kernel.
func ApplyD3Vec4(m *Matrix, u, out []float32) {
	if useAVX2 && len(u) == PadLen && len(out) == PadLen {
		applyD3AVX2(m, (*[PadLen]float32)(u), (*[PadLen]float32)(out))
		return
	}
	applyD3Vec4Go(m, u, out)
}

// applyD1Vec4Go is the Go body of the xi-direction kernel. For each of the 25
// contiguous 5-value segments it computes the first four outputs in
// explicit vector lanes (accumulating columns of m against broadcast
// inputs with load / multiply-add / store sequences) and the fifth
// serially, exactly the 4-plus-1 split of the paper. The four lanes are
// kept in distinct local accumulators so they stay register-resident,
// which is what the hand-written SSE code achieves with xmm registers.
func applyD1Vec4Go(m *Matrix, cols *[NGLL]Vec4, u, out []float32) {
	c0, c1, c2, c3, c4 := cols[0], cols[1], cols[2], cols[3], cols[4]
	m40, m41, m42, m43, m44 := m[4][0], m[4][1], m[4][2], m[4][3], m[4][4]
	for seg := 0; seg < NGLL*NGLL; seg++ {
		base := seg * NGLL
		u0, u1, u2, u3, u4 := u[base], u[base+1], u[base+2], u[base+3], u[base+4]
		// Four lanes: acc = c0*u0 + c1*u1 + c2*u2 + c3*u3 + c4*u4.
		a0 := c0[0]*u0 + c1[0]*u1 + c2[0]*u2 + c3[0]*u3 + c4[0]*u4
		a1 := c0[1]*u0 + c1[1]*u1 + c2[1]*u2 + c3[1]*u3 + c4[1]*u4
		a2 := c0[2]*u0 + c1[2]*u1 + c2[2]*u2 + c3[2]*u3 + c4[2]*u4
		a3 := c0[3]*u0 + c1[3]*u1 + c2[3]*u2 + c3[3]*u3 + c4[3]*u4
		out[base], out[base+1], out[base+2], out[base+3] = a0, a1, a2, a3
		// Fifth value computed serially in regular code.
		out[base+4] = m40*u0 + m41*u1 + m42*u2 + m43*u3 + m44*u4
	}
}

// applyD2Vec4Go is the Go body of the eta-direction kernel: inputs at
// fixed l are contiguous in i, so lanes run over i (4 vector + 1 scalar).
func applyD2Vec4Go(m *Matrix, u, out []float32) {
	for k := 0; k < NGLL; k++ {
		slab := NGLL * NGLL * k
		o0, o1, o2, o3, o4 := slab, slab+NGLL, slab+2*NGLL, slab+3*NGLL, slab+4*NGLL
		for j := 0; j < NGLL; j++ {
			row := slab + NGLL*j
			h0, h1, h2, h3, h4 := m[j][0], m[j][1], m[j][2], m[j][3], m[j][4]
			a0 := h0*u[o0] + h1*u[o1] + h2*u[o2] + h3*u[o3] + h4*u[o4]
			a1 := h0*u[o0+1] + h1*u[o1+1] + h2*u[o2+1] + h3*u[o3+1] + h4*u[o4+1]
			a2 := h0*u[o0+2] + h1*u[o1+2] + h2*u[o2+2] + h3*u[o3+2] + h4*u[o4+2]
			a3 := h0*u[o0+3] + h1*u[o1+3] + h2*u[o2+3] + h3*u[o3+3] + h4*u[o4+3]
			out[row], out[row+1], out[row+2], out[row+3] = a0, a1, a2, a3
			out[row+4] = h0*u[o0+4] + h1*u[o1+4] + h2*u[o2+4] + h3*u[o3+4] + h4*u[o4+4]
		}
	}
}

// applyD3Vec4Go is the Go body of the zeta-direction kernel, same lane
// layout as applyD2Vec4Go but striding whole k-slabs.
func applyD3Vec4Go(m *Matrix, u, out []float32) {
	const slab = NGLL * NGLL
	for j := 0; j < NGLL; j++ {
		base := NGLL * j
		o0, o1, o2, o3, o4 := base, base+slab, base+2*slab, base+3*slab, base+4*slab
		for k := 0; k < NGLL; k++ {
			row := base + slab*k
			h0, h1, h2, h3, h4 := m[k][0], m[k][1], m[k][2], m[k][3], m[k][4]
			a0 := h0*u[o0] + h1*u[o1] + h2*u[o2] + h3*u[o3] + h4*u[o4]
			a1 := h0*u[o0+1] + h1*u[o1+1] + h2*u[o2+1] + h3*u[o3+1] + h4*u[o4+1]
			a2 := h0*u[o0+2] + h1*u[o1+2] + h2*u[o2+2] + h3*u[o3+2] + h4*u[o4+2]
			a3 := h0*u[o0+3] + h1*u[o1+3] + h2*u[o2+3] + h3*u[o3+3] + h4*u[o4+3]
			out[row], out[row+1], out[row+2], out[row+3] = a0, a1, a2, a3
			out[row+4] = h0*u[o0+4] + h1*u[o1+4] + h2*u[o2+4] + h3*u[o3+4] + h4*u[o4+4]
		}
	}
}

// GradVec4 computes all three cutplane derivatives with the vector
// kernels. cols must be Columns4(m).
func GradVec4(m *Matrix, cols *[NGLL]Vec4, u, d1, d2, d3 []float32) {
	ApplyD1Vec4(m, cols, u, d1)
	ApplyD2Vec4(m, u, d2)
	ApplyD3Vec4(m, u, d3)
}

// --- BLAS-style path (what the paper rejected) ---------------------------

// Sgemm is the signature of a BLAS-3 style single-precision matrix
// multiply C = A(5x5) * B(5x25). The solver calls it through a function
// value to model the call overhead of an external BLAS library.
type Sgemm func(a *Matrix, b, c []float32)

// SgemmRef is the "vendor BLAS" stand-in: a general GEMM entry point with
// the argument validation and shape dispatch a real library performs on
// every call. For 5x5 matrices this per-call overhead is exactly why the
// paper found BLAS slower than plain loops ("the matrices are very small
// (5 x 5) and therefore the overhead of the BLAS routine is higher than
// what we can hope to gain").
func SgemmRef(a *Matrix, b, c []float32) {
	// Argument validation, as in the reference BLAS XERBLA checks.
	const m, n, k = NGLL, NGLL * NGLL, NGLL
	if a == nil || len(b) < k*n || len(c) < m*n {
		panic("simd: sgemm dimension error")
	}
	// Generic rank-ordered GEMM loop nest (no 5x5 specialization: a
	// vendor GEMM picks blocked paths tuned for large matrices and
	// falls back to a generic kernel at this size).
	for col := 0; col < n; col++ {
		off := col * k
		for i := 0; i < m; i++ {
			var s float32
			for l := 0; l < k; l++ {
				s += a[i][l] * b[off+l]
			}
			c[col*m+i] = s
		}
	}
}

// ApplyDBlas applies the matrix along one direction through the SGEMM
// entry point, with the gather/scatter copies the non-unit-stride
// directions require (dir 2 and 3). Used by the solver's BLAS kernel
// variant for the transpose-accumulation stage.
func ApplyDBlas(dir int, sgemm Sgemm, m *Matrix, u, out, scratchIn, scratchOut []float32) {
	switch dir {
	case 1:
		sgemm(m, u, out)
	case 2:
		for k := 0; k < NGLL; k++ {
			for i := 0; i < NGLL; i++ {
				col := (i + NGLL*k) * NGLL
				for l := 0; l < NGLL; l++ {
					scratchIn[col+l] = u[idx(i, l, k)]
				}
			}
		}
		sgemm(m, scratchIn, scratchOut)
		for k := 0; k < NGLL; k++ {
			for i := 0; i < NGLL; i++ {
				col := (i + NGLL*k) * NGLL
				for j := 0; j < NGLL; j++ {
					out[idx(i, j, k)] = scratchOut[col+j]
				}
			}
		}
	case 3:
		for j := 0; j < NGLL; j++ {
			for i := 0; i < NGLL; i++ {
				col := (i + NGLL*j) * NGLL
				for l := 0; l < NGLL; l++ {
					scratchIn[col+l] = u[idx(i, j, l)]
				}
			}
		}
		sgemm(m, scratchIn, scratchOut)
		for j := 0; j < NGLL; j++ {
			for i := 0; i < NGLL; i++ {
				col := (i + NGLL*j) * NGLL
				for k := 0; k < NGLL; k++ {
					out[idx(i, j, k)] = scratchOut[col+k]
				}
			}
		}
	default:
		panic("simd: ApplyDBlas direction must be 1, 2 or 3")
	}
}

// GradBlas computes the three cutplane derivatives by copying the eta and
// zeta cutplanes into aligned 2D scratch, calling the SGEMM, and copying
// back — the memory-copy penalty the paper identifies ("this would be
// more expensive than any potential gain from the BLAS routine").
// scratchIn and scratchOut must each have length >= BlockLen.
func GradBlas(sgemm Sgemm, m *Matrix, u, d1, d2, d3, scratchIn, scratchOut []float32) {
	// xi direction is already linearly aligned: direct SGEMM.
	sgemm(m, u, d1)

	// eta direction: gather u[i,l,k] into columns indexed by (i,k).
	for k := 0; k < NGLL; k++ {
		for i := 0; i < NGLL; i++ {
			col := (i + NGLL*k) * NGLL
			for l := 0; l < NGLL; l++ {
				scratchIn[col+l] = u[idx(i, l, k)]
			}
		}
	}
	sgemm(m, scratchIn, scratchOut)
	for k := 0; k < NGLL; k++ {
		for i := 0; i < NGLL; i++ {
			col := (i + NGLL*k) * NGLL
			for j := 0; j < NGLL; j++ {
				d2[idx(i, j, k)] = scratchOut[col+j]
			}
		}
	}

	// zeta direction: gather u[i,j,l] into columns indexed by (i,j).
	for j := 0; j < NGLL; j++ {
		for i := 0; i < NGLL; i++ {
			col := (i + NGLL*j) * NGLL
			for l := 0; l < NGLL; l++ {
				scratchIn[col+l] = u[idx(i, j, l)]
			}
		}
	}
	sgemm(m, scratchIn, scratchOut)
	for j := 0; j < NGLL; j++ {
		for i := 0; i < NGLL; i++ {
			col := (i + NGLL*j) * NGLL
			for k := 0; k < NGLL; k++ {
				d3[idx(i, j, k)] = scratchOut[col+k]
			}
		}
	}
}
