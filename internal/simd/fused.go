package simd

// Fused element kernels: a single-sweep formulation of the cutplane
// contractions, kept as a micro-benchmark — internal/bench times it per
// block beside scalar, vec4 and BLAS; the solver does not call it. The
// three per-direction derivative applications of the other variants
// each stream the whole 128-float block — the element is traversed
// three times for the gradient and three more times for the
// weighted-transpose accumulation, and the 5x5 matrix is reloaded per
// apply. The fused kernels restructure the contraction for locality and
// instruction-level parallelism, the register-blocked small-tensor
// style of Breuer & Heinecke for exactly this element-local SEM shape:
//
//   - ApplyDGradBatch / GradFused compute all three cutplane
//     derivatives in ONE traversal of the input block: the 25 values of
//     the current k-cutplane are loaded into locals once and feed the
//     xi contraction (row-wise), the eta contraction (column-wise,
//     cutplane-local) and the running zeta accumulation (the zeta sum
//     over cutplanes is accumulated in ascending-l order, so every
//     derivative matches the scalar kernels' summation order bit for
//     bit). The 25 matrix entries are hoisted into locals once per
//     PANEL, not per apply — the batch entry processes E padded blocks
//     back-to-back with the hot matrix resident.
//
//   - GradTWeightedFused fuses the three weighted-transpose
//     applications WITH the GLL weight application: instead of
//     materializing three t blocks and combining them pointwise at
//     scatter time (fac1*t1 + fac2*t2 + fac3*t3), it streams each
//     flux block once and accumulates the weighted sum directly into a
//     single output block. A scatter then reads one block per
//     component instead of three.
//
// The pointwise arithmetic is the same multiply-add sequence as the
// other variants; only where intermediate values round through memory
// differs, so the fused variant agrees with scalar/vec4/BLAS to
// accumulated float32 roundoff.

// GradFused computes all three cutplane derivatives of one padded
// element block in a single traversal (see the package comment above).
// It is ApplyDGradBatch with a panel of one.
func GradFused(m *Matrix, u, d1, d2, d3 []float32) {
	ApplyDGradBatch(m, u, d1, d2, d3, 1)
}

// ApplyDGradBatch computes the three cutplane derivatives of a panel of
// n padded element blocks laid out back-to-back (block e occupies
// [e*PadLen, e*PadLen+BlockLen)). The 5x5 matrix is loaded into locals
// once for the whole panel; within each block every input cutplane is
// loaded exactly once and feeds all three contractions.
func ApplyDGradBatch(m *Matrix, u, d1, d2, d3 []float32, n int) {
	m00, m01, m02, m03, m04 := m[0][0], m[0][1], m[0][2], m[0][3], m[0][4]
	m10, m11, m12, m13, m14 := m[1][0], m[1][1], m[1][2], m[1][3], m[1][4]
	m20, m21, m22, m23, m24 := m[2][0], m[2][1], m[2][2], m[2][3], m[2][4]
	m30, m31, m32, m33, m34 := m[3][0], m[3][1], m[3][2], m[3][3], m[3][4]
	m40, m41, m42, m43, m44 := m[4][0], m[4][1], m[4][2], m[4][3], m[4][4]

	const cut = NGLL * NGLL // one k-cutplane: 25 values
	for e := 0; e < n; e++ {
		base := e * PadLen
		u0s := u[base : base+cut : base+cut]
		u1s := u[base+cut : base+2*cut : base+2*cut]
		u2s := u[base+2*cut : base+3*cut : base+3*cut]
		u3s := u[base+3*cut : base+4*cut : base+4*cut]
		u4s := u[base+4*cut : base+5*cut : base+5*cut]
		for k := 0; k < NGLL; k++ {
			off := base + cut*k
			us := u[off : off+cut : off+cut]
			u00, u01, u02, u03, u04 := us[0], us[1], us[2], us[3], us[4]
			u10, u11, u12, u13, u14 := us[5], us[6], us[7], us[8], us[9]
			u20, u21, u22, u23, u24 := us[10], us[11], us[12], us[13], us[14]
			u30, u31, u32, u33, u34 := us[15], us[16], us[17], us[18], us[19]
			u40, u41, u42, u43, u44 := us[20], us[21], us[22], us[23], us[24]

			// xi: out[i,j,k] = sum_l m[i][l] * u[l,j,k] — row-wise over
			// the cutplane, summation in ascending l like the scalar
			// kernel.
			o1 := d1[off : off+cut : off+cut]
			o1[0] = m00*u00 + m01*u01 + m02*u02 + m03*u03 + m04*u04
			o1[1] = m10*u00 + m11*u01 + m12*u02 + m13*u03 + m14*u04
			o1[2] = m20*u00 + m21*u01 + m22*u02 + m23*u03 + m24*u04
			o1[3] = m30*u00 + m31*u01 + m32*u02 + m33*u03 + m34*u04
			o1[4] = m40*u00 + m41*u01 + m42*u02 + m43*u03 + m44*u04
			o1[5] = m00*u10 + m01*u11 + m02*u12 + m03*u13 + m04*u14
			o1[6] = m10*u10 + m11*u11 + m12*u12 + m13*u13 + m14*u14
			o1[7] = m20*u10 + m21*u11 + m22*u12 + m23*u13 + m24*u14
			o1[8] = m30*u10 + m31*u11 + m32*u12 + m33*u13 + m34*u14
			o1[9] = m40*u10 + m41*u11 + m42*u12 + m43*u13 + m44*u14
			o1[10] = m00*u20 + m01*u21 + m02*u22 + m03*u23 + m04*u24
			o1[11] = m10*u20 + m11*u21 + m12*u22 + m13*u23 + m14*u24
			o1[12] = m20*u20 + m21*u21 + m22*u22 + m23*u23 + m24*u24
			o1[13] = m30*u20 + m31*u21 + m32*u22 + m33*u23 + m34*u24
			o1[14] = m40*u20 + m41*u21 + m42*u22 + m43*u23 + m44*u24
			o1[15] = m00*u30 + m01*u31 + m02*u32 + m03*u33 + m04*u34
			o1[16] = m10*u30 + m11*u31 + m12*u32 + m13*u33 + m14*u34
			o1[17] = m20*u30 + m21*u31 + m22*u32 + m23*u33 + m24*u34
			o1[18] = m30*u30 + m31*u31 + m32*u32 + m33*u33 + m34*u34
			o1[19] = m40*u30 + m41*u31 + m42*u32 + m43*u33 + m44*u34
			o1[20] = m00*u40 + m01*u41 + m02*u42 + m03*u43 + m04*u44
			o1[21] = m10*u40 + m11*u41 + m12*u42 + m13*u43 + m14*u44
			o1[22] = m20*u40 + m21*u41 + m22*u42 + m23*u43 + m24*u44
			o1[23] = m30*u40 + m31*u41 + m32*u42 + m33*u43 + m34*u44
			o1[24] = m40*u40 + m41*u41 + m42*u42 + m43*u43 + m44*u44

			// eta: out[i,j,k] = sum_l m[j][l] * u[i,l,k] — cutplane-
			// local, column i of the loaded plane against matrix row j.
			o2 := d2[off : off+cut : off+cut]
			o2[0] = m00*u00 + m01*u10 + m02*u20 + m03*u30 + m04*u40
			o2[1] = m00*u01 + m01*u11 + m02*u21 + m03*u31 + m04*u41
			o2[2] = m00*u02 + m01*u12 + m02*u22 + m03*u32 + m04*u42
			o2[3] = m00*u03 + m01*u13 + m02*u23 + m03*u33 + m04*u43
			o2[4] = m00*u04 + m01*u14 + m02*u24 + m03*u34 + m04*u44
			o2[5] = m10*u00 + m11*u10 + m12*u20 + m13*u30 + m14*u40
			o2[6] = m10*u01 + m11*u11 + m12*u21 + m13*u31 + m14*u41
			o2[7] = m10*u02 + m11*u12 + m12*u22 + m13*u32 + m14*u42
			o2[8] = m10*u03 + m11*u13 + m12*u23 + m13*u33 + m14*u43
			o2[9] = m10*u04 + m11*u14 + m12*u24 + m13*u34 + m14*u44
			o2[10] = m20*u00 + m21*u10 + m22*u20 + m23*u30 + m24*u40
			o2[11] = m20*u01 + m21*u11 + m22*u21 + m23*u31 + m24*u41
			o2[12] = m20*u02 + m21*u12 + m22*u22 + m23*u32 + m24*u42
			o2[13] = m20*u03 + m21*u13 + m22*u23 + m23*u33 + m24*u43
			o2[14] = m20*u04 + m21*u14 + m22*u24 + m23*u34 + m24*u44
			o2[15] = m30*u00 + m31*u10 + m32*u20 + m33*u30 + m34*u40
			o2[16] = m30*u01 + m31*u11 + m32*u21 + m33*u31 + m34*u41
			o2[17] = m30*u02 + m31*u12 + m32*u22 + m33*u32 + m34*u42
			o2[18] = m30*u03 + m31*u13 + m32*u23 + m33*u33 + m34*u43
			o2[19] = m30*u04 + m31*u14 + m32*u24 + m33*u34 + m34*u44
			o2[20] = m40*u00 + m41*u10 + m42*u20 + m43*u30 + m44*u40
			o2[21] = m40*u01 + m41*u11 + m42*u21 + m43*u31 + m44*u41
			o2[22] = m40*u02 + m41*u12 + m42*u22 + m43*u32 + m44*u42
			o2[23] = m40*u03 + m41*u13 + m42*u23 + m43*u33 + m44*u43
			o2[24] = m40*u04 + m41*u14 + m42*u24 + m43*u34 + m44*u44

			// zeta: out[i,j,k] = sum_l m[k][l] * u[i,j,l] — this output
			// cutplane mixes all five input cutplanes, so its operands
			// are read from the (L1-hot) block rather than accumulated
			// through memory, which would cost a read-modify-write of
			// every output cutplane per input cutplane. Ascending-l sum
			// order matches the scalar kernel.
			h0, h1, h2, h3, h4 := m[k][0], m[k][1], m[k][2], m[k][3], m[k][4]
			o3 := d3[off : off+cut : off+cut]
			for p := 0; p < cut; p++ {
				o3[p] = h0*u0s[p] + h1*u1s[p] + h2*u2s[p] + h3*u3s[p] + h4*u4s[p]
			}
		}
	}
}

// GradTWeightedFused is the fused force-accumulation stage: it applies
// the (weighted-transpose) matrix m along each direction to the three
// flux blocks s1, s2, s3 and accumulates the GLL-weighted combination
//
//	out[p] = f1[p]*(D^T s1)[p] + f2[p]*(D^T s2)[p] + f3[p]*(D^T s3)[p]
//
// in a single output block, streaming each flux block exactly once.
// The weighted sum uses the same association as the other variants'
// scatter expression (fac1*t1 + fac2*t2 + fac3*t3), so the result
// agrees to the rounding of the memory-staged intermediates.
// It is GradTWeightedFusedBatch with a panel of one.
func GradTWeightedFused(m *Matrix, s1, s2, s3, f1, f2, f3, out []float32) {
	GradTWeightedFusedBatch(m, s1, s2, s3, f1, f2, f3, out, 1)
}

// GradTWeightedFusedBatch applies the fused weighted-transpose
// accumulation to a panel of n padded blocks laid out back-to-back
// (block e of s1/s2/s3/out occupies [e*PadLen, e*PadLen+BlockLen)); the
// per-point weight blocks f1/f2/f3 are shared by every block of the
// panel — they depend only on the GLL weights, not the element or the
// wavefield. The 25 matrix entries are hoisted into locals once for the
// whole panel, and blocks are fully independent, so a block's result is
// bit-identical at every panel width — this is how the ensemble solver
// sweeps S wavefields' flux blocks through one element's static data.
func GradTWeightedFusedBatch(m *Matrix, s1, s2, s3, f1, f2, f3, out []float32, n int) {
	m00, m01, m02, m03, m04 := m[0][0], m[0][1], m[0][2], m[0][3], m[0][4]
	m10, m11, m12, m13, m14 := m[1][0], m[1][1], m[1][2], m[1][3], m[1][4]
	m20, m21, m22, m23, m24 := m[2][0], m[2][1], m[2][2], m[2][3], m[2][4]
	m30, m31, m32, m33, m34 := m[3][0], m[3][1], m[3][2], m[3][3], m[3][4]
	m40, m41, m42, m43, m44 := m[4][0], m[4][1], m[4][2], m[4][3], m[4][4]

	for e := 0; e < n; e++ {
		bb := e * PadLen
		gradTWeightedBlock(m, s1[bb:], s2[bb:], s3[bb:], f1, f2, f3, out[bb:],
			m00, m01, m02, m03, m04,
			m10, m11, m12, m13, m14,
			m20, m21, m22, m23, m24,
			m30, m31, m32, m33, m34,
			m40, m41, m42, m43, m44)
	}
}

// gradTWeightedBlock is the per-block body of GradTWeightedFusedBatch
// (the hoisted matrix entries arrive as arguments so the batch loop
// keeps them register-resident across blocks).
func gradTWeightedBlock(m *Matrix, s1, s2, s3, f1, f2, f3, out []float32,
	m00, m01, m02, m03, m04,
	m10, m11, m12, m13, m14,
	m20, m21, m22, m23, m24,
	m30, m31, m32, m33, m34,
	m40, m41, m42, m43, m44 float32) {

	// xi + eta terms in one pass: both are cutplane-local, so with the
	// s1 and s2 cutplanes loaded into locals the output block is
	// written once with f1*(D^T s1) + f2*(D^T s2) — no read-modify-
	// write round of out between the two directions. a(j,i) is the s1
	// cutplane, b(j,i) the s2 cutplane; out[5j+i] takes matrix row i
	// against segment j of a, and matrix row j against column i of b.
	const cut = NGLL * NGLL
	for k := 0; k < NGLL; k++ {
		off := cut * k
		as := s1[off : off+cut : off+cut]
		a00, a01, a02, a03, a04 := as[0], as[1], as[2], as[3], as[4]
		a10, a11, a12, a13, a14 := as[5], as[6], as[7], as[8], as[9]
		a20, a21, a22, a23, a24 := as[10], as[11], as[12], as[13], as[14]
		a30, a31, a32, a33, a34 := as[15], as[16], as[17], as[18], as[19]
		a40, a41, a42, a43, a44 := as[20], as[21], as[22], as[23], as[24]
		bs := s2[off : off+cut : off+cut]
		b00, b01, b02, b03, b04 := bs[0], bs[1], bs[2], bs[3], bs[4]
		b10, b11, b12, b13, b14 := bs[5], bs[6], bs[7], bs[8], bs[9]
		b20, b21, b22, b23, b24 := bs[10], bs[11], bs[12], bs[13], bs[14]
		b30, b31, b32, b33, b34 := bs[15], bs[16], bs[17], bs[18], bs[19]
		b40, b41, b42, b43, b44 := bs[20], bs[21], bs[22], bs[23], bs[24]

		out[off+0] = f1[off+0]*(m00*a00+m01*a01+m02*a02+m03*a03+m04*a04) + f2[off+0]*(m00*b00+m01*b10+m02*b20+m03*b30+m04*b40)
		out[off+1] = f1[off+1]*(m10*a00+m11*a01+m12*a02+m13*a03+m14*a04) + f2[off+1]*(m00*b01+m01*b11+m02*b21+m03*b31+m04*b41)
		out[off+2] = f1[off+2]*(m20*a00+m21*a01+m22*a02+m23*a03+m24*a04) + f2[off+2]*(m00*b02+m01*b12+m02*b22+m03*b32+m04*b42)
		out[off+3] = f1[off+3]*(m30*a00+m31*a01+m32*a02+m33*a03+m34*a04) + f2[off+3]*(m00*b03+m01*b13+m02*b23+m03*b33+m04*b43)
		out[off+4] = f1[off+4]*(m40*a00+m41*a01+m42*a02+m43*a03+m44*a04) + f2[off+4]*(m00*b04+m01*b14+m02*b24+m03*b34+m04*b44)
		out[off+5] = f1[off+5]*(m00*a10+m01*a11+m02*a12+m03*a13+m04*a14) + f2[off+5]*(m10*b00+m11*b10+m12*b20+m13*b30+m14*b40)
		out[off+6] = f1[off+6]*(m10*a10+m11*a11+m12*a12+m13*a13+m14*a14) + f2[off+6]*(m10*b01+m11*b11+m12*b21+m13*b31+m14*b41)
		out[off+7] = f1[off+7]*(m20*a10+m21*a11+m22*a12+m23*a13+m24*a14) + f2[off+7]*(m10*b02+m11*b12+m12*b22+m13*b32+m14*b42)
		out[off+8] = f1[off+8]*(m30*a10+m31*a11+m32*a12+m33*a13+m34*a14) + f2[off+8]*(m10*b03+m11*b13+m12*b23+m13*b33+m14*b43)
		out[off+9] = f1[off+9]*(m40*a10+m41*a11+m42*a12+m43*a13+m44*a14) + f2[off+9]*(m10*b04+m11*b14+m12*b24+m13*b34+m14*b44)
		out[off+10] = f1[off+10]*(m00*a20+m01*a21+m02*a22+m03*a23+m04*a24) + f2[off+10]*(m20*b00+m21*b10+m22*b20+m23*b30+m24*b40)
		out[off+11] = f1[off+11]*(m10*a20+m11*a21+m12*a22+m13*a23+m14*a24) + f2[off+11]*(m20*b01+m21*b11+m22*b21+m23*b31+m24*b41)
		out[off+12] = f1[off+12]*(m20*a20+m21*a21+m22*a22+m23*a23+m24*a24) + f2[off+12]*(m20*b02+m21*b12+m22*b22+m23*b32+m24*b42)
		out[off+13] = f1[off+13]*(m30*a20+m31*a21+m32*a22+m33*a23+m34*a24) + f2[off+13]*(m20*b03+m21*b13+m22*b23+m23*b33+m24*b43)
		out[off+14] = f1[off+14]*(m40*a20+m41*a21+m42*a22+m43*a23+m44*a24) + f2[off+14]*(m20*b04+m21*b14+m22*b24+m23*b34+m24*b44)
		out[off+15] = f1[off+15]*(m00*a30+m01*a31+m02*a32+m03*a33+m04*a34) + f2[off+15]*(m30*b00+m31*b10+m32*b20+m33*b30+m34*b40)
		out[off+16] = f1[off+16]*(m10*a30+m11*a31+m12*a32+m13*a33+m14*a34) + f2[off+16]*(m30*b01+m31*b11+m32*b21+m33*b31+m34*b41)
		out[off+17] = f1[off+17]*(m20*a30+m21*a31+m22*a32+m23*a33+m24*a34) + f2[off+17]*(m30*b02+m31*b12+m32*b22+m33*b32+m34*b42)
		out[off+18] = f1[off+18]*(m30*a30+m31*a31+m32*a32+m33*a33+m34*a34) + f2[off+18]*(m30*b03+m31*b13+m32*b23+m33*b33+m34*b43)
		out[off+19] = f1[off+19]*(m40*a30+m41*a31+m42*a32+m43*a33+m44*a34) + f2[off+19]*(m30*b04+m31*b14+m32*b24+m33*b34+m34*b44)
		out[off+20] = f1[off+20]*(m00*a40+m01*a41+m02*a42+m03*a43+m04*a44) + f2[off+20]*(m40*b00+m41*b10+m42*b20+m43*b30+m44*b40)
		out[off+21] = f1[off+21]*(m10*a40+m11*a41+m12*a42+m13*a43+m14*a44) + f2[off+21]*(m40*b01+m41*b11+m42*b21+m43*b31+m44*b41)
		out[off+22] = f1[off+22]*(m20*a40+m21*a41+m22*a42+m23*a43+m24*a44) + f2[off+22]*(m40*b02+m41*b12+m42*b22+m43*b32+m44*b42)
		out[off+23] = f1[off+23]*(m30*a40+m31*a41+m32*a42+m33*a43+m34*a44) + f2[off+23]*(m40*b03+m41*b13+m42*b23+m43*b33+m44*b43)
		out[off+24] = f1[off+24]*(m40*a40+m41*a41+m42*a42+m43*a43+m44*a44) + f2[off+24]*(m40*b04+m41*b14+m42*b24+m43*b34+m44*b44)
	}

	// zeta term: out += f3 * (sum_l m[k][l] s3[i,j,l]).
	const slab = NGLL * NGLL
	for j := 0; j < NGLL; j++ {
		base := NGLL * j
		o0, o1, o2, o3, o4 := base, base+slab, base+2*slab, base+3*slab, base+4*slab
		for k := 0; k < NGLL; k++ {
			row := base + slab*k
			h0, h1, h2, h3, h4 := m[k][0], m[k][1], m[k][2], m[k][3], m[k][4]
			out[row] += f3[row] * (h0*s3[o0] + h1*s3[o1] + h2*s3[o2] + h3*s3[o3] + h4*s3[o4])
			out[row+1] += f3[row+1] * (h0*s3[o0+1] + h1*s3[o1+1] + h2*s3[o2+1] + h3*s3[o3+1] + h4*s3[o4+1])
			out[row+2] += f3[row+2] * (h0*s3[o0+2] + h1*s3[o1+2] + h2*s3[o2+2] + h3*s3[o3+2] + h4*s3[o4+2])
			out[row+3] += f3[row+3] * (h0*s3[o0+3] + h1*s3[o1+3] + h2*s3[o2+3] + h3*s3[o3+3] + h4*s3[o4+3])
			out[row+4] += f3[row+4] * (h0*s3[o0+4] + h1*s3[o1+4] + h2*s3[o2+4] + h3*s3[o3+4] + h4*s3[o4+4])
		}
	}
}
