#include "go_asm.h"
#include "textflag.h"

// 8-lane bodies of the point passes (DESIGN.md "Vector kernels"): the
// flat predictor, the fluid and solid tails, the dead-page test and the
// state census. The arithmetic is VMULPS, VADDPS and VSUBPS only —
// never a fused multiply-add — in the association of the Go loops they
// replace (timestep.go, rankstate.go, flush.go), so every lane holds
// the bits the Go loop produces. The flush is ftz's own test on the
// exponent field: a value is kept when its exponent bits are at least
// those of 2^-80 (Inf and NaN included) and replaced by +0 otherwise.
// Each body takes a count that is a non-zero multiple of 8 (points for
// the solid tail, floats for the others); the Go caller checks the
// bounds and finishes the rest.

#define LANES(name, v) \
	DATA name+0(SB)/4, $v; \
	DATA name+4(SB)/4, $v; \
	DATA name+8(SB)/4, $v; \
	DATA name+12(SB)/4, $v; \
	DATA name+16(SB)/4, $v; \
	DATA name+20(SB)/4, $v; \
	DATA name+24(SB)/4, $v; \
	DATA name+28(SB)/4, $v; \
	GLOBL name(SB), RODATA|NOPTR, $32

LANES(expBits<>, 0x7f800000)
LANES(flushBelow<>, (const_flushExp-1))
LANES(absBits<>, 0x7fffffff)

// The VPERMPS index vectors of the xyz (de)interleave. Eight points'
// triples are three vectors r0 r1 r2; blending them lane by lane
// gathers each component's eight values into one vector in the order
// x0 x3 x6 x1 x4 x7 x2 x5 (y5 y0 y3 y6 y1 y4 y7 y2 for y, z2 z5 z0 z3
// z6 z1 z4 z7 for z), which one permute sorts. The x and z permutes are
// their own inverses; y's inverse is permYi.
#define PERM(name, i0, i1, i2, i3, i4, i5, i6, i7) \
	DATA name+0(SB)/4, $i0; \
	DATA name+4(SB)/4, $i1; \
	DATA name+8(SB)/4, $i2; \
	DATA name+12(SB)/4, $i3; \
	DATA name+16(SB)/4, $i4; \
	DATA name+20(SB)/4, $i5; \
	DATA name+24(SB)/4, $i6; \
	DATA name+28(SB)/4, $i7; \
	GLOBL name(SB), RODATA|NOPTR, $32

PERM(permX<>, 0, 3, 6, 1, 4, 7, 2, 5)
PERM(permY<>, 1, 4, 7, 2, 5, 0, 3, 6)
PERM(permYi<>, 5, 0, 3, 6, 1, 4, 7, 2)
PERM(permZ<>, 2, 5, 0, 3, 6, 1, 4, 7)

// FTZ(x, t) flushes x to +0 where its exponent bits are below those of
// 2^-80. Clobbers t.
#define FTZ(x, t) \
	VPAND    expBits<>(SB), x, t; \
	VPCMPGTD flushBelow<>(SB), t, t; \
	VPAND    t, x, x

// DEINT(p, x, y, z) loads the eight xyz triples at (p)(R14*4) and sets
// x, y, z to their components. Clobbers Y13..Y15.
#define DEINT(p, x, y, z) \
	VMOVUPS  (p)(R14*4), Y13; \
	VMOVUPS  32(p)(R14*4), Y14; \
	VMOVUPS  64(p)(R14*4), Y15; \
	VBLENDPS $0x92, Y14, Y13, x; \
	VBLENDPS $0x24, Y15, x, x; \
	VBLENDPS $0x24, Y14, Y13, y; \
	VBLENDPS $0x49, Y15, y, y; \
	VBLENDPS $0x49, Y14, Y13, z; \
	VBLENDPS $0x92, Y15, z, z; \
	VMOVDQU  permX<>(SB), Y13; \
	VPERMPS  x, Y13, x; \
	VMOVDQU  permY<>(SB), Y13; \
	VPERMPS  y, Y13, y; \
	VMOVDQU  permZ<>(SB), Y13; \
	VPERMPS  z, Y13, z

// INTER(x, y, z, p) stores x, y, z as eight xyz triples at
// (p)(R14*4), DEINT's inverse. Clobbers x, y, z and Y13..Y15.
#define INTER(x, y, z, p) \
	VMOVDQU  permX<>(SB), Y13; \
	VPERMPS  x, Y13, x; \
	VMOVDQU  permYi<>(SB), Y13; \
	VPERMPS  y, Y13, y; \
	VMOVDQU  permZ<>(SB), Y13; \
	VPERMPS  z, Y13, z; \
	VBLENDPS $0x92, y, x, Y13; \
	VBLENDPS $0x24, z, Y13, Y13; \
	VBLENDPS $0x24, y, x, Y14; \
	VBLENDPS $0x49, z, Y14, Y14; \
	VBLENDPS $0x49, y, x, Y15; \
	VBLENDPS $0x92, z, Y15, Y15; \
	VMOVUPS  Y13, (p)(R14*4); \
	VMOVUPS  Y14, 32(p)(R14*4); \
	VMOVUPS  Y15, 64(p)(R14*4)

// func predictAVX2(d, v, a *float32, n int, dt, half, halfSq float32)
//
// d = ftz(d + (dt*v + halfSq*a)), v += half*a, a = 0.
TEXT ·predictAVX2(SB), NOSPLIT, $0-44
	MOVQ         d+0(FP), AX
	MOVQ         v+8(FP), BX
	MOVQ         a+16(FP), CX
	MOVQ         n+24(FP), DX
	VBROADCASTSS dt+32(FP), Y10
	VBROADCASTSS half+36(FP), Y11
	VBROADCASTSS halfSq+40(FP), Y12
	VXORPS       Y15, Y15, Y15
	XORQ         SI, SI

predictLoop:
	VMOVUPS (CX)(SI*4), Y0
	VMOVUPS (BX)(SI*4), Y1
	VMULPS  Y1, Y10, Y2
	VMULPS  Y0, Y12, Y3
	VADDPS  Y3, Y2, Y2
	VADDPS  (AX)(SI*4), Y2, Y2
	FTZ(Y2, Y4)
	VMOVUPS Y2, (AX)(SI*4)
	VMULPS  Y0, Y11, Y3
	VADDPS  Y3, Y1, Y1
	VMOVUPS Y1, (BX)(SI*4)
	VMOVUPS Y15, (CX)(SI*4)
	ADDQ    $8, SI
	CMPQ    SI, DX
	JLT     predictLoop
	VZEROUPPER
	RET

// func fluidTailAVX2(dd, dot, m *float32, n int, half float32)
//
// dd = ftz(dd*m), dot += half*dd.
TEXT ·fluidTailAVX2(SB), NOSPLIT, $0-36
	MOVQ         dd+0(FP), AX
	MOVQ         dot+8(FP), BX
	MOVQ         m+16(FP), CX
	MOVQ         n+24(FP), DX
	VBROADCASTSS half+32(FP), Y11
	XORQ         SI, SI

fluidTailLoop:
	VMOVUPS (AX)(SI*4), Y0
	VMULPS  (CX)(SI*4), Y0, Y0
	FTZ(Y0, Y2)
	VMOVUPS Y0, (AX)(SI*4)
	VMULPS  Y0, Y11, Y1
	VADDPS  (BX)(SI*4), Y1, Y1
	VMOVUPS Y1, (BX)(SI*4)
	ADDQ    $8, SI
	CMPQ    SI, DX
	JLT     fluidTailLoop
	VZEROUPPER
	RET

// func solidTailAVX2(p *solidTailArgs)
//
// Eight points per pass, SI the point index and R14 = 3*SI the float
// index of the xyz arrays. Per point, as solidField.tailPoints: mass
// division, Coriolis when twoOmega is not ±0, gravity when d is not
// nil, the flush and store of the acceleration, and the corrector
// v += half*a where the point is not an ocean point (a blend keeps v
// there). Registers: a in Y0..Y2, v in Y3..Y5, and under gravity u in
// Y6..Y8, rhat in Y9..Y11, ur in Y12 and dg*ur in Y13.
TEXT ·solidTailAVX2(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), DI
	MOVQ solidTailArgs_a(DI), AX
	MOVQ solidTailArgs_v(DI), BX
	MOVQ solidTailArgs_m(DI), CX
	MOVQ solidTailArgs_ocean(DI), DX
	MOVQ solidTailArgs_d(DI), R8
	MOVQ solidTailArgs_rhat(DI), R9
	MOVQ solidTailArgs_gOverR(DI), R10
	MOVQ solidTailArgs_dgdr(DI), R11
	MOVQ solidTailArgs_n(DI), R12
	MOVL solidTailArgs_twoOmega(DI), R13
	ANDL $0x7fffffff, R13
	XORQ SI, SI
	XORQ R14, R14

solidTailLoop:
	// Mass division.
	DEINT(AX, Y0, Y1, Y2)
	VMOVUPS (CX)(SI*4), Y3
	VMULPS  Y3, Y0, Y0
	VMULPS  Y3, Y1, Y1
	VMULPS  Y3, Y2, Y2
	DEINT(BX, Y3, Y4, Y5)

	// Coriolis: ax += 2Ω vy, ay -= 2Ω vx.
	TESTL        R13, R13
	JZ           solidTailGravity
	VBROADCASTSS solidTailArgs_twoOmega(DI), Y6
	VMULPS       Y4, Y6, Y7
	VADDPS       Y7, Y0, Y0
	VMULPS       Y3, Y6, Y7
	VSUBPS       Y7, Y1, Y1

solidTailGravity:
	// Gravity: a -= gr (u - ur rhat) + (dg ur) rhat, ur = u·rhat.
	TESTQ  R8, R8
	JZ     solidTailFlush
	DEINT(R8, Y6, Y7, Y8)
	DEINT(R9, Y9, Y10, Y11)
	VMULPS Y9, Y6, Y12
	VMULPS Y10, Y7, Y13
	VADDPS Y13, Y12, Y12
	VMULPS Y11, Y8, Y13
	VADDPS Y13, Y12, Y12
	VMULPS (R11)(SI*4), Y12, Y13
	VMULPS Y9, Y12, Y14
	VSUBPS Y14, Y6, Y14
	VMULPS (R10)(SI*4), Y14, Y14
	VMULPS Y9, Y13, Y15
	VADDPS Y15, Y14, Y14
	VSUBPS Y14, Y0, Y0
	VMULPS Y10, Y12, Y14
	VSUBPS Y14, Y7, Y14
	VMULPS (R10)(SI*4), Y14, Y14
	VMULPS Y10, Y13, Y15
	VADDPS Y15, Y14, Y14
	VSUBPS Y14, Y1, Y1
	VMULPS Y11, Y12, Y14
	VSUBPS Y14, Y8, Y14
	VMULPS (R10)(SI*4), Y14, Y14
	VMULPS Y11, Y13, Y15
	VADDPS Y15, Y14, Y14
	VSUBPS Y14, Y2, Y2

solidTailFlush:
	FTZ(Y0, Y6)
	FTZ(Y1, Y6)
	FTZ(Y2, Y6)

	// Corrector where the ocean mask byte is 0 (Y7 all ones there).
	VBROADCASTSS solidTailArgs_half(DI), Y6
	VPMOVZXBD    (DX)(SI*1), Y7
	VPXOR        Y8, Y8, Y8
	VPCMPEQD     Y8, Y7, Y7
	VMULPS       Y0, Y6, Y8
	VADDPS       Y8, Y3, Y8
	VBLENDVPS    Y7, Y8, Y3, Y3
	VMULPS       Y1, Y6, Y8
	VADDPS       Y8, Y4, Y8
	VBLENDVPS    Y7, Y8, Y4, Y4
	VMULPS       Y2, Y6, Y8
	VADDPS       Y8, Y5, Y8
	VBLENDVPS    Y7, Y8, Y5, Y5

	INTER(Y0, Y1, Y2, AX)
	INTER(Y3, Y4, Y5, BX)
	ADDQ $8, SI
	ADDQ $24, R14
	CMPQ SI, R12
	JLT  solidTailLoop
	VZEROUPPER
	RET

// func zeroBitsAVX2(a *float32, n int) bool
TEXT ·zeroBitsAVX2(SB), NOSPLIT, $0-17
	MOVQ  a+0(FP), AX
	MOVQ  n+8(FP), DX
	VPXOR Y0, Y0, Y0
	XORQ  SI, SI

zeroBitsLoop:
	VPOR  (AX)(SI*4), Y0, Y0
	ADDQ  $8, SI
	CMPQ  SI, DX
	JLT   zeroBitsLoop
	VPTEST Y0, Y0
	SETEQ ret+16(FP)
	VZEROUPPER
	RET

// func censusAVX2(a *float32, n int, lim uint32, out *[16]uint32)
//
// Per lane, over the values of a: out[0:8] the largest magnitude as
// float32 bits (unsigned maximum; a NaN's bits exceed +Inf's) and
// out[8:16] the count of non-zero magnitudes whose bits are below lim.
TEXT ·censusAVX2(SB), NOSPLIT, $0-32
	MOVQ         a+0(FP), AX
	MOVQ         n+8(FP), DX
	MOVL         lim+16(FP), R8
	VMOVD        R8, X11
	VPBROADCASTD X11, Y11
	MOVQ         out+24(FP), DI
	VMOVDQU      absBits<>(SB), Y10
	VPXOR        Y0, Y0, Y0
	VPXOR        Y1, Y1, Y1
	VPXOR        Y12, Y12, Y12
	XORQ         SI, SI

censusLoop:
	VPAND    (AX)(SI*4), Y10, Y2
	VPMAXUD  Y2, Y0, Y0
	VPCMPGTD Y12, Y2, Y3
	VPCMPGTD Y2, Y11, Y4
	VPAND    Y4, Y3, Y3
	VPSUBD   Y3, Y1, Y1
	ADDQ     $8, SI
	CMPQ     SI, DX
	JLT      censusLoop
	VMOVDQU  Y0, (DI)
	VMOVDQU  Y1, 32(DI)
	VZEROUPPER
	RET
