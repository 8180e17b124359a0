#include "go_asm.h"
#include "textflag.h"

// 8-lane bodies of the pointwise stress/attenuation stage and of the
// fluid pointwise stage (DESIGN.md "Vector kernels"). VMULPS, VADDPS,
// VSUBPS and VDIVPS only — never a fused multiply-add — in the
// association of stressStageGo / fluidStageGo, so every live lane holds
// the bits the Go body produces.
//
// Both walk the 125 points of one element 8 at a time with SI the point
// index. The nine metric pointers live in
//
//	AX xix  BX xiy  CX xiz   DX etx  R8 ety  R9 etz   R10 gmx  R11 gmy  R12 gmz
//
// for the whole call and feed the arithmetic as memory operands; DI is
// the argument block; R13..R15 are reloaded per phase. The 16th vector
// (points 120..127) must not read floats 125..127 of the 125-strided
// element-static arrays: before it runs, the five live floats of each
// static array are copied with a masked load into a zero-padded frame
// slot and the array's pointer is redirected there (TAILCOPY), so the
// loop body is the same code for all 16 vectors. The rows of the
// memory-variable slab are 125-strided too and are written, so the 16th
// vector uses masked loads and stores on them directly (ATTM).

// Frame layout, hardware-SP relative.
#define DEV(c) (32*c)(SP)        // 6 deviatoric strain vectors
#define MUV 192(SP)              // mu of the current 8 points
#define TAIL(i) (224+32*i)(SP)   // 12 zero-padded tails of the static arrays
#define PJAC 608(SP)             // pointers to jac, mu|rho, kappa
#define PMU 616(SP)
#define PKAP 624(SP)

// TAILMASK sets y to the mask of the five live lanes of the 16th vector.
#define TAILMASK(x, y) \
	VPCMPEQD x, x, x; \
	VPSRLDQ $12, x, X0; \
	VINSERTF128 $1, X0, y, y

// TAILCOPY(p, i) copies floats 120..124 of the array at p into tail
// slot i and points p at the slot, biased so (p)(SI*4) with SI = 120
// addresses it. Y15 holds the tail mask.
#define TAILCOPY(p, i) \
	VMASKMOVPS 480(p), Y15, Y0; \
	VMOVUPS Y0, TAIL(i); \
	LEAQ TAIL(i), p; \
	SUBQ $480, p

// TAILCOPYM is TAILCOPY for a pointer kept in frame slot m.
#define TAILCOPYM(m, i) \
	MOVQ m, R13; \
	TAILCOPY(R13, i); \
	MOVQ R13, m

// DERIV(a, b, c, d) sets d = ((a*Y0) + (b*Y1)) + (c*Y2) with a, b, c
// metric pointers at the current points. Clobbers Y4.
#define DERIV(a, b, c, d) \
	VMULPS (a)(SI*4), Y0, d; \
	VMULPS (b)(SI*4), Y1, Y4; \
	VADDPS Y4, d, d; \
	VMULPS (c)(SI*4), Y2, Y4; \
	VADDPS Y4, d, d

// FLUX(x, y, z, a, b, c, o, d) stores Y0*(((x*a) + (y*b)) + (z*c)) at
// byte offset o of block pointer d, with a, b, c metric pointers.
// Clobbers Y1, Y3.
#define FLUX(x, y, z, a, b, c, o, d) \
	VMULPS (a)(SI*4), x, Y1; \
	VMULPS (b)(SI*4), y, Y3; \
	VADDPS Y3, Y1, Y1; \
	VMULPS (c)(SI*4), z, Y3; \
	VADDPS Y3, Y1, Y1; \
	VMULPS Y1, Y0, Y1; \
	VMOVUPS Y1, o(d)(SI*4)

// ATT(o, sig, dev) is one component of one mechanism on 8 points: the
// row at byte offset o of R13 is subtracted from sig and advanced to
// (al*r) + ((be*2)*dev), al in Y1 and be*2 in Y13. Clobbers Y0, Y3.
#define ATT(o, sig, dev) \
	VMOVUPS o(R13), Y0; \
	VSUBPS Y0, sig, sig; \
	VMULPS Y0, Y1, Y0; \
	VMULPS dev, Y13, Y3; \
	VADDPS Y3, Y0, Y0; \
	VMOVUPS Y0, o(R13)

// ATTM is ATT on the 16th vector: five live lanes under the mask in
// Y15, so neither the load nor the store touches the next row.
#define ATTM(o, sig, dev) \
	VMASKMOVPS o(R13), Y15, Y0; \
	VSUBPS Y0, sig, sig; \
	VMULPS Y0, Y1, Y0; \
	VMULPS dev, Y13, Y3; \
	VADDPS Y3, Y0, Y0; \
	VMASKMOVPS Y0, Y15, o(R13)

// MECH(op) loads al and be*2 of the mechanism at R14/R15 and runs op on
// its six rows; Y12 holds 2.
#define MECH(op) \
	VBROADCASTSS (R14), Y1; \
	VBROADCASTSS (R15), Y13; \
	VMULPS MUV, Y13, Y13; \
	VMULPS Y12, Y13, Y13; \
	op(0, Y2, DEV(0)); \
	op(500, Y4, DEV(1)); \
	op(1000, Y7, DEV(2)); \
	op(1500, Y10, DEV(3)); \
	op(2000, Y11, DEV(4)); \
	op(2500, Y14, DEV(5)); \
	ADDQ $3000, R13; \
	ADDQ $4, R14; \
	ADDQ $4, R15

// func stressStageAVX2(a *stressArgs)
TEXT ·stressStageAVX2(SB), 0, $640-8
	MOVQ a+0(FP), DI
	MOVQ stressArgs_xix(DI), AX
	MOVQ stressArgs_xiy(DI), BX
	MOVQ stressArgs_xiz(DI), CX
	MOVQ stressArgs_etx(DI), DX
	MOVQ stressArgs_ety(DI), R8
	MOVQ stressArgs_etz(DI), R9
	MOVQ stressArgs_gmx(DI), R10
	MOVQ stressArgs_gmy(DI), R11
	MOVQ stressArgs_gmz(DI), R12
	MOVQ stressArgs_jac(DI), R13
	MOVQ R13, PJAC
	MOVQ stressArgs_mu(DI), R13
	MOVQ R13, PMU
	MOVQ stressArgs_kap(DI), R13
	MOVQ R13, PKAP
	XORQ SI, SI

stressLoop:
	// Physical gradients of the three displacement components.
	MOVQ    stressArgs_t1(DI), R13
	MOVQ    stressArgs_t2(DI), R14
	MOVQ    stressArgs_t3(DI), R15
	VMOVUPS (R13)(SI*4), Y0
	VMOVUPS (R14)(SI*4), Y1
	VMOVUPS (R15)(SI*4), Y2
	DERIV(AX, DX, R10, Y3)  // duxdx
	DERIV(BX, R8, R11, Y5)  // duxdy
	DERIV(CX, R9, R12, Y6)  // duxdz
	VMOVUPS 512(R13)(SI*4), Y0
	VMOVUPS 512(R14)(SI*4), Y1
	VMOVUPS 512(R15)(SI*4), Y2
	DERIV(AX, DX, R10, Y7)  // duydx
	DERIV(BX, R8, R11, Y8)  // duydy
	DERIV(CX, R9, R12, Y9)  // duydz
	VMOVUPS 1024(R13)(SI*4), Y0
	VMOVUPS 1024(R14)(SI*4), Y1
	VMOVUPS 1024(R15)(SI*4), Y2
	DERIV(AX, DX, R10, Y10) // duzdx
	DERIV(BX, R8, R11, Y11) // duzdy
	DERIV(CX, R9, R12, Y12) // duzdz

	// Strain: tr in Y13, exy/exz/eyz in Y5/Y6/Y9.
	VADDPS       Y8, Y3, Y13
	VADDPS       Y12, Y13, Y13
	VBROADCASTSS stressArgs_half(DI), Y4
	VADDPS       Y7, Y5, Y5
	VMULPS       Y5, Y4, Y5
	VADDPS       Y10, Y6, Y6
	VMULPS       Y6, Y4, Y6
	VADDPS       Y11, Y9, Y9
	VMULPS       Y9, Y4, Y9

	// Moduli: mu in Y0, lam*tr in Y1, 2*mu in Y15.
	MOVQ         PMU, R13
	VBROADCASTSS stressArgs_muFac(DI), Y0
	VMULPS       (R13)(SI*4), Y0, Y0
	VBROADCASTSS stressArgs_twoThirds(DI), Y1
	VMULPS       Y0, Y1, Y1
	MOVQ         PKAP, R13
	VMOVUPS      (R13)(SI*4), Y2
	VSUBPS       Y1, Y2, Y1
	VMULPS       Y13, Y1, Y1
	VBROADCASTSS stressArgs_two(DI), Y15
	VMULPS       Y0, Y15, Y15

	// Stress: sxx syy szz sxy sxz syz in Y2 Y4 Y7 Y10 Y11 Y14.
	VMULPS Y3, Y15, Y2
	VADDPS Y2, Y1, Y2
	VMULPS Y8, Y15, Y4
	VADDPS Y4, Y1, Y4
	VMULPS Y12, Y15, Y7
	VADDPS Y7, Y1, Y7
	VMULPS Y5, Y15, Y10
	VMULPS Y6, Y15, Y11
	VMULPS Y9, Y15, Y14

	MOVQ  stressArgs_r(DI), R13
	TESTQ R13, R13
	JZ    stressFlux

	// Attenuation: the deviator goes to the frame, then every
	// mechanism's six rows are subtracted from the stress and advanced.
	VBROADCASTSS stressArgs_third(DI), Y1
	VMULPS       Y1, Y13, Y13
	VSUBPS       Y13, Y3, Y3
	VSUBPS       Y13, Y8, Y8
	VSUBPS       Y13, Y12, Y12
	VMOVUPS      Y3, DEV(0)
	VMOVUPS      Y8, DEV(1)
	VMOVUPS      Y12, DEV(2)
	VMOVUPS      Y5, DEV(3)
	VMOVUPS      Y6, DEV(4)
	VMOVUPS      Y9, DEV(5)
	VMOVUPS      Y0, MUV
	LEAQ         (R13)(SI*4), R13
	MOVQ         stressArgs_alpha(DI), R14
	MOVQ         stressArgs_beta(DI), R15
	VBROADCASTSS stressArgs_two(DI), Y12
	MOVQ         stressArgs_nsls(DI), DI
	CMPQ         SI, $120
	JEQ          stressTailMech

stressMech:
	MECH(ATT)
	DECQ DI
	JNZ  stressMech
	JMP  stressAttDone

stressTailMech:
	TAILMASK(X15, Y15)

stressTailMechLoop:
	MECH(ATTM)
	DECQ DI
	JNZ  stressTailMechLoop

stressAttDone:
	MOVQ a+0(FP), DI

stressFlux:
	MOVQ    PJAC, R13
	VMOVUPS (R13)(SI*4), Y0
	MOVQ    stressArgs_s1(DI), R13
	MOVQ    stressArgs_s2(DI), R14
	MOVQ    stressArgs_s3(DI), R15
	FLUX(Y2, Y10, Y11, AX, BX, CX, 0, R13)
	FLUX(Y10, Y4, Y14, AX, BX, CX, 512, R13)
	FLUX(Y11, Y14, Y7, AX, BX, CX, 1024, R13)
	FLUX(Y2, Y10, Y11, DX, R8, R9, 0, R14)
	FLUX(Y10, Y4, Y14, DX, R8, R9, 512, R14)
	FLUX(Y11, Y14, Y7, DX, R8, R9, 1024, R14)
	FLUX(Y2, Y10, Y11, R10, R11, R12, 0, R15)
	FLUX(Y10, Y4, Y14, R10, R11, R12, 512, R15)
	FLUX(Y11, Y14, Y7, R10, R11, R12, 1024, R15)

	ADDQ $8, SI
	CMPQ SI, $120
	JLT  stressLoop
	JGT  stressDone

	// SI == 120: redirect the static arrays to their padded tails and
	// run the body once more.
	TAILMASK(X15, Y15)
	TAILCOPY(AX, 0)
	TAILCOPY(BX, 1)
	TAILCOPY(CX, 2)
	TAILCOPY(DX, 3)
	TAILCOPY(R8, 4)
	TAILCOPY(R9, 5)
	TAILCOPY(R10, 6)
	TAILCOPY(R11, 7)
	TAILCOPY(R12, 8)
	TAILCOPYM(PJAC, 9)
	TAILCOPYM(PMU, 10)
	TAILCOPYM(PKAP, 11)
	JMP stressLoop

stressDone:
	VZEROUPPER
	RET

// func fluidStageAVX2(a *fluidArgs)
//
// Same frame and registers as stressStageAVX2; PMU holds the density
// pointer.
TEXT ·fluidStageAVX2(SB), 0, $640-8
	MOVQ a+0(FP), DI
	MOVQ fluidArgs_xix(DI), AX
	MOVQ fluidArgs_xiy(DI), BX
	MOVQ fluidArgs_xiz(DI), CX
	MOVQ fluidArgs_etx(DI), DX
	MOVQ fluidArgs_ety(DI), R8
	MOVQ fluidArgs_etz(DI), R9
	MOVQ fluidArgs_gmx(DI), R10
	MOVQ fluidArgs_gmy(DI), R11
	MOVQ fluidArgs_gmz(DI), R12
	MOVQ fluidArgs_jac(DI), R13
	MOVQ R13, PJAC
	MOVQ fluidArgs_rho(DI), R13
	MOVQ R13, PMU
	XORQ SI, SI

fluidLoop:
	// Physical gradient of the potential: gx gy gz in Y5 Y6 Y7.
	MOVQ    fluidArgs_t1(DI), R13
	MOVQ    fluidArgs_t2(DI), R14
	MOVQ    fluidArgs_t3(DI), R15
	VMOVUPS (R13)(SI*4), Y0
	VMOVUPS (R14)(SI*4), Y1
	VMOVUPS (R15)(SI*4), Y2
	DERIV(AX, DX, R10, Y5)
	DERIV(BX, R8, R11, Y6)
	DERIV(CX, R9, R12, Y7)

	// fac = jac/rho in Y0.
	MOVQ    PJAC, R13
	VMOVUPS (R13)(SI*4), Y0
	MOVQ    PMU, R13
	VDIVPS  (R13)(SI*4), Y0, Y0

	MOVQ fluidArgs_s1(DI), R13
	MOVQ fluidArgs_s2(DI), R14
	MOVQ fluidArgs_s3(DI), R15
	FLUX(Y5, Y6, Y7, AX, BX, CX, 0, R13)
	FLUX(Y5, Y6, Y7, DX, R8, R9, 0, R14)
	FLUX(Y5, Y6, Y7, R10, R11, R12, 0, R15)

	ADDQ $8, SI
	CMPQ SI, $120
	JLT  fluidLoop
	JGT  fluidDone

	TAILMASK(X15, Y15)
	TAILCOPY(AX, 0)
	TAILCOPY(BX, 1)
	TAILCOPY(CX, 2)
	TAILCOPY(DX, 3)
	TAILCOPY(R8, 4)
	TAILCOPY(R9, 5)
	TAILCOPY(R10, 6)
	TAILCOPY(R11, 7)
	TAILCOPY(R12, 8)
	TAILCOPYM(PJAC, 9)
	TAILCOPYM(PMU, 10)
	JMP fluidLoop

fluidDone:
	VZEROUPPER
	RET
