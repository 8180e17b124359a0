#include "textflag.h"

// 8-lane bodies of ApplyD1Vec4 / ApplyD2Vec4 / ApplyD3Vec4 (DESIGN.md
// "Vector kernels"). VMULPS / VADDPS only, in the association of the Go
// bodies; VZEROUPPER before every RET because the Go code around these
// calls is legacy-SSE encoded.

// SUM5(b, o, r0..r4) leaves ((((b[o]*r0)+(b[o+4]*r1))+(b[o+8]*r2))+
// (b[o+12]*r3))+(b[o+16]*r4) in Y5: five consecutive scalars at byte
// offset o of base register b, each broadcast to all lanes, against five
// vector registers. Clobbers Y6.
#define SUM5(b, o, r0, r1, r2, r3, r4) \
	VBROADCASTSS (o+0)(b), Y5;  VMULPS r0, Y5, Y5; \
	VBROADCASTSS (o+4)(b), Y6;  VMULPS r1, Y6, Y6; VADDPS Y6, Y5, Y5; \
	VBROADCASTSS (o+8)(b), Y6;  VMULPS r2, Y6, Y6; VADDPS Y6, Y5, Y5; \
	VBROADCASTSS (o+12)(b), Y6; VMULPS r3, Y6, Y6; VADDPS Y6, Y5, Y5; \
	VBROADCASTSS (o+16)(b), Y6; VMULPS r4, Y6, Y6; VADDPS Y6, Y5, Y5

// COL(l, r) builds column l of the matrix in AX as the 8-lane vector
// {m[0][l], m[1][l], m[2][l], m[3][l], m[4][l], 0, 0, 0}: the low four
// lanes are cols[l] (BX), the fifth comes from row 4 of m.
#define COL(l, x, y) \
	VMOVUPS (16*l)(BX), x; \
	VMOVSS (80+4*l)(AX), X5; \
	VINSERTF128 $1, X5, y, y

// func applyD1AVX2(m *Matrix, cols *[NGLL]Vec4, u, out *[PadLen]float32)
//
// xi direction: each 5-value segment of u is broadcast against the five
// zero-padded columns. The 8-lane store of a segment spills three zero
// products into the next segment, whose own store (ascending addresses)
// overwrites them; the last segment spills into the pad lanes.
TEXT ·applyD1AVX2(SB), NOSPLIT, $0-32
	MOVQ m+0(FP), AX
	MOVQ cols+8(FP), BX
	MOVQ u+16(FP), SI
	MOVQ out+24(FP), DI
	COL(0, X0, Y0)
	COL(1, X1, Y1)
	COL(2, X2, Y2)
	COL(3, X3, Y3)
	COL(4, X4, Y4)
	MOVQ $5, CX

d1slab:
	SUM5(SI, 0, Y0, Y1, Y2, Y3, Y4)
	VMOVUPS Y5, 0(DI)
	SUM5(SI, 20, Y0, Y1, Y2, Y3, Y4)
	VMOVUPS Y5, 20(DI)
	SUM5(SI, 40, Y0, Y1, Y2, Y3, Y4)
	VMOVUPS Y5, 40(DI)
	SUM5(SI, 60, Y0, Y1, Y2, Y3, Y4)
	VMOVUPS Y5, 60(DI)
	SUM5(SI, 80, Y0, Y1, Y2, Y3, Y4)
	VMOVUPS Y5, 80(DI)
	ADDQ $100, SI
	ADDQ $100, DI
	DECQ CX
	JNZ  d1slab
	VZEROUPPER
	RET

// func applyD2AVX2(m *Matrix, u, out *[PadLen]float32)
//
// eta direction: per k-slab the five input rows are loaded as 8-lane
// vectors (5 live lanes, 3 lanes of the next row or of the pad) and
// output row j is row j of m broadcast against them. Rows are stored in
// ascending address order, so the 3 spilled lanes of each row are
// overwritten by the next one and the last row spills into the pad.
TEXT ·applyD2AVX2(SB), NOSPLIT, $0-24
	MOVQ m+0(FP), AX
	MOVQ u+8(FP), SI
	MOVQ out+16(FP), DI
	MOVQ $5, CX

d2slab:
	VMOVUPS 0(SI), Y0
	VMOVUPS 20(SI), Y1
	VMOVUPS 40(SI), Y2
	VMOVUPS 60(SI), Y3
	VMOVUPS 80(SI), Y4
	SUM5(AX, 0, Y0, Y1, Y2, Y3, Y4)
	VMOVUPS Y5, 0(DI)
	SUM5(AX, 20, Y0, Y1, Y2, Y3, Y4)
	VMOVUPS Y5, 20(DI)
	SUM5(AX, 40, Y0, Y1, Y2, Y3, Y4)
	VMOVUPS Y5, 40(DI)
	SUM5(AX, 60, Y0, Y1, Y2, Y3, Y4)
	VMOVUPS Y5, 60(DI)
	SUM5(AX, 80, Y0, Y1, Y2, Y3, Y4)
	VMOVUPS Y5, 80(DI)
	ADDQ $100, SI
	ADDQ $100, DI
	DECQ CX
	JNZ  d2slab
	VZEROUPPER
	RET

// D3CHUNK(c) contracts the 8 plane positions starting at byte offset c
// across the five k-planes (100 bytes apart).
#define D3CHUNK(c) \
	VMOVUPS (c+0)(SI), Y0; \
	VMOVUPS (c+100)(SI), Y1; \
	VMOVUPS (c+200)(SI), Y2; \
	VMOVUPS (c+300)(SI), Y3; \
	VMOVUPS (c+400)(SI), Y4; \
	SUM5(AX, 0, Y0, Y1, Y2, Y3, Y4); \
	VMOVUPS Y5, (c+0)(DI); \
	SUM5(AX, 20, Y0, Y1, Y2, Y3, Y4); \
	VMOVUPS Y5, (c+100)(DI); \
	SUM5(AX, 40, Y0, Y1, Y2, Y3, Y4); \
	VMOVUPS Y5, (c+200)(DI); \
	SUM5(AX, 60, Y0, Y1, Y2, Y3, Y4); \
	VMOVUPS Y5, (c+300)(DI); \
	SUM5(AX, 80, Y0, Y1, Y2, Y3, Y4); \
	VMOVUPS Y5, (c+400)(DI)

// func applyD3AVX2(m *Matrix, u, out *[PadLen]float32)
//
// zeta direction: a k-plane is 25 contiguous floats, covered by four
// 8-lane chunks at floats 0, 8, 16 and 17 (the last overlaps the third
// and recomputes lanes 17..23 to the same bits), so nothing past float
// 124 is read or written.
TEXT ·applyD3AVX2(SB), NOSPLIT, $0-24
	MOVQ m+0(FP), AX
	MOVQ u+8(FP), SI
	MOVQ out+16(FP), DI
	D3CHUNK(0)
	D3CHUNK(32)
	D3CHUNK(64)
	D3CHUNK(68)
	VZEROUPPER
	RET
