#include "textflag.h"

// ROUND advances one accumulator: acc = acc*x + c, as a separate
// multiply and add (the kernels never fuse), x in Y12 and c in Y13.
#define ROUND(acc) \
	VMULPS Y12, acc, acc; \
	VADDPS Y13, acc, acc

// func peakChainAVX2(iters int, x, c float32) float32
//
// iters rounds over twelve independent 8-lane accumulators: 24 vector
// instructions per round with no dependency shorter than a round, so
// the loop runs at the issue rate of the floating-point ports.
TEXT ·peakChainAVX2(SB), NOSPLIT, $0-20
	MOVQ         iters+0(FP), CX
	VBROADCASTSS x+8(FP), Y12
	VBROADCASTSS c+12(FP), Y13
	VMOVAPS      Y12, Y0
	VMOVAPS      Y12, Y1
	VMOVAPS      Y12, Y2
	VMOVAPS      Y12, Y3
	VMOVAPS      Y12, Y4
	VMOVAPS      Y12, Y5
	VMOVAPS      Y12, Y6
	VMOVAPS      Y12, Y7
	VMOVAPS      Y12, Y8
	VMOVAPS      Y12, Y9
	VMOVAPS      Y12, Y10
	VMOVAPS      Y12, Y11
	TESTQ        CX, CX
	JZ           sum

round:
	ROUND(Y0)
	ROUND(Y1)
	ROUND(Y2)
	ROUND(Y3)
	ROUND(Y4)
	ROUND(Y5)
	ROUND(Y6)
	ROUND(Y7)
	ROUND(Y8)
	ROUND(Y9)
	ROUND(Y10)
	ROUND(Y11)
	DECQ CX
	JNZ  round

sum:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y5, Y4, Y4
	VADDPS Y7, Y6, Y6
	VADDPS Y9, Y8, Y8
	VADDPS Y11, Y10, Y10
	VADDPS Y2, Y0, Y0
	VADDPS Y6, Y4, Y4
	VADDPS Y10, Y8, Y8
	VADDPS Y4, Y0, Y0
	VADDPS Y8, Y0, Y0
	VMOVSS X0, ret+16(FP)
	VZEROUPPER
	RET
