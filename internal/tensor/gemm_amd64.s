#include "textflag.h"

// func kern4x8AVX(a []float64, ars, aps int, b []float64, n, kc int, c []float64, first bool)
//
// Y0..Y7 hold the 4×8 tile, two 4-wide halves per row. Each step of p loads
// b[p·n : p·n+8] into Y8/Y9, broadcasts A[r,p] into Y10 for each row r and
// adds the two products into that row's accumulators. VMULPD then VADDPD,
// never FMA: each product is rounded before it is added, as in kern4x8Go.
TEXT ·kern4x8AVX(SB), NOSPLIT, $0-105
	MOVQ a_base+0(FP), SI
	MOVQ ars+24(FP), R8
	MOVQ aps+32(FP), R9
	MOVQ b_base+40(FP), DI
	MOVQ n+64(FP), R10
	MOVQ kc+72(FP), CX
	MOVQ c_base+80(FP), DX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R8)(R8*2), R11 // 3·ars bytes: row 3 of A

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

loop:
	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (SI)(R8*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (SI)(R8*2), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (SI)(R11*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y7, Y7
	ADDQ         R9, SI
	ADDQ         R10, DI
	DECQ         CX
	JNZ          loop

	LEAQ (R10)(R10*2), R12 // 3·n bytes: row 3 of c
	CMPB first+104(FP), $0
	JNE  store
	VADDPD (DX), Y0, Y0
	VADDPD 32(DX), Y1, Y1
	VADDPD (DX)(R10*1), Y2, Y2
	VADDPD 32(DX)(R10*1), Y3, Y3
	VADDPD (DX)(R10*2), Y4, Y4
	VADDPD 32(DX)(R10*2), Y5, Y5
	VADDPD (DX)(R12*1), Y6, Y6
	VADDPD 32(DX)(R12*1), Y7, Y7

store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(R10*1)
	VMOVUPD Y3, 32(DX)(R10*1)
	VMOVUPD Y4, (DX)(R10*2)
	VMOVUPD Y5, 32(DX)(R10*2)
	VMOVUPD Y6, (DX)(R12*1)
	VMOVUPD Y7, 32(DX)(R12*1)
	VZEROUPPER
	RET

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV               // XCR0 into DX:AX
	ANDL $6, AX          // XMM (bit 1) and YMM (bit 2) state enabled
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
