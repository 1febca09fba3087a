#include "textflag.h"

// Constants of the grid kernel, eight 32-bit lanes each.
DATA gridMask14<>+0(SB)/8, $0x00003fff00003fff
DATA gridMask14<>+8(SB)/8, $0x00003fff00003fff
DATA gridMask14<>+16(SB)/8, $0x00003fff00003fff
DATA gridMask14<>+24(SB)/8, $0x00003fff00003fff
GLOBL gridMask14<>(SB), RODATA|NOPTR, $32

DATA gridOne<>+0(SB)/8, $0x0000000100000001
DATA gridOne<>+8(SB)/8, $0x0000000100000001
DATA gridOne<>+16(SB)/8, $0x0000000100000001
DATA gridOne<>+24(SB)/8, $0x0000000100000001
GLOBL gridOne<>(SB), RODATA|NOPTR, $32

DATA gridTwo<>+0(SB)/8, $0x0000000200000002
DATA gridTwo<>+8(SB)/8, $0x0000000200000002
DATA gridTwo<>+16(SB)/8, $0x0000000200000002
DATA gridTwo<>+24(SB)/8, $0x0000000200000002
GLOBL gridTwo<>(SB), RODATA|NOPTR, $32

DATA gridThree<>+0(SB)/8, $0x0000000300000003
DATA gridThree<>+8(SB)/8, $0x0000000300000003
DATA gridThree<>+16(SB)/8, $0x0000000300000003
DATA gridThree<>+24(SB)/8, $0x0000000300000003
GLOBL gridThree<>(SB), RODATA|NOPTR, $32

// The largest float32 bits below 16384.0 (0x46800000): a lane at most this,
// unsigned, holds a value in [0, 2¹⁴) that is neither −0 nor NaN.
DATA gridIntMax<>+0(SB)/8, $0x467fffff467fffff
DATA gridIntMax<>+8(SB)/8, $0x467fffff467fffff
DATA gridIntMax<>+16(SB)/8, $0x467fffff467fffff
DATA gridIntMax<>+24(SB)/8, $0x467fffff467fffff
GLOBL gridIntMax<>(SB), RODATA|NOPTR, $32

DATA gridTop2<>+0(SB)/8, $0xc0000000c0000000
DATA gridTop2<>+8(SB)/8, $0xc0000000c0000000
DATA gridTop2<>+16(SB)/8, $0xc0000000c0000000
DATA gridTop2<>+24(SB)/8, $0xc0000000c0000000
GLOBL gridTop2<>(SB), RODATA|NOPTR, $32

// The lanes of X, Y and Z each 32-byte third of eight vertices' 96 bytes
// takes: X0 Y0 Z0 X1 Y1 Z1 X2 Y2 | Z2 X3 Y3 Z3 X4 Y4 Z4 X5 | Y5 Z5 X6 Y6 Z6 X7 Y7 Z7.
DATA gridIdx0<>+0(SB)/8, $0x0000000000000000
DATA gridIdx0<>+8(SB)/8, $0x0000000100000000
DATA gridIdx0<>+16(SB)/8, $0x0000000100000001
DATA gridIdx0<>+24(SB)/8, $0x0000000200000002
GLOBL gridIdx0<>(SB), RODATA|NOPTR, $32

DATA gridIdx1<>+0(SB)/8, $0x0000000300000002
DATA gridIdx1<>+8(SB)/8, $0x0000000300000003
DATA gridIdx1<>+16(SB)/8, $0x0000000400000004
DATA gridIdx1<>+24(SB)/8, $0x0000000500000004
GLOBL gridIdx1<>(SB), RODATA|NOPTR, $32

DATA gridIdx2<>+0(SB)/8, $0x0000000500000005
DATA gridIdx2<>+8(SB)/8, $0x0000000600000006
DATA gridIdx2<>+16(SB)/8, $0x0000000700000006
DATA gridIdx2<>+24(SB)/8, $0x0000000700000007
GLOBL gridIdx2<>(SB), RODATA|NOPTR, $32

// func cpuAVX2() bool
TEXT ·cpuAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (27), AVX (28)
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX          // XCR0: SSE and AVX state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $0x20, BX       // AVX2 (5)
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func expandGridAVX2(dst *geom.Vec3, src *byte, blocks int) (bad uint32)
//
// Per block: deinterleave eight (ij, crossing) pairs into IJ and C, convert
// the integers, select X, Y and Z by the axis with blends — X = axis 0 ? C : A,
// Y = axis 0 ? A : axis 1 ? C : B, Z = axis 2 ? C : B — and interleave them
// into eight 12-byte vertices. The checks accumulate across blocks: any IJ
// with its top two bits set, any axis 3, and any crossing on an axis above 0
// that is itself a grid integer.
TEXT ·expandGridAVX2(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX
	VPXOR Y11, Y11, Y11 // OR of every IJ
	VPXOR Y12, Y12, Y12 // OR of every lane found off the rule
	TESTQ CX, CX
	JZ   done
	VMOVDQU gridIdx0<>(SB), Y13
	VMOVDQU gridIdx1<>(SB), Y14
	VMOVDQU gridIdx2<>(SB), Y15

loop:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VSHUFPS $0x88, Y1, Y0, Y2
	VSHUFPS $0xdd, Y1, Y0, Y3
	VPERMQ  $0xd8, Y2, Y2 // IJ, vertices 0..7
	VPERMQ  $0xd8, Y3, Y3 // C
	VPOR    Y2, Y11, Y11

	VPAND     gridMask14<>(SB), Y2, Y4
	VCVTDQ2PS Y4, Y4 // A, the first integer
	VPSRLD    $16, Y2, Y5
	VCVTDQ2PS Y5, Y5 // B, the second
	VPSRLD    $14, Y2, Y6
	VPAND     gridThree<>(SB), Y6, Y6 // axis
	VPCMPEQD  gridThree<>(SB), Y6, Y7
	VPOR      Y7, Y12, Y12

	// A crossing that round-trips through an integer and lies in
	// [0, 2¹⁴), bit for bit, is a grid integer.
	VCVTTPS2DQ Y3, Y8
	VCVTDQ2PS  Y8, Y8
	VPCMPEQD   Y3, Y8, Y8
	VPMINUD    gridIntMax<>(SB), Y3, Y9
	VPCMPEQD   Y3, Y9, Y9
	VPAND      Y9, Y8, Y8
	VPXOR      Y9, Y9, Y9
	VPCMPEQD   Y9, Y6, Y7 // axis 0
	VPANDN     Y8, Y7, Y8 // a grid-integer crossing on an axis above 0
	VPOR       Y8, Y12, Y12

	VPCMPEQD  gridOne<>(SB), Y6, Y8 // axis 1
	VPCMPEQD  gridTwo<>(SB), Y6, Y9 // axis 2
	VBLENDVPS Y7, Y3, Y4, Y0        // X
	VBLENDVPS Y9, Y3, Y5, Y1        // Z
	VBLENDVPS Y8, Y3, Y5, Y2
	VBLENDVPS Y7, Y4, Y2, Y2        // Y

	VPERMPS  Y0, Y13, Y3
	VPERMPS  Y2, Y13, Y4
	VPERMPS  Y1, Y13, Y5
	VBLENDPS $0x92, Y4, Y3, Y3
	VBLENDPS $0x24, Y5, Y3, Y3
	VMOVUPS  Y3, (DI)
	VPERMPS  Y0, Y14, Y3
	VPERMPS  Y2, Y14, Y4
	VPERMPS  Y1, Y14, Y5
	VBLENDPS $0x24, Y4, Y3, Y3
	VBLENDPS $0x49, Y5, Y3, Y3
	VMOVUPS  Y3, 32(DI)
	VPERMPS  Y0, Y15, Y3
	VPERMPS  Y2, Y15, Y4
	VPERMPS  Y1, Y15, Y5
	VBLENDPS $0x49, Y4, Y3, Y3
	VBLENDPS $0x92, Y5, Y3, Y3
	VMOVUPS  Y3, 64(DI)

	ADDQ $64, SI
	ADDQ $96, DI
	DECQ CX
	JNZ  loop

done:
	VPAND   gridTop2<>(SB), Y11, Y11
	VPOR    Y11, Y12, Y12
	XORL    AX, AX
	VPTEST  Y12, Y12
	SETNE   AL
	VZEROUPPER
	MOVL    AX, bad+24(FP)
	RET
