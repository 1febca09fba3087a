//go:build !race

#include "textflag.h"

// GATHER writes one triangle to (DI) and advances DI past it. Its corners'
// vertex indices are in AX, BX and DX; each must be below R8, the vertex
// count, or GATHER jumps to bad. The vertices, 12 bytes each at R9, go out
// as 36 bytes in four MOVNTIQ and one MOVNTIL: A.X A.Y | A.Z B.X | B.Y B.Z |
// C.X C.Y | C.Z.
#define GATHER \
	CMPQ    AX, R8 \
	JAE     bad \
	CMPQ    BX, R8 \
	JAE     bad \
	CMPQ    DX, R8 \
	JAE     bad \
	LEAQ    (AX)(AX*2), AX \
	LEAQ    (BX)(BX*2), BX \
	LEAQ    (DX)(DX*2), DX \
	MOVQ    (R9)(AX*4), R10 \
	MOVL    8(R9)(AX*4), R11 \
	MOVL    (R9)(BX*4), R12 \
	SHLQ    $32, R12 \
	ORQ     R12, R11 \
	MOVQ    4(R9)(BX*4), R12 \
	MOVQ    (R9)(DX*4), R13 \
	MOVL    8(R9)(DX*4), AX \
	MOVNTIQ R10, (DI) \
	MOVNTIQ R11, 8(DI) \
	MOVNTIQ R12, 16(DI) \
	MOVNTIQ R13, 24(DI) \
	MOVNTIL AX, 32(DI) \
	ADDQ    $36, DI

// func gatherNT(out *Triangle, verts *Vec3, nverts int, idx unsafe.Pointer, width uintptr, tris int) (ok bool)
//
// SFENCE runs before every return, the error's included: streaming stores
// are weakly ordered, and the caller may hand the soup to another goroutine
// as soon as this returns.
TEXT ·gatherNT(SB), NOSPLIT, $0-49
	MOVQ  out+0(FP), DI
	MOVQ  verts+8(FP), R9
	MOVQ  nverts+16(FP), R8
	MOVQ  idx+24(FP), SI
	MOVQ  tris+40(FP), CX
	TESTQ CX, CX
	JZ    done
	CMPQ  width+32(FP), $4
	JEQ   loop32

loop16:
	MOVWLZX (SI), AX
	MOVWLZX 2(SI), BX
	MOVWLZX 4(SI), DX
	GATHER
	ADDQ    $6, SI
	DECQ    CX
	JNZ     loop16
	JMP     done

loop32:
	MOVL (SI), AX
	MOVL 4(SI), BX
	MOVL 8(SI), DX
	GATHER
	ADDQ $12, SI
	DECQ CX
	JNZ  loop32

done:
	SFENCE
	MOVB $1, ok+48(FP)
	RET

bad:
	SFENCE
	MOVB $0, ok+48(FP)
	RET
