#include "textflag.h"

// func cpuid(leaf uint32) (ecx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-12
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL CX, ecx+8(FP)
	RET

// func common3POPCNT(a, b, x, y []uint64) (ax, ay, bx, by int)
//
// Counts over len(a) words; b, x and y must be at least that long. An odd
// last word is counted first, then the rest two words per iteration with
// an index that runs from -n up to 0. Each POPCNTQ writes its own source
// register, so no count waits on the previous write of its destination.
TEXT ·common3POPCNT(SB), NOSPLIT, $0-128
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	MOVQ x_base+48(FP), R8
	MOVQ y_base+72(FP), R9
	XORQ AX, AX // ax
	XORQ BX, BX // ay
	XORQ DX, DX // bx
	XORQ R10, R10 // by

	TESTQ $1, CX
	JZ    pairs
	DECQ  CX
	MOVQ  (SI)(CX*8), R11
	MOVQ  (DI)(CX*8), R12
	MOVQ  (R8)(CX*8), R13
	MOVQ  R13, R14
	ANDQ  R11, R14
	POPCNTQ R14, R14
	ADDQ  R14, AX
	ANDQ  R12, R13
	POPCNTQ R13, R13
	ADDQ  R13, DX
	MOVQ  (R9)(CX*8), R13
	ANDQ  R13, R11
	POPCNTQ R11, R11
	ADDQ  R11, BX
	ANDQ  R13, R12
	POPCNTQ R12, R12
	ADDQ  R12, R10

pairs:
	TESTQ CX, CX
	JZ    done
	LEAQ  (SI)(CX*8), SI
	LEAQ  (DI)(CX*8), DI
	LEAQ  (R8)(CX*8), R8
	LEAQ  (R9)(CX*8), R9
	NEGQ  CX

loop:
	MOVQ  (SI)(CX*8), R11
	MOVQ  (DI)(CX*8), R12
	MOVQ  (R8)(CX*8), R13
	MOVQ  R13, R14
	ANDQ  R11, R14
	POPCNTQ R14, R14
	ADDQ  R14, AX
	ANDQ  R12, R13
	POPCNTQ R13, R13
	ADDQ  R13, DX
	MOVQ  (R9)(CX*8), R13
	ANDQ  R13, R11
	POPCNTQ R11, R11
	ADDQ  R11, BX
	ANDQ  R13, R12
	POPCNTQ R12, R12
	ADDQ  R12, R10

	MOVQ  8(SI)(CX*8), R11
	MOVQ  8(DI)(CX*8), R12
	MOVQ  8(R8)(CX*8), R13
	MOVQ  R13, R14
	ANDQ  R11, R14
	POPCNTQ R14, R14
	ADDQ  R14, AX
	ANDQ  R12, R13
	POPCNTQ R13, R13
	ADDQ  R13, DX
	MOVQ  8(R9)(CX*8), R13
	ANDQ  R13, R11
	POPCNTQ R11, R11
	ADDQ  R11, BX
	ANDQ  R13, R12
	POPCNTQ R12, R12
	ADDQ  R12, R10

	ADDQ  $2, CX
	JNZ   loop

done:
	MOVQ AX, ax+96(FP)
	MOVQ BX, ay+104(FP)
	MOVQ DX, bx+112(FP)
	MOVQ R10, by+120(FP)
	RET
