#include "textflag.h"

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

// func gatherPEXT(dst, own, other []uint64) (ok bool)
//
// For each word, x = PEXT(other, own) holds the shared tasks packed by
// rank within the word, n = POPCNT(own) of them, and x lands at bit r&63
// of the current dst word (cur, kept in a register), r being the rank of
// the word's first task. The bits past that word, (x>>1)>>(63-r&63), are
// zero unless r+n crosses into the next word; then cur, already stored,
// is replaced by them (CMOVQ), so the loop has no data-dependent branch.
// Every iteration stores cur to dst[r>>6], which the caller keeps inside
// dst by passing an own whose last word is non-zero; the bounds check
// there only stops a caller that passes too short a dst.
TEXT ·gatherPEXT(SB), NOSPLIT, $0-73
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	MOVQ own_base+24(FP), SI
	MOVQ own_len+32(FP), CX
	MOVQ other_base+48(FP), DX
	XORQ R9, R9   // r
	XORQ R10, R10 // cur
	XORQ R11, R11 // r>>6
	TESTQ CX, CX
	JZ    flush
	LEAQ  (SI)(CX*8), SI
	LEAQ  (DX)(CX*8), DX
	NEGQ  CX

loop:
	CMPQ  R11, R8
	JAE   short
	MOVQ  (SI)(CX*8), AX
	MOVQ  (DX)(CX*8), BX
	PEXTQ AX, BX, BX   // x
	POPCNTQ AX, AX     // n
	SHLXQ R9, BX, R12
	ORQ   R12, R10
	MOVQ  R10, (DI)(R11*8)
	MOVQ  R9, R13
	NOTQ  R13
	SHRQ  $1, BX
	SHRXQ R13, BX, R13 // the bits past dst[r>>6]
	ADDQ  AX, R9
	MOVQ  R9, R12
	SHRQ  $6, R12
	CMPQ  R12, R11
	CMOVQNE R13, R10
	MOVQ  R12, R11
	INCQ  CX
	JNZ   loop

flush:
	// cur is stored unless the last word crossed into dst[r>>6].
	TESTQ R10, R10
	JZ    done
	CMPQ  R11, R8
	JAE   short
	MOVQ  R10, (DI)(R11*8)

done:
	MOVB $1, ok+72(FP)
	RET

short:
	MOVB $0, ok+72(FP)
	RET
