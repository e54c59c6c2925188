#include "textflag.h"

// func eliminateAVX2(a []float64, n, col int)
//
// For each row r below the pivot row: fr = a[r][col]/p, stored in place,
// then a[r][j] -= fr*a[col][j] for j > col, four elements per VMULPD and
// VSUBPD and the last (n-col-1)%4 one at a time with the scalar forms.
// Operands keep the Go loop's order (the product is y*fr, the difference
// dst-product), so even a NaN's payload comes out as Go's does.
TEXT ·eliminateAVX2(SB), NOSPLIT, $0-40
	MOVQ a_base+0(FP), SI
	MOVQ n+24(FP), CX
	MOVQ col+32(FP), DX
	MOVQ DX, AX
	IMULQ CX, AX
	ADDQ DX, AX
	LEAQ (SI)(AX*8), R8 // &a[col][col]
	MOVQ CX, R9
	SUBQ DX, R9
	DECQ R9             // tail length n-col-1, also the rows left
	JZ   done
	VMOVSD (R8), X0     // p
	LEAQ 8(R8), R12     // &a[col][col+1]
	LEAQ (R8)(CX*8), R11 // &a[r][col], r = col+1
	MOVQ R9, R13
	ANDQ $-4, R13       // elements in whole vectors
	MOVQ R9, R10        // rows left

row:
	VMOVSD (R11), X1
	VDIVSD X0, X1, X1   // fr = a[r][col] / p
	VMOVSD X1, (R11)
	VBROADCASTSD X1, Y1
	LEAQ 8(R11), DI     // &a[r][col+1]
	XORQ BX, BX
	TESTQ R13, R13
	JZ   scalar

vector:
	VMOVUPD (R12)(BX*8), Y2
	VMULPD Y1, Y2, Y2   // y * fr
	VMOVUPD (DI)(BX*8), Y3
	VSUBPD Y2, Y3, Y3   // dst - y*fr
	VMOVUPD Y3, (DI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, R13
	JB   vector

scalar:
	CMPQ BX, R9
	JAE  next
	VMOVSD (R12)(BX*8), X2
	VMULSD X1, X2, X2
	VMOVSD (DI)(BX*8), X3
	VSUBSD X2, X3, X3
	VMOVSD X3, (DI)(BX*8)
	INCQ BX
	JMP  scalar

next:
	LEAQ (R11)(CX*8), R11
	DECQ R10
	JNZ  row

done:
	VZEROUPPER
	RET
