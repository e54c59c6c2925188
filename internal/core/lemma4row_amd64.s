#include "textflag.h"

// func countRowAVX512(block []uint64, words, half, k1, from int, counts []int)
//
// One tile of eight lanes at a time, from lane from up to half: four ZMM
// accumulators (a·x, a·y, b·x, b·y), and per word of the block row the
// tile's x and y words, row k1's a and b words broadcast, one VPANDQ,
// VPOPCNTQ and VPADDQ per accumulator; the accumulators are then added to
// counts. A block row is 2·half words; the y lanes sit half words after
// the x lanes.
TEXT ·countRowAVX512(SB), NOSPLIT, $0-80
	MOVQ block_base+0(FP), SI
	MOVQ words+24(FP), CX
	MOVQ half+32(FP), DX
	MOVQ k1+40(FP), AX
	MOVQ from+48(FP), BX
	MOVQ counts_base+56(FP), DI
	MOVQ DX, R8
	SHLQ $3, R8          // a half's bytes
	LEAQ (R8)(R8*1), R9  // a block row's bytes
	LEAQ (SI)(AX*8), R10 // &block[k1]
	CMPQ BX, DX
	JAE  done

tile:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	LEAQ (SI)(BX*8), R14 // the tile's x lanes in word 0
	MOVQ R10, AX         // row k1's a in word 0
	MOVQ CX, R11
	TESTQ R11, R11
	JZ   store

word:
	VPBROADCASTQ (AX), Z4
	VPBROADCASTQ (AX)(R8*1), Z5
	VMOVDQU64 (R14), Z6
	VMOVDQU64 (R14)(R8*1), Z7
	VPANDQ Z4, Z6, Z8
	VPOPCNTQ Z8, Z8
	VPADDQ Z8, Z0, Z0
	VPANDQ Z4, Z7, Z9
	VPOPCNTQ Z9, Z9
	VPADDQ Z9, Z1, Z1
	VPANDQ Z5, Z6, Z10
	VPOPCNTQ Z10, Z10
	VPADDQ Z10, Z2, Z2
	VPANDQ Z5, Z7, Z11
	VPOPCNTQ Z11, Z11
	VPADDQ Z11, Z3, Z3
	ADDQ R9, AX
	ADDQ R9, R14
	DECQ R11
	JNZ  word

store:
	LEAQ (DI)(BX*8), R12
	VPADDQ (R12), Z0, Z0
	VMOVDQU64 Z0, (R12)
	ADDQ R8, R12
	VPADDQ (R12), Z1, Z1
	VMOVDQU64 Z1, (R12)
	ADDQ R8, R12
	VPADDQ (R12), Z2, Z2
	VMOVDQU64 Z2, (R12)
	ADDQ R8, R12
	VPADDQ (R12), Z3, Z3
	VMOVDQU64 Z3, (R12)
	ADDQ $8, BX
	CMPQ BX, DX
	JB   tile

done:
	VZEROUPPER
	RET

// TERM adds one lemma4Term, weighted by dk1·dk2, to the entries in Y7.
// idx addresses the lanes' partner indices, agree and common the counter
// row they index, c3 the lanes' triple counts, own their c_{i,j′}, fij
// holds c_{i,j} as doubles, dk1 row k1's gradient and dk2 addresses the
// lanes' gradients. Y15 holds the conversion constant, Y14 p, Y13 1−p and
// Y12 1.0; Y0–Y6 are scratch. A count v becomes a double as the bits of
// (v + bits(2⁵²+2⁵¹)) minus 2⁵²+2⁵¹, exact for |v| < 2⁵¹.
#define TERM(idx, agree, common, c3, own, fij, dk1, dk2) \
	VMOVDQU idx, Y0 \
	VPCMPEQQ Y1, Y1, Y1 \
	VPGATHERQQ Y1, (agree)(Y0*8), Y2 \
	VPCMPEQQ Y1, Y1, Y1 \
	VPGATHERQQ Y1, (common)(Y0*8), Y3 \
	VPADDQ Y15, Y2, Y2 \
	VSUBPD Y15, Y2, Y2 \
	VPADDQ Y15, Y3, Y3 \
	VSUBPD Y15, Y3, Y3 \
	VXORPD Y1, Y1, Y1 \
	VCMPPD $4, Y1, Y3, Y4 \
	VDIVPD Y3, Y2, Y2 \
	VANDPD Y4, Y2, Y2 \
	VADDPD Y2, Y2, Y2 \
	VSUBPD Y12, Y2, Y2 \
	VMOVDQU c3, Y3 \
	VPADDQ Y15, Y3, Y3 \
	VSUBPD Y15, Y3, Y3 \
	VMULPD Y14, Y3, Y4 \
	VMULPD Y13, Y4, Y4 \
	VMULPD Y4, Y2, Y4 \
	VMOVDQU own, Y5 \
	VPADDQ Y15, Y5, Y5 \
	VSUBPD Y15, Y5, Y5 \
	VMULPD Y5, fij, Y5 \
	VDIVPD Y5, Y4, Y4 \
	VCMPPD $4, Y1, Y3, Y3 \
	VCMPPD $4, Y1, Y5, Y5 \
	VANDPD Y5, Y3, Y3 \
	VANDPD Y3, Y4, Y4 \
	VMULPD dk2, dk1, Y6 \
	VMULPD Y4, Y6, Y6 \
	VADDPD Y6, Y7, Y7

// func entryRowAVX2(out []float64, counts, tri []int, grad []float64, agreeA, commonA, agreeB, commonB []int, half, from, cia, cib int, da, db, pI float64)
//
// Four lanes per iteration from lane from up to half. Every table is
// addressed through a pointer to the lanes' first half plus hb, a half's
// bytes, for the next: counts' a·x and a·y at BX, b·x and b·y at R9;
// tri's partners at R10 and their c_{i,j′} at R11; the gradients at R12.
TEXT ·entryRowAVX2(SB), NOSPLIT, $0-248
	MOVQ half+192(FP), CX
	MOVQ from+200(FP), DX
	MOVQ CX, R8
	SHLQ $3, R8 // hb
	SUBQ DX, CX
	SHRQ $2, CX // iterations
	JZ   done
	MOVQ out_base+0(FP), AX
	LEAQ (AX)(DX*8), AX
	MOVQ counts_base+24(FP), BX
	LEAQ (BX)(DX*8), BX
	LEAQ (BX)(R8*2), R9
	MOVQ tri_base+48(FP), R10
	LEAQ (R10)(DX*8), R10
	LEAQ (R10)(R8*2), R11
	MOVQ grad_base+72(FP), R12
	LEAQ (R12)(DX*8), R12
	MOVQ agreeA_base+96(FP), SI
	MOVQ commonA_base+120(FP), DI
	MOVQ agreeB_base+144(FP), R13
	MOVQ commonB_base+168(FP), R14

	MOVQ $0x4338000000000000, DX
	VMOVQ DX, X15
	VPBROADCASTQ X15, Y15
	MOVQ $0x3ff0000000000000, DX
	VMOVQ DX, X12
	VPBROADCASTQ X12, Y12
	VBROADCASTSD pI+240(FP), Y14
	VSUBSD X14, X12, X13
	VBROADCASTSD X13, Y13
	VBROADCASTSD da+224(FP), Y11
	VBROADCASTSD db+232(FP), Y10
	VPBROADCASTQ cia+208(FP), Y9
	VPADDQ Y15, Y9, Y9
	VSUBPD Y15, Y9, Y9
	VPBROADCASTQ cib+216(FP), Y8
	VPADDQ Y15, Y8, Y8
	VSUBPD Y15, Y8, Y8

lanes:
	VXORPD Y7, Y7, Y7
	TERM((R10), SI, DI, (BX), (R11), Y9, Y11, (R12))
	TERM((R10)(R8*1), SI, DI, (BX)(R8*1), (R11)(R8*1), Y9, Y11, (R12)(R8*1))
	TERM((R10), R13, R14, (R9), (R11), Y8, Y10, (R12))
	TERM((R10)(R8*1), R13, R14, (R9)(R8*1), (R11)(R8*1), Y8, Y10, (R12)(R8*1))
	VMOVUPD Y7, (AX)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	DECQ CX
	JNZ  lanes

done:
	VZEROUPPER
	RET
